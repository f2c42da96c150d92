"""Live churn: runtime attach/detach, fault isolation, overload
shedding, and the ServiceReport JSON contract."""

import json
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, FusionError, VideoError
from repro.serve import FusionService, ShedPolicy, StreamSLO
from repro.serve.ops.shedding import Shedder
from repro.session import (
    FramePair,
    FrameSource,
    FusionConfig,
    FusionSession,
    SyntheticSource,
)
from repro.types import FrameShape
from repro.video.faults import DropoutChannel

TINY = FrameShape(32, 24)


def config(**overrides):
    defaults = dict(engine="neon", fusion_shape=TINY, levels=2, seed=5,
                    quality_metrics=False)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def solo_results(overrides, seed, frames):
    with FusionSession(config(**overrides)) as session:
        return list(session.stream(SyntheticSource(seed=seed),
                                   limit=frames))


class LossyCableSource(FrameSource):
    """Synthetic pairs whose visible plane rides a byte channel from
    :mod:`repro.video.faults` that starts dropping bursts mid-stream
    (a connector coming loose at ``fail_at``): the source notices the
    short read and raises :class:`VideoError`, deterministically."""

    def __init__(self, fail_at=2, n=50, shape=(24, 32)):
        self.channel = DropoutChannel(dropout_rate=0.9, burst_bytes=64,
                                      seed=7)
        self.fail_at = fail_at
        self.n = n
        self.shape = shape
        self.closed = False

    def frames(self):
        for i in range(self.n):
            visible = np.full(self.shape, 10.0 + i)
            if i >= self.fail_at:
                data = visible.tobytes()
                received = self.channel.transmit(data)
                if len(received) != len(data):
                    stats = self.channel.stats
                    raise VideoError(
                        f"frame {i}: channel dropped "
                        f"{stats.bytes_dropped} byte(s) over "
                        f"{stats.bursts} burst(s)")
                visible = np.frombuffer(
                    received, dtype=visible.dtype).reshape(self.shape)
            yield FramePair(visible=visible,
                            thermal=np.full(self.shape, 200.0 - i),
                            timestamp_s=i / 25.0, index=i)

    def close(self):
        self.closed = True


# ----------------------------------------------------------------------
class TestLiveChurn:
    def test_attach_detach_leaves_tenants_undisturbed(
            self, assert_bitwise_parity):
        """A guest attaching and detaching mid-run never perturbs the
        steady tenant's output bits."""
        service = FusionService(pool={"neon": 1, "arm": 1}, live=True)
        service.add_stream("steady", config=config(),
                           source=SyntheticSource(seed=3), frames=8)
        service.start()
        # endless guest on the other engine: attach mid-run, then
        # detach — the steady stream must not notice
        service.attach("guest", config=config(engine="arm"),
                       source=SyntheticSource(seed=4))
        time.sleep(0.05)
        guest_report = service.detach("guest", timeout=30.0)
        report = service.wait()
        assert guest_report is report.streams["guest"]
        assert report.scheduler["guest"]["outcome"] == "detached"
        assert report.scheduler["steady"]["outcome"] == "completed"
        assert_bitwise_parity(solo_results({}, 3, 8),
                              report.streams["steady"].records,
                              label="steady")
        assert report.ledger["balanced"]
        assert report.pool["granted"] == report.pool["released"]

    def test_detach_of_finished_stream_returns_its_report(self):
        service = FusionService(pool={"neon": 1}, live=True)
        service.attach("short", config=config(),
                       source=SyntheticSource(seed=1), frames=2)
        service.start()
        # let the stream run to completion and auto-retire
        deadline = time.monotonic() + 30.0
        while service.stream_names():
            assert time.monotonic() < deadline
            time.sleep(0.005)
        report = service.detach("short")
        assert report.frames == 2
        # idempotent: the parked report comes back again
        assert service.detach("short") is report
        service.close()

    def test_name_reusable_after_retirement(self):
        service = FusionService(pool={"neon": 1}, live=True)
        service.start()

        def run_to_retirement(seed, frames):
            service.attach("cam", config=config(),
                           source=SyntheticSource(seed=seed),
                           frames=frames)
            deadline = time.monotonic() + 30.0
            while service.stream_names():
                assert time.monotonic() < deadline
                time.sleep(0.005)

        run_to_retirement(seed=1, frames=2)
        run_to_retirement(seed=2, frames=3)
        report = service.wait()
        # the second incarnation's report is the one retained
        assert report.streams["cam"].frames == 3
        assert report.ledger["balanced"]

    def test_duplicate_active_name_rejected(self):
        service = FusionService(pool={"neon": 1}, live=True)
        service.attach("cam", config=config(),
                       source=SyntheticSource(seed=1), frames=2)
        with pytest.raises(ConfigurationError, match="duplicate"):
            service.attach("cam", config=config(),
                           source=SyntheticSource(seed=2), frames=2)
        service.close()

    def test_reap_hands_back_reports_once(self):
        service = FusionService(pool={"neon": 1}, live=True)
        service.start()
        service.attach("cam", config=config(),
                       source=SyntheticSource(seed=1), frames=2)
        deadline = time.monotonic() + 30.0
        reports = {}
        while "cam" not in reports:
            reports.update(service.reap())
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert reports["cam"].frames == 2
        assert service.reap() == {}
        # reaped per-stream state is gone from the ledger map too
        assert "cam" not in service.ledger()["streams"]
        service.close()

    def test_attach_to_non_live_running_service_rejected(self):
        service = FusionService(pool={"neon": 1})
        service.add_stream("a", config=config(),
                           source=SyntheticSource(seed=1), frames=2)
        service.start()
        with pytest.raises(ConfigurationError, match="live=True"):
            service.add_stream("b", config=config(),
                               source=SyntheticSource(seed=2), frames=2)
        service.wait()

    def test_detach_requires_live_service(self):
        service = FusionService(pool={"neon": 1})
        service.add_stream("a", config=config(),
                           source=SyntheticSource(seed=1), frames=2)
        service.start()
        with pytest.raises(ConfigurationError, match="live"):
            service.detach("a")
        service.wait()

    def test_detach_unknown_stream_rejected(self):
        service = FusionService(pool={"neon": 1}, live=True)
        with pytest.raises(ConfigurationError, match="no stream"):
            service.detach("ghost")
        service.close()

    def test_attach_while_draining_rejected(self):
        service = FusionService(pool={"neon": 1}, live=True)
        service.start()
        service.wait()
        with pytest.raises(FusionError, match="closed"):
            service.attach("late", config=config(),
                           source=SyntheticSource(seed=1), frames=2)


# ----------------------------------------------------------------------
class TestFaultIsolation:
    """Satellite: a fault-injected source under churn — the faulting
    stream detaches cleanly, its leases are released, the error shows
    in the ServiceReport, and healthy tenants never notice."""

    def test_faulty_stream_is_isolated_from_healthy_tenants(
            self, assert_bitwise_parity):
        faulty_source = LossyCableSource(fail_at=2)
        service = FusionService(pool={"neon": 1, "arm": 1}, live=True)
        service.add_stream("healthy", config=config(),
                           source=SyntheticSource(seed=3), frames=6)
        service.add_stream("faulty", config=config(engine="arm"),
                           source=faulty_source, frames=50)
        service.start()
        report = service.wait()

        # the fault surfaced, attributed to its stream
        assert "faulty" in report.errors
        assert "VideoError" in report.errors["faulty"]
        assert "dropped" in report.errors["faulty"]
        assert report.scheduler["faulty"]["outcome"] == "errored"
        assert report.events["counts"]["error"] == 1

        # the faulting stream released everything: leases balance,
        # admission is empty, its source is closed
        assert report.pool["granted"] == report.pool["released"]
        assert report.pool["outstanding"] == 0
        assert report.admission["in_flight"] == 0
        assert faulty_source.closed

        # its ledger reconciles: both good frames were offered, and
        # every admitted frame is finalized or errored
        faulty = report.ledger["streams"]["faulty"]
        assert faulty["offered"] == 2
        assert faulty["admitted"] == \
            faulty["finalized"] + faulty["errored"]
        assert report.ledger["balanced"]

        # the healthy tenant is bitwise-undisturbed
        assert report.scheduler["healthy"]["outcome"] == "completed"
        assert_bitwise_parity(solo_results({}, 3, 6),
                              report.streams["healthy"].records,
                              label="healthy")

    def test_nan_tenant_retires_alone(self, assert_bitwise_parity):
        """A tenant whose frame holds a NaN retires with an error event
        naming it; the other tenant stays bitwise-identical to a solo
        run and the ledger still balances."""
        class _NanAtTwo(FrameSource):
            def frames(self):
                for i in range(6):
                    thermal = np.full((24, 32), 200.0 - i)
                    if i == 2:
                        thermal[0, 0] = np.nan
                    yield FramePair(visible=np.full((24, 32), 10.0 + i),
                                    thermal=thermal, index=i)

        service = FusionService(pool={"neon": 1, "arm": 1}, live=True)
        service.add_stream("healthy", config=config(),
                           source=SyntheticSource(seed=3), frames=6)
        service.add_stream("bad", config=config(engine="arm"),
                           source=_NanAtTwo(), frames=6)
        service.start()
        report = service.wait()

        assert report.scheduler["bad"]["outcome"] == "errored"
        assert report.errors["bad"].startswith(
            "FusionError: stream 'bad': frame 2, source 'thermal': 1 NaN")
        errors = service.events.events("error")
        assert [event.stream for event in errors] == ["bad"]
        assert "stream 'bad'" in errors[0].data["error"]
        bad = report.ledger["streams"]["bad"]
        assert bad["offered"] == 2  # the NaN frame never became one
        assert bad["admitted"] == bad["finalized"] + bad["errored"]
        assert report.ledger["balanced"]
        assert report.scheduler["healthy"]["outcome"] == "completed"
        assert_bitwise_parity(solo_results({}, 3, 6),
                              report.streams["healthy"].records,
                              label="healthy")

    def test_faulty_stream_error_does_not_raise_from_wait(self):
        service = FusionService(pool={"neon": 1}, live=True)
        service.add_stream("faulty", config=config(),
                           source=LossyCableSource(fail_at=0), frames=5)
        service.start()
        report = service.wait()  # must not raise: live errors isolate
        assert set(report.errors) == {"faulty"}
        assert report.streams["faulty"].frames == 0


# ----------------------------------------------------------------------
class TestShedding:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError, match="high_watermark"):
            ShedPolicy(high_watermark=1.5)
        with pytest.raises(ConfigurationError, match="low_watermark"):
            ShedPolicy(high_watermark=0.5, low_watermark=0.5)
        with pytest.raises(ConfigurationError, match="max_shed_fraction"):
            ShedPolicy(max_shed_fraction=0.0)

    def test_hysteresis_band(self):
        shedder = Shedder(ShedPolicy(high_watermark=1.0,
                                     low_watermark=0.5), max_in_flight=8)
        assert not shedder.update(7)     # below high: stays off
        assert shedder.update(8)         # engages at the watermark
        assert shedder.update(5)         # inside the band: stays on
        assert not shedder.update(4)     # at low: disengages
        assert shedder.engagements == 1

    def test_only_lowest_class_present_sheds(self):
        shedder = Shedder(ShedPolicy(), max_in_flight=4)
        # engaged (in_flight at the watermark); critical rank 0 vs
        # background rank 2 present
        assert not shedder.should_shed("crit", rank=0, lowest_rank=2,
                                       offered=10, shed=0, in_flight=4)
        assert shedder.should_shed("bg", rank=2, lowest_rank=2,
                                   offered=10, shed=0, in_flight=4)

    def test_shed_fraction_bound_blocks_past_the_limit(self):
        shedder = Shedder(ShedPolicy(max_shed_fraction=0.5),
                          max_in_flight=4)
        assert shedder.should_shed("bg", rank=2, lowest_rank=2,
                                   offered=10, shed=4, in_flight=4)
        # (6+1) > 0.5*(12+1): past the bound the stream must block
        assert not shedder.should_shed("bg", rank=2, lowest_rank=2,
                                       offered=12, shed=6, in_flight=4)

    def test_overload_sheds_background_never_critical(self):
        """Synthetic overload: a starved budget with one worker; only
        the background class sheds frames, whole, ledgered."""
        service = FusionService(
            pool={"neon": 1}, max_in_flight=2, stream_queue_depth=1,
            workers=1,
            shedding=ShedPolicy(high_watermark=1.0, low_watermark=0.0,
                                max_shed_fraction=0.8))
        service.add_stream("critical", config=config(),
                           source=SyntheticSource(seed=1), frames=6,
                           slo=StreamSLO(priority_class="critical"))
        for index in range(2):
            service.add_stream(f"bg-{index}", config=config(),
                               source=SyntheticSource(seed=2 + index),
                               frames=12,
                               slo=StreamSLO(
                                   priority_class="background"))
        report = service.serve()
        totals = report.ledger["totals"]
        assert report.ledger["balanced"]
        assert totals["shed"] > 0
        assert totals["offered"] == totals["admitted"] + totals["shed"]
        # whole frames only: finalized + shed for each background
        # stream covers every offered frame
        for name in ("bg-0", "bg-1"):
            entry = report.ledger["streams"][name]
            assert entry["offered"] \
                == entry["finalized"] + entry["shed"]
        # the critical tenant never lost a frame
        assert report.streams["critical"].throughput["shed"] == 0
        assert report.streams["critical"].frames == 6
        assert report.shedding["shed_total"] == totals["shed"]
        assert report.shedding["engagements"] >= 1
        assert report.events["counts"]["shed"] == totals["shed"]


# ----------------------------------------------------------------------
class TestServiceReportJson:
    """Satellite: ServiceReport.as_dict() is json.dumps-able with
    stable keys, SLO/shedding/metrics snapshots included."""

    TOP_KEYS = {
        "frames_total", "wall_seconds", "aggregate_fps",
        "energy_mj_total", "energy_mj_by_stream", "engine_occupancy",
        "pool", "admission", "scheduler", "cancelled", "ledger",
        "slo", "shedding", "metrics", "events", "errors", "streams",
    }

    @pytest.fixture(scope="class")
    def report(self):
        service = FusionService(
            pool={"neon": 1}, max_in_flight=2, stream_queue_depth=1,
            shedding=ShedPolicy(high_watermark=1.0, low_watermark=0.0))
        service.add_stream("slo-cam", config=config(),
                           source=SyntheticSource(seed=1), frames=4,
                           slo=StreamSLO(target_fps=2.0,
                                         priority_class="critical"))
        service.add_stream("bg-cam", config=config(),
                           source=SyntheticSource(seed=2), frames=4,
                           slo=StreamSLO(priority_class="background"))
        return service.serve()

    def test_round_trips_through_json(self, report):
        payload = report.as_dict()
        parsed = json.loads(json.dumps(payload))
        assert set(parsed) == self.TOP_KEYS
        # the accounting sections survive the round trip verbatim
        assert parsed["ledger"] == payload["ledger"]
        assert parsed["slo"] == payload["slo"]
        assert parsed["shedding"] == payload["shedding"]
        assert parsed["events"] == payload["events"]
        assert parsed["errors"] == {}

    def test_sections_carry_the_ops_state(self, report):
        payload = report.as_dict()
        assert payload["ledger"]["balanced"] is True
        assert payload["slo"]["headroom"] == 1.0
        assert payload["slo"]["committed"] == {}
        assert payload["shedding"]["policy"]["high_watermark"] == 1.0
        assert payload["metrics"][
            "repro_serve_streams_attached_total"]["series"]["{}"] == 2
        assert payload["events"]["counts"]["attach"] == 2
        assert set(payload["streams"]) == {"slo-cam", "bg-cam"}

    def test_describe_reports_the_ledger_line(self, report):
        text = report.describe()
        assert "frame ledger" in text
        assert "balanced" in text
