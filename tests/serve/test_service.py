"""FusionService: N-stream parity, admission, leases, energy accounting."""

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, FusionError
from repro.serve import EnginePool, FusionService
from repro.session import (
    FramePair,
    FrameSource,
    FusionConfig,
    FusionSession,
    SyntheticSource,
)
from repro.types import FrameShape

SMALL = FrameShape(32, 24)
MID = FrameShape(40, 40)

#: the paper-shaped shared inventory the acceptance workload runs on
POOL = {"arm": 1, "neon": 1, "fpga": 2}


def config(**overrides):
    defaults = dict(engine="neon", fusion_shape=MID, levels=2, seed=5,
                    quality_metrics=False)
    defaults.update(overrides)
    return FusionConfig(**defaults)


#: the 4-stream mixed workload from the issue's acceptance criteria:
#: two small-frame batch streams, one temporal, one registration
MIXED_WORKLOAD = (
    ("batch-a", dict(engine="neon", executor="batch", batch_size=4,
                     fusion_shape=SMALL), 11),
    ("batch-b", dict(engine="fpga", executor="batch", batch_size=4,
                     fusion_shape=SMALL), 12),
    ("temporal", dict(engine="arm", temporal=True), 13),
    ("registration", dict(engine="fpga", registration=True), 14),
)


def mixed_service(frames=6, **service_kwargs):
    kwargs = dict(pool=POOL, max_in_flight=8, stream_queue_depth=4)
    kwargs.update(service_kwargs)
    service = FusionService(**kwargs)
    for name, overrides, seed in MIXED_WORKLOAD:
        service.add_stream(name, config=config(**overrides),
                           source=SyntheticSource(seed=seed),
                           frames=frames)
    return service


def solo_results(overrides, seed, frames=6):
    """The golden reference: the same stream run alone."""
    with FusionSession(config(**overrides)) as session:
        return list(session.stream(SyntheticSource(seed=seed),
                                   limit=frames))


class _ClosableSource(FrameSource):
    def __init__(self, n=100, fail_at=None, shape=(40, 40)):
        self.n = n
        self.fail_at = fail_at
        self.shape = shape
        self.closed = False

    def frames(self):
        for i in range(self.n):
            if self.fail_at is not None and i >= self.fail_at:
                raise RuntimeError("sensor died")
            yield FramePair(visible=np.full(self.shape, 10.0 + i),
                            thermal=np.full(self.shape, 200.0 - i),
                            timestamp_s=i / 25.0, index=i)

    def close(self):
        self.closed = True


# ----------------------------------------------------------------------
class _NanSource(FrameSource):
    """Finite pairs, except one NaN thermal pixel from ``nan_at`` on."""

    def __init__(self, nan_at, n=6, shape=(40, 40)):
        self.nan_at = nan_at
        self.n = n
        self.shape = shape

    def frames(self):
        for i in range(self.n):
            thermal = np.full(self.shape, 200.0 - i)
            if i >= self.nan_at:
                thermal[3, 4] = np.nan
            yield FramePair(visible=np.full(self.shape, 10.0 + i),
                            thermal=thermal, timestamp_s=i / 25.0,
                            index=i)


class TestServeParity:
    """The determinism contract: fixed seed + any worker count =>
    each stream is bitwise-identical to running it alone."""

    def test_mixed_workload_matches_solo_runs(self, assert_bitwise_parity):
        report = mixed_service(frames=6).serve()
        for name, overrides, seed in MIXED_WORKLOAD:
            assert_bitwise_parity(solo_results(overrides, seed, 6),
                                  report.streams[name].records,
                                  label=name)
            assert report.streams[name].frames == 6

    @pytest.mark.parametrize("workers", [1, 2, 6])
    def test_any_worker_count_same_bits(self, workers,
                                        assert_bitwise_parity):
        report = mixed_service(frames=4, workers=workers).serve()
        for name, overrides, seed in MIXED_WORKLOAD:
            assert_bitwise_parity(solo_results(overrides, seed, 4),
                                  report.streams[name].records,
                                  label=f"{name}@workers={workers}")

    def test_online_scheduler_stream_served_deterministically(
            self, assert_bitwise_parity):
        overrides = dict(engine="online")
        service = FusionService(pool=POOL)
        service.add_stream("online", config=config(**overrides),
                           source=SyntheticSource(seed=21), frames=6)
        report = service.serve()
        assert_bitwise_parity(solo_results(overrides, 21, 6),
                              report.streams["online"].records)
        # the probe phase visited several engines; all were leasable
        assert len(report.streams["online"].engine_usage) >= 2

    def test_frame_cost_modelled_once_per_engine(self, monkeypatch,
                                                 assert_bitwise_parity):
        """A tenant evaluates the frame cost model once per engine it
        runs on, not once per frame, with unchanged modelled costs."""
        from repro.hw import engine as engine_module
        calls = []
        live = engine_module.Engine._frame_time

        def counted(engine, shape, levels, sources):
            calls.append(engine.name)
            return live(engine, shape, levels, sources)

        overrides = dict(engine="online")
        reference = solo_results(overrides, 21, 8)
        # start from an empty cost-model memo so this tenant's own
        # evaluations are the ones counted
        monkeypatch.setattr(engine_module, "_MODEL_MEMO", {})
        monkeypatch.setattr(engine_module.Engine, "_frame_time", counted)
        service = FusionService(pool=POOL)
        service.add_stream("online", config=config(**overrides),
                           source=SyntheticSource(seed=21), frames=8)
        report = service.serve()
        assert_bitwise_parity(reference, report.streams["online"].records)
        used = report.streams["online"].engine_usage
        assert sorted(calls) == sorted(used)

    def test_per_frame_cadence_forced_with_batch_frames_one(
            self, assert_bitwise_parity):
        service = FusionService(pool={"neon": 1})
        service.add_stream("lowlat", config=config(),
                           source=SyntheticSource(seed=9), frames=5,
                           batch_frames=1)
        report = service.serve()
        assert report.streams["lowlat"].throughput["batch_frames"] == 1
        assert report.streams["lowlat"].throughput["grants"] == 5
        assert_bitwise_parity(solo_results({}, 9, 5),
                              report.streams["lowlat"].records)

    def test_session_serve_interop_matches_run(self, assert_bitwise_parity):
        with FusionSession(config(engine="adaptive", seed=7)) as session:
            reference = session.run(4, source=SyntheticSource(seed=7))
        with FusionSession(config(engine="adaptive", seed=7)) as session:
            served = session.serve(source=SyntheticSource(seed=7),
                                   frames=4)
        assert_bitwise_parity(reference.records, served.records)
        assert served.throughput["executor"] == "serve"


# ----------------------------------------------------------------------
class TestAdmissionBackpressure:
    def test_queue_and_in_flight_bounds_hold(self):
        report = mixed_service(frames=6, max_in_flight=5,
                               stream_queue_depth=2).serve()
        admission = report.admission
        assert admission["peak_in_flight"] <= 5
        for name, peak in admission["peak_queued"].items():
            assert peak <= 2, name
        for name, _, _ in MIXED_WORKLOAD:
            assert report.streams[name].frames == 6

    def test_tight_budget_still_completes(self):
        report = mixed_service(frames=3, max_in_flight=1,
                               stream_queue_depth=1).serve()
        assert report.frames_total == 12
        assert report.admission["peak_in_flight"] == 1

    def test_batch_grants_clamped_to_admission_bounds(self):
        service = FusionService(pool={"neon": 1}, max_in_flight=2,
                                stream_queue_depth=2)
        service.add_stream("s", config=config(executor="batch",
                                              batch_size=16),
                           source=SyntheticSource(seed=3), frames=6)
        report = service.serve()
        # a 16-frame micro-batch cannot accumulate behind a 2-frame
        # budget; the grant size is clamped instead of deadlocking
        assert report.streams["s"].throughput["batch_frames"] == 2
        assert report.streams["s"].frames == 6

    def test_invalid_service_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            FusionService(pool=POOL, max_in_flight=0)
        with pytest.raises(ConfigurationError):
            FusionService(pool=POOL, stream_queue_depth=0)
        with pytest.raises(ConfigurationError):
            FusionService(pool=POOL, workers=0)


# ----------------------------------------------------------------------
class TestLeaseAccounting:
    """Every lease is released — success, error and cancel paths."""

    def assert_balanced(self, pool_stats):
        assert pool_stats["granted"] == pool_stats["released"]
        assert pool_stats["outstanding"] == 0

    def test_released_on_success(self):
        report = mixed_service(frames=4).serve()
        self.assert_balanced(report.pool)
        assert report.pool["granted"] > 0
        # occupancy derives from lease hold times
        assert set(report.engine_occupancy) == {"arm[0]", "neon[0]",
                                                "fpga[0]", "fpga[1]"}
        assert all(0.0 <= frac <= 1.0
                   for frac in report.engine_occupancy.values())

    def test_released_on_source_error(self):
        before = threading.active_count()
        pool = EnginePool(POOL)
        service = FusionService(pool=pool)
        service.add_stream("ok", config=config(),
                           source=SyntheticSource(seed=1), frames=50)
        service.add_stream("bad", config=config(engine="fpga"),
                           source=_ClosableSource(fail_at=2), frames=50)
        with pytest.raises(RuntimeError, match="sensor died"):
            service.serve()
        self.assert_balanced(pool.stats())
        assert threading.active_count() == before

    def test_released_on_stage_error(self):
        class _Bad3D(FrameSource):
            def frames(self):
                yield FramePair(visible=np.zeros((8, 8, 3)),
                                thermal=np.zeros((8, 8)))

        before = threading.active_count()
        pool = EnginePool({"neon": 1})
        service = FusionService(pool=pool)
        service.add_stream("bad", config=config(), source=_Bad3D())
        with pytest.raises(ConfigurationError, match="2-D"):
            service.serve()
        self.assert_balanced(pool.stats())
        assert threading.active_count() == before

    def test_bad_frame_error_names_the_stream(self):
        """A tenant's non-finite frame aborts a non-live serve() with
        the ingest error's own class, prefixed with the stream name."""
        pool = EnginePool({"neon": 1})
        service = FusionService(pool=pool)
        service.add_stream("bad", config=config(),
                           source=_NanSource(nan_at=2), frames=5)
        with pytest.raises(FusionError,
                           match=r"^stream 'bad': frame 2, source "
                                 r"'thermal': 1 NaN"):
            service.serve()
        self.assert_balanced(pool.stats())

    def test_released_on_early_cancel(self):
        before = threading.active_count()
        pool = EnginePool(POOL)
        service = mixed_service(frames=None, pool=pool)  # unbounded
        service.start()
        deadline = time.perf_counter() + 10.0
        while (sum(st.finalized for st in service._streams.values()) < 4
               and time.perf_counter() < deadline):
            time.sleep(0.01)
        service.cancel()
        report = service.wait()
        assert report.cancelled
        assert report.frames_total >= 4
        self.assert_balanced(pool.stats())
        assert threading.active_count() == before

    def test_context_manager_close_cancels_and_joins(self):
        before = threading.active_count()
        pool = EnginePool(POOL)
        with mixed_service(frames=None, pool=pool) as service:
            service.start()
            time.sleep(0.05)
        self.assert_balanced(pool.stats())
        assert threading.active_count() == before

    def test_closing_a_source_mid_serve_raises(self):
        source = _ClosableSource(n=10_000)
        pool = EnginePool({"neon": 1})
        service = FusionService(pool=pool)
        service.add_stream("s", config=config(), source=source)
        service.start()
        time.sleep(0.05)
        source.close()
        with pytest.raises(FusionError, match="closed"):
            service.wait()
        self.assert_balanced(pool.stats())


# ----------------------------------------------------------------------
class TestServiceReport:
    def test_aggregate_energy_equals_per_stream_sums(self):
        report = mixed_service(frames=5).serve()
        by_stream = report.energy_mj_by_stream
        assert set(by_stream) == {name for name, _, _ in MIXED_WORKLOAD}
        assert report.energy_mj_total == pytest.approx(
            sum(by_stream.values()))
        for name, _, _ in MIXED_WORKLOAD:
            assert by_stream[name] == pytest.approx(
                report.streams[name].model_millijoules_total)
            assert by_stream[name] > 0

    def test_per_stream_reports_match_solo_accounting(self):
        report = mixed_service(frames=5).serve()
        for name, overrides, seed in MIXED_WORKLOAD:
            with FusionSession(config(**overrides)) as session:
                solo = session.run(5, source=SyntheticSource(seed=seed))
            served = report.streams[name]
            assert served.model_millijoules_total == pytest.approx(
                solo.model_millijoules_total)
            assert served.engine_usage == solo.engine_usage
            assert served.actions == solo.actions

    def test_report_shapes_and_json(self):
        report = mixed_service(frames=4).serve()
        assert report.frames_total == 16
        assert report.aggregate_fps > 0
        as_dict = report.as_dict()
        assert set(as_dict["streams"]) == set(report.streams)
        assert as_dict["pool"]["granted"] == as_dict["pool"]["released"]
        import json
        json.dumps(as_dict)  # must be JSON-clean for the CLI/bench
        text = report.describe()
        assert "engine occupancy" in text
        for name, _, _ in MIXED_WORKLOAD:
            assert name in text

    def test_energy_fair_scheduling_charges_by_plan_cost(self):
        report = mixed_service(frames=4).serve()
        for name, _, _ in MIXED_WORKLOAD:
            entry = report.scheduler[name]
            assert entry["dispatched"] == 4
            assert entry["est_mj_per_frame"] > 0
            assert entry["charged_mj"] == pytest.approx(
                4 * entry["est_mj_per_frame"])

    #: per-frame pricing of three 88x72 streams, recorded (as
    #: ``float.hex``) before the service read its engines from the plan
    PRICING = {
        "fixed": (dict(engine="neon"),
                  {"neon": "0x1.3eac2ef47497ap-3"}, "0x1.4bbe3ee17b5fep+6"),
        "adaptive": (dict(engine="adaptive"),
                     {"fpga": "0x1.678744b40522ap-4"},
                     "0x1.83c1c9ff5abd2p+5"),
        "forced": (dict(engine="neon", graph_overrides={
                       "place": {"visible": "fpga"}}),
                   {"fpga": "0x1.49a2f67eb4333p-6",
                    "neon": "0x1.d6a3419d06df4p-4"},
                   "0x1.21690ef557188p+6"),
    }

    @pytest.mark.parametrize("label", list(PRICING))
    def test_attach_prices_on_the_sessions_engines(self, label,
                                                   built_engines):
        overrides, seconds_by, mj = self.PRICING[label]
        config = FusionConfig(**overrides)
        built_engines.clear()
        FusionSession(config).close()
        session_builds = len(built_engines)
        with FusionService(pool=POOL) as service:
            built_engines.clear()
            service.attach(label, config=config,
                           source=SyntheticSource(seed=1), frames=1)
            assert len(built_engines) == session_builds
            stream = service._streams[label]
            assert {name: seconds.hex() for name, seconds
                    in stream.seconds_by_engine.items()} == seconds_by
            assert stream.est_mj_per_frame.hex() == mj

    def test_on_result_callback_sees_frames_in_order(self):
        seen = []
        service = FusionService(pool={"neon": 1})
        service.add_stream("s", config=config(),
                           source=SyntheticSource(seed=4), frames=5,
                           on_result=lambda r: seen.append(r.index))
        service.serve()
        assert seen == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
class TestServiceValidation:
    def test_workers_default_is_pool_size_capped_at_cpus(self,
                                                         monkeypatch):
        """Without ``workers=``, one thread per engine instance, but
        never more threads than CPUs; an explicit count is kept."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert FusionService(pool={"arm": 4, "neon": 4}).workers == 2
        assert FusionService(pool={"neon": 1}).workers == 1
        assert FusionService(pool={"arm": 4, "neon": 4},
                             workers=8).workers == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert FusionService(pool={"arm": 4}).workers == 1

    def test_stream_engine_must_be_pooled(self):
        service = FusionService(pool={"neon": 1})
        with pytest.raises(ConfigurationError, match="pool"):
            service.add_stream("s", config=config(engine="fpga"),
                               source=SyntheticSource(seed=1), frames=1)

    def test_online_stream_needs_every_probe_engine(self):
        service = FusionService(pool={"neon": 1, "fpga": 1})
        with pytest.raises(ConfigurationError, match="arm"):
            service.add_stream("s", config=config(engine="online"),
                               source=SyntheticSource(seed=1), frames=1)

    def test_forced_placement_engine_must_be_pooled(self):
        """A stage forced onto an unpooled engine is refused at
        admission, naming the stream and that engine."""
        service = FusionService(pool={"neon": 1})
        forced = config(graph_overrides={"place": {"visible": "fpga"}})
        with pytest.raises(ConfigurationError,
                           match=r"'forced'.*\['fpga'\]"):
            service.add_stream("forced", config=forced,
                               source=SyntheticSource(seed=1), frames=1)
        assert service.stream_names() == []
        service.close()

    def test_source_exhaustion_before_frames_limit(self):
        service = FusionService(pool={"neon": 1})
        service.add_stream("s", config=config(),
                           source=_ClosableSource(n=3), frames=10)
        report = service.serve()
        assert report.streams["s"].frames == 3
