"""The pluggable execution layer: determinism, lifecycle, telemetry."""

import sys
import threading
import time
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    BatchExecutor,
    ExecStats,
    PipelineExecutor,
    SerialExecutor,
    executor_names,
    make_executor,
    register_executor,
)
from repro.exec.base import FrameProcessor
from repro.graph import Planner
from repro.hw.registry import create_engine
from repro.serve import FusionService
from repro.session import (
    FramePair,
    FrameSource,
    FusionConfig,
    FusionSession,
    SyntheticSource,
)
from repro.types import FrameShape
from unfused import unfused_sessions

SMALL = FrameShape(40, 40)
EXECUTORS = ("serial", "pipeline")
#: a mixed placement: the pair's forwards on different engines, the
#: fuse stage on the FPGA (what an explicit engine team used to run)
MIXED_PLACEMENT = {"visible": "fpga", "thermal": "neon", "fuse": "fpga"}
#: both forwards forced onto one engine: they lower to one fused unit
PAIRED_PLACEMENT = {"visible": "fpga", "thermal": "fpga", "fuse": "neon"}


def small_config(**overrides):
    defaults = dict(engine="neon", fusion_shape=SMALL, levels=2, seed=5,
                    quality_metrics=False)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def fuse_stream(executor, n=6, **overrides):
    """Fresh session + fresh seeded source -> list of results."""
    with FusionSession(small_config(executor=executor, **overrides)) as s:
        return list(s.stream(SyntheticSource(seed=5), limit=n))


# ----------------------------------------------------------------------
class TestExecutorRegistry:
    def test_builtin_names(self):
        assert set(executor_names()) >= set(EXECUTORS)

    def test_make_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_executor("serial", SerialExecutor)

    def test_replace_allows_override_and_restore(self):
        register_executor("serial", PipelineExecutor, replace=True)
        try:
            assert isinstance(make_executor("serial"), PipelineExecutor)
        finally:
            register_executor("serial", SerialExecutor, replace=True)

    def test_factories_build_named_executors(self):
        for name, cls in (("serial", SerialExecutor),
                          ("pipeline", PipelineExecutor),
                          ("batch", BatchExecutor)):
            executor = make_executor(name, workers=2, queue_depth=3)
            assert isinstance(executor, cls)
            assert executor.stats.executor == name

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executors_are_one_shot(self, executor):
        """A second run() on a spent instance raises loudly instead of
        silently yielding wrong (empty/truncated) results."""
        instance = make_executor(executor, workers=2, queue_depth=2)
        first = list(instance.run(_SleepyProcessor(), iter(range(3)),
                                  limit=3))
        assert first == [0, 1, 2]
        with pytest.raises(ConfigurationError, match="one"):
            instance.run(_SleepyProcessor(), iter(range(3)), limit=3)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(executor="warp"),
        dict(workers=0),
        dict(queue_depth=0),
        dict(batch_size=0),
        # placement maps one stage to one engine name
        dict(graph_overrides={"place": "fpga"}),
        dict(graph_overrides={"place": {"visible": 3}}),
        dict(graph_overrides={"place": {"fuse": ("fpga", "neon")}}),
        dict(graph_overrides={"team": ("fpga", "neon")}),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            small_config(**bad)

    def test_mutated_config_conflicts_raise_fusion_error(self):
        """Field validation runs at construction; combinations a
        mutated config smuggles past it fail loudly at drive time with
        a FusionError naming both knobs, not deep in an executor."""
        from repro.errors import FusionError
        with FusionSession(small_config(executor="batch")) as s:
            s.config.batch_size = 0
            with pytest.raises(FusionError, match="batch_size"):
                s.run(1)
        with FusionSession(small_config()) as s:
            s.config.workers = 0
            with pytest.raises(FusionError, match="workers"):
                s.run(1, executor="pipeline")
        with FusionSession(small_config()) as s:
            s.config.queue_depth = 0
            with pytest.raises(FusionError, match="queue_depth"):
                s.run(1, executor="pipeline")
            # the serial path needs neither knob and still runs
            assert s.run(1).frames == 1


# ----------------------------------------------------------------------
class TestDeterminism:
    """Fixed seed => every executor produces bitwise-identical frames
    and identical modelled accounting (the paper's numbers must not
    depend on how the dataflow is scheduled)."""

    @pytest.mark.parametrize("features", [
        {},
        dict(engine="online"),
        dict(engine="adaptive"),
        dict(temporal=True),
        dict(registration=True, monitor=True),
    ])
    def test_concurrent_matches_serial(self, features,
                                       assert_bitwise_parity):
        reference = fuse_stream("serial", **features)
        results = fuse_stream("pipeline", **features)
        assert_bitwise_parity(reference, results, label="pipeline")

    def test_reports_aggregate_identically(self):
        reports = {}
        for executor in EXECUTORS:
            with FusionSession(small_config(executor=executor,
                                            quality_metrics=True)) as s:
                reports[executor] = s.run(5).as_dict()
        ref, got = reports["serial"], reports["pipeline"]
        # modelled quantities and quality are exactly equal; only the
        # measured wall-clock blocks may differ
        for key in ("frames", "engine_usage", "actions", "model_fps",
                    "millijoules_per_frame", "quality"):
            assert got[key] == ref[key], key

    def test_two_runs_continue_shared_source_identically(self):
        """A bounded concurrent drive must not read ahead of its limit
        on the session's persistent capture chain."""
        frames = {}
        for executor in EXECUTORS:
            with FusionSession(small_config(executor=executor)) as s:
                reports = [s.run(3), s.run(3)]
            frames[executor] = [rec.frame.pixels
                                for r in reports for rec in r.records]
            assert [rec.index for r in reports for rec in r.records] \
                == list(range(6))
        assert all(np.array_equal(a, b) for a, b
                   in zip(frames["serial"], frames["pipeline"]))

    def test_run_accepts_per_call_executor_override(self):
        """run(executor=...) drives one batch with another strategy
        without touching the config — and still matches bitwise."""
        frames = {}
        for executor in EXECUTORS:
            with FusionSession(small_config()) as s:
                assert s.config.executor == "serial"
                report = s.run(4, executor=executor)
            assert report.throughput["executor"] == executor
            frames[executor] = [rec.frame.pixels for rec in report.records]
        assert all(np.array_equal(a, b) for a, b
                   in zip(frames["serial"], frames["pipeline"]))
        with FusionSession(small_config()) as s:
            with pytest.raises(ConfigurationError):
                s.run(1, executor="warp")

    def test_per_call_executor_override_drives_the_standing_plan(self):
        """A pipeline override of a serial config drives the session's
        standing plan, lowered once: the pool computes its whole-core
        unit, and nothing is lowered again for the override."""
        with FusionSession(small_config()) as s:
            with mock.patch.object(Planner, "lower",
                                   side_effect=AssertionError("lowered")):
                report = s.run(2, executor="pipeline")
        walls = report.throughput["stage_wall_s"]
        assert "visible+thermal+fuse" in walls
        assert "visible+thermal" not in walls

    def test_mixed_team_attributes_stages(self):
        """A mixed placement bills each modelled stage's time *and
        energy* to the engine it is placed on, and metadata["stages"]
        names those engines; unplaced frames carry no per-stage map."""
        power = small_config().power_model
        results = fuse_stream("serial",
                              graph_overrides={"place": MIXED_PLACEMENT})
        fpga, neon = create_engine("fpga"), create_engine("neon")
        stage_s = {
            "visible": (fpga, fpga.forward_time(SMALL, 2).total_s),
            "thermal": (neon, neon.forward_time(SMALL, 2).total_s),
            "fuse": (fpga, fpga.fusion_time(SMALL, 2).total_s
                     + fpga.inverse_time(SMALL, 2).total_s),
        }
        want_mj = sum(seconds * power.power_w(engine.power_mode) * 1e3
                      for engine, seconds in stage_s.values())
        for result in results:
            assert result.frame.metadata["stages"] == MIXED_PLACEMENT
            assert result.model_millijoules == pytest.approx(want_mj,
                                                             rel=1e-12)
        plain = fuse_stream("serial")
        assert "stages" not in plain[0].frame.metadata

    @pytest.mark.parametrize("unfused", (False, True))
    @pytest.mark.parametrize("executor", executor_names())
    def test_mixed_placement_matches_serial(self, executor, unfused):
        """Every executor, on the lowered plan or the unfused
        reference, reproduces the serial drive of a mixed placement
        bit for bit — pixels, modelled time and energy, and the
        per-stage engine map.  The second placement forces both
        forwards onto one engine, so they lower to one fused unit."""
        for placement in (MIXED_PLACEMENT, PAIRED_PLACEMENT):
            overrides = dict(graph_overrides={"place": placement},
                             batch_size=4)
            reference = fuse_stream("serial", **overrides)
            with unfused_sessions() if unfused else nullcontext():
                results = fuse_stream(executor, **overrides)
            assert len(results) == len(reference)
            for ref, got in zip(reference, results):
                assert np.array_equal(ref.frame.pixels, got.frame.pixels)
                assert got.model_seconds == ref.model_seconds
                assert got.model_millijoules == ref.model_millijoules
                assert got.frame.metadata["stages"] \
                    == ref.frame.metadata["stages"] == placement


# ----------------------------------------------------------------------
class _ClosableSource(FrameSource):
    def __init__(self, n=100, fail_at=None):
        self.n = n
        self.fail_at = fail_at
        self.closed = False

    def frames(self):
        for i in range(self.n):
            if self.fail_at is not None and i >= self.fail_at:
                raise RuntimeError("sensor died")
            yield FramePair(visible=np.full((40, 40), 10.0 + i),
                            thermal=np.full((40, 40), 200.0 - i),
                            timestamp_s=i / 25.0, index=i)

    def close(self):
        self.closed = True


class TestLifecycle:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_worker_threads_join_after_stream(self, executor):
        before = threading.active_count()
        fuse_stream(executor, n=4)
        assert threading.active_count() == before

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_source_closed_on_normal_exit(self, executor):
        source = _ClosableSource(n=3)
        with FusionSession(small_config(executor=executor)) as s:
            results = list(s.stream(source))
        assert len(results) == 3
        assert source.closed

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_source_closed_and_threads_joined_on_error(self, executor):
        before = threading.active_count()
        source = _ClosableSource(fail_at=2)
        session = FusionSession(small_config(executor=executor))
        with pytest.raises(RuntimeError, match="sensor died"):
            list(session.stream(source))
        assert source.closed
        assert threading.active_count() == before

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_early_limit_exit_cleans_up(self, executor):
        before = threading.active_count()
        source = _ClosableSource(n=100)
        with FusionSession(small_config(executor=executor)) as s:
            results = list(s.stream(source, limit=2))
        assert len(results) == 2
        assert source.closed
        assert threading.active_count() == before

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_abandoned_stream_cleans_up(self, executor):
        """The consumer walking away mid-stream must join workers."""
        before = threading.active_count()
        source = _ClosableSource(n=100)
        with FusionSession(small_config(executor=executor)) as s:
            for i, _ in enumerate(s.stream(source)):
                if i >= 1:
                    break
        assert source.closed
        assert threading.active_count() == before

    @pytest.mark.parametrize("executor", ("pipeline",))
    def test_source_closed_mid_stream_raises_not_deadlocks(self, executor):
        """Regression: closing a source while a concurrent executor is
        still capturing from it used to leave the capture thread
        pulling from a dead source against the bounded queues; it must
        surface as a FusionError on the consumer instead."""
        from repro.errors import FusionError
        before = threading.active_count()
        source = _ClosableSource(n=10_000)
        session = FusionSession(small_config(executor=executor))
        stream = session.stream(source)
        next(stream)
        source.close()  # mid-iteration: the drive is still running
        with pytest.raises(FusionError, match="closed"):
            for _ in stream:
                pass
        assert threading.active_count() == before

    @pytest.mark.parametrize("executor", ("serial", "batch"))
    def test_source_closed_mid_stream_raises_inline_executors(self,
                                                              executor):
        """The inline executors hit the same guard on their next pull."""
        from repro.errors import FusionError
        source = _ClosableSource(n=10_000)
        with FusionSession(small_config(executor=executor,
                                        batch_size=2)) as s:
            stream = s.stream(source)
            next(stream)
            source.close()
            with pytest.raises(FusionError, match="closed"):
                for _ in stream:
                    pass

    def test_plain_generator_is_closed_with_its_stream(self):
        """Documented ownership: a bare generator belongs to the
        stream that consumed it, even on a clean limit exit."""
        cleaned = []

        def pairs():
            try:
                for i in range(10):
                    yield (np.full((40, 40), float(i)),
                           np.full((40, 40), float(i)))
            finally:
                cleaned.append(True)

        with FusionSession(small_config()) as s:
            assert len(list(s.stream(pairs(), limit=2))) == 2
        assert cleaned == [True]

    def test_executors_receive_a_true_iterator(self):
        """The session hands executors a real Iterator (next() works,
        repeated islice continues instead of restarting the source) —
        the documented Executor.run contract an out-of-tree executor
        may rely on — that still advertises the source's closed flag."""
        import itertools

        from repro.exec import SerialExecutor, register_executor

        seen = {}

        class _ProbeExecutor(SerialExecutor):
            def run(self, processor, pairs, limit=None):
                seen["has_next"] = hasattr(pairs, "__next__")
                seen["closed"] = getattr(pairs, "closed", None)
                first = [processor.ingest(p, i) for i, p in
                         enumerate(itertools.islice(pairs, 2))]
                second = [processor.ingest(p, i + 2) for i, p in
                          enumerate(itertools.islice(pairs, 2))]
                for task in first + second:
                    processor.compute([task])
                    self.stats.frames += 1
                    yield processor.finalize(task)

        register_executor("probe", _ProbeExecutor)
        try:
            with FusionSession(small_config()) as s:
                results = list(s.stream(SyntheticSource(seed=5), limit=4,
                                        executor="probe"))
        finally:
            from repro.exec import _REGISTRY
            _REGISTRY.pop("probe", None)
        assert seen["has_next"] is True
        assert seen["closed"] is False
        # islice continued the stream: four distinct frame indices
        assert [r.index for r in results] == [0, 1, 2, 3]

    def test_frame_source_survives_streams(self):
        """FrameSource close defaults to a no-op, so the built-in
        sources remain reusable across bounded streams."""
        source = SyntheticSource(seed=5)
        with FusionSession(small_config()) as s:
            first = list(s.stream(source, limit=2))
            second = list(s.stream(source, limit=2))
        assert [r.index for r in first + second] == [0, 1, 2, 3]

    def test_source_closed_when_executor_construction_fails(self):
        source = _ClosableSource(n=3)
        session = FusionSession(small_config())
        with pytest.raises(ConfigurationError):
            list(session.stream(source, executor="warp"))
        assert source.closed

    def test_zero_frame_run_reports_zero_throughput(self):
        """A batch report never carries the previous batch's
        wall-clock numbers."""
        with FusionSession(small_config()) as s:
            first = s.run(3, source=_ClosableSource(n=3))
            assert first.throughput["frames"] == 3
            exhausted = _ClosableSource(n=0)
            with pytest.warns(RuntimeWarning, match="exhausted"):
                second = s.run(5, source=exhausted)
        assert second.frames == 0
        assert second.throughput["frames"] == 0
        assert second.wall_fps == 0.0

    def test_session_is_a_context_manager(self):
        session = FusionSession(small_config())
        with session as s:
            assert s is session
            s.run(1)
        session.close()  # idempotent

    def test_process_rejected_during_concurrent_stream(self):
        """process() mutates the same ordered state the capture thread
        is driving; the race is refused, not silently run."""
        vis = np.full((40, 40), 10.0)
        with FusionSession(small_config(executor="pipeline")) as s:
            it = s.stream(_ClosableSource(n=50))
            next(it)
            with pytest.raises(ConfigurationError, match="concurrent"):
                s.process(vis, vis)
            it.close()
            # once the stream is gone, process() works again
            assert s.process(vis, vis).frame.pixels.shape == (40, 40)

    def test_sequential_plan_runs_on_one_pipeline_worker(self):
        """A sequential plan (temporal fusion) gets exactly one pool
        thread whatever ``workers`` says, and that thread computes
        every frame."""
        with FusionSession(small_config(executor="pipeline",
                                        temporal=True, workers=3)) as s:
            assert s.plan.sequential
            report = s.run(5)
        block = report.throughput
        assert block["worker_frames"] == {"exec-compute-0": 5}
        assert [name for name in block["thread_busy_s"]
                if name.startswith("exec-compute-")] == ["exec-compute-0"]
        assert report.frames == 5

    def test_stage_error_propagates_from_worker(self):
        """A failure inside a worker thread surfaces to the caller."""
        class _Bad3D(FrameSource):
            def frames(self):
                yield FramePair(visible=np.zeros((4, 4, 3)),
                                thermal=np.zeros((4, 4)))
        session = FusionSession(small_config(executor="pipeline"))
        with pytest.raises(ConfigurationError, match="2-D"):
            list(session.stream(_Bad3D()))


# ----------------------------------------------------------------------
class TestThroughputTelemetry:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_report_carries_wall_clock_throughput(self, executor):
        with FusionSession(small_config(executor=executor)) as s:
            report = s.run(4)
        block = report.throughput
        assert block["executor"] == executor
        assert block["frames"] == 4
        assert block["wall_fps"] > 0
        assert report.wall_fps == block["wall_fps"]
        assert set(block["unattributed_s"]) == set(block["thread_busy_s"])
        assert 0.0 < max(block["thread_busy_s"].values()) \
            <= block["wall_seconds"]
        assert isinstance(block["queue_peak"], dict)
        assert "throughput" in report.as_dict()

    def test_pipeline_tracks_queue_depths_and_stage_busy(self):
        with FusionSession(small_config(executor="pipeline",
                                        queue_depth=2)) as s:
            report = s.run(5)
            compute = s.plan.compute
        block = report.throughput
        threads = set(block["thread_busy_s"])
        assert {"exec-capture", threading.current_thread().name} <= threads
        assert any(name.startswith("exec-compute-") for name in threads)
        assert {"ingest", *compute, "finalize"} <= set(block["stage_wall_s"])
        assert block["queue_peak"]["order"] <= 2
        # a frame waits in the compute queue only while it is in the
        # order queue or is the one the caller is about to finalize
        assert block["queue_peak"]["compute"] <= 3

    def test_telemetry_gains_wall_latency(self):
        with FusionSession(small_config(executor="pipeline")) as s:
            report = s.run(3)
        assert report.telemetry["wall_latency_mean_ms"] > 0
        assert report.telemetry["wall_latency_p95_ms"] > 0

    def test_exec_stats_shape(self):
        stats = ExecStats(executor="x", frames=10, wall_seconds=2.0,
                          stage_wall_s={"fuse": 1.5},
                          thread_busy_s={"MainThread": 0.5,
                                         "exec-compute-0": 1.0})
        assert stats.wall_fps == 5.0
        as_dict = stats.as_dict()
        assert as_dict["wall_fps"] == 5.0
        assert as_dict["unattributed_s"] == {"MainThread": 1.5,
                                             "exec-compute-0": 1.0}
        for removed in ("stage_busy_s", "stage_occupancy"):
            assert removed not in as_dict


# ----------------------------------------------------------------------
class TestOneStageRecord:
    """The session processor's record is the only stage timer; a
    report's per-stage and per-thread tables are two sums of it."""

    @pytest.mark.parametrize("executor", executor_names())
    def test_stage_and_thread_views_close(self, executor):
        with FusionSession(small_config(executor=executor)) as s:
            block = s.run(6).throughput
        stages, threads = block["stage_wall_s"], block["thread_busy_s"]
        assert {"ingest", "finalize"} <= set(stages)
        assert sum(stages.values()) == pytest.approx(
            sum(threads.values()), rel=1e-9)
        assert set(block["unattributed_s"]) == set(threads)
        for thread, busy in threads.items():
            idle = block["unattributed_s"][thread]
            assert idle >= 0.0
            assert busy + idle == pytest.approx(block["wall_seconds"],
                                                rel=1e-9)
        if executor == "pipeline":
            assert block["worker_frames"]
            assert set(block["worker_frames"]) <= set(threads)

    @pytest.mark.parametrize("executor", executor_names())
    def test_metrics_are_attributed_not_unattributed(self, executor,
                                                     monkeypatch):
        """The stacked quality metrics run in compute under their own
        record key, so their time lands in a thread's busy time and
        the wall budget still closes: a 100 ms ``fusion_report`` shows
        in ``stage_wall_s["metrics"]`` and in the computing threads'
        busy time, and an inline executor's unattributed remainder
        does not grow by it.  The slack is half the injected grading
        time, 0.2 s over four frames: a briefly shared host adds about
        0.1 s of noise, which must not cross it."""
        import repro.session.session as session_module
        report_fn = session_module.fusion_report
        grading_s = 0.1

        def slow_report(*args):
            time.sleep(grading_s)
            return report_fn(*args)

        frames = 4

        def drive(**overrides):
            with FusionSession(small_config(executor=executor,
                                            batch_size=1,
                                            **overrides)) as s:
                block = s.run(frames).throughput
                graders = {thread for stage, thread
                           in s._processor.stage_wall_snapshot()
                           if stage == "metrics"}
            return block, graders

        plain, _ = drive()
        monkeypatch.setattr(session_module, "fusion_report", slow_report)
        block, graders = drive(quality_metrics=True)
        stages, threads = block["stage_wall_s"], block["thread_busy_s"]
        assert "metrics" not in plain["stage_wall_s"]
        assert stages["metrics"] >= grading_s * frames
        assert sum(stages.values()) == pytest.approx(
            sum(threads.values()), rel=1e-9)
        # the threads that graded frames are the ones that compute
        if executor == "pipeline":
            # a pool thread's unattributed time is mostly waiting for
            # its next frame, which follows the other workers' pace;
            # what must hold is that the grading is in their busy time
            assert graders and all(thread.startswith("exec-compute-")
                                   for thread in graders)
            assert sum(threads[thread] for thread in graders) >= \
                stages["metrics"]
            return
        assert graders == {threading.current_thread().name}
        slack = grading_s * frames / 2
        for thread in graders:
            assert block["unattributed_s"][thread] < \
                plain["unattributed_s"].get(thread, 0.0) + slack

    def test_record_under_thread_contention(self):
        """More pool threads than cores and a short switch interval:
        every frame is counted once and lands in the record under the
        thread that computed it."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with FusionSession(small_config(executor="pipeline",
                                            workers=4)) as s:
                block = s.run(12).throughput
        finally:
            sys.setswitchinterval(interval)
        jobs = block["worker_frames"]
        assert sum(jobs.values()) == 12
        assert set(jobs) <= set(block["thread_busy_s"])
        assert sum(block["stage_wall_s"].values()) == pytest.approx(
            sum(block["thread_busy_s"].values()), rel=1e-9)

    @pytest.mark.parametrize("executor", executor_names())
    def test_processor_outside_a_session_gets_empty_tables(self,
                                                           executor):
        with make_executor(executor) as driver:
            list(driver.run(_SleepyProcessor(), iter(range(3)), limit=3))
        block = driver.stats.as_dict()
        assert block["frames"] == 3
        assert block["stage_wall_s"] == {}
        assert block["thread_busy_s"] == {}
        assert block["unattributed_s"] == {}

    def test_serve_stream_report_keys_are_the_plan(self):
        service = FusionService(pool={"neon": 1})
        service.add_stream("a", config=small_config(),
                           source=SyntheticSource(seed=5), frames=4)
        report = service.serve().streams["a"]
        with FusionSession(small_config()) as s:
            plan = s.plan
        assert set(report.throughput["stage_wall_s"]) == {
            "ingest", *plan.compute, "finalize"}

    def test_wall_latency_spans_ingest_and_finalize(self, monkeypatch):
        """``wall_latency_*`` reads ingest -> report: a slow
        normalisation and slow quality metrics both show in it."""
        import repro.session.session as session_module
        report_fn = session_module.fusion_report
        normalize = FusionSession._normalize

        def slow_report(*args, **kwargs):
            time.sleep(0.02)
            return report_fn(*args, **kwargs)

        def slow_normalize(self, *args, **kwargs):
            time.sleep(0.01)
            return normalize(self, *args, **kwargs)

        monkeypatch.setattr(session_module, "fusion_report", slow_report)
        monkeypatch.setattr(FusionSession, "_normalize", slow_normalize)
        with FusionSession(small_config(quality_metrics=True)) as s:
            report = s.run(3)
        # 20 ms of quality metrics plus 2 x 10 ms of normalisation
        assert report.telemetry["wall_latency_mean_ms"] >= 40.0


# ----------------------------------------------------------------------
class _SleepyProcessor(FrameProcessor):
    """Minimal processor whose compute dawdles, so a concurrent
    executor really has work in flight."""

    def ingest(self, pair, index):
        return {"index": index}

    def compute(self, tasks, ctx=None):
        time.sleep(0.01 * len(tasks))

    def finalize(self, task):
        return task["index"]


class _MinimalProcessor(FrameProcessor):
    """Implements only the abstract contract: ingest, compute and
    finalize; ``sequential`` and ``make_contexts`` keep their
    defaults."""

    def __init__(self):
        self.lock = threading.Lock()
        self.computed = {}

    def ingest(self, pair, index):
        return {"pair": pair}

    def compute(self, tasks, ctx=None):
        with self.lock:
            for task in tasks:
                self.computed[task["pair"]] = \
                    self.computed.get(task["pair"], 0) + 1

    def finalize(self, task):
        return task["pair"]


class TestMinimalProcessorContract:
    @pytest.mark.parametrize("name", executor_names())
    def test_results_arrive_in_frame_order(self, name):
        processor = _MinimalProcessor()
        with make_executor(name) as executor:
            results = list(executor.run(processor, iter(range(7)),
                                        limit=7))
        assert results == list(range(7))
        # every frame is computed exactly once
        assert processor.computed == {frame: 1 for frame in range(7)}
