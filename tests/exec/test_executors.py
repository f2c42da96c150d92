"""The pluggable execution layer: determinism, lifecycle, telemetry."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    ExecStats,
    HeterogeneousExecutor,
    PipelineExecutor,
    SerialExecutor,
    executor_names,
    make_executor,
    register_executor,
)
from repro.exec.base import FrameProcessor
from repro.hw.registry import create_engine_pool
from repro.session import (
    FramePair,
    FrameSource,
    FusionConfig,
    FusionSession,
    SyntheticSource,
)
from repro.types import FrameShape

SMALL = FrameShape(40, 40)
EXECUTORS = ("serial", "pipeline", "hetero")


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
                          ("hetero", HeterogeneousExecutor)):
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
        dict(executor="hetero", engine_team=()),
        dict(executor="hetero", engine_team=("neon", "abacus")),
        dict(executor="hetero", engine_team="neon"),
        dict(executor="serial", engine_team=("neon",)),
        # temporal fusion is sequential; a co-scheduled team would be
        # silently bypassed, so the combination is rejected loudly
        dict(executor="hetero", engine_team=("fpga", "neon"),
             temporal=True),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            small_config(**bad)

    def test_engine_team_coerced_to_tuple(self):
        config = small_config(executor="hetero",
                              engine_team=["fpga", "neon"])
        assert config.engine_team == ("fpga", "neon")

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
            with pytest.raises(FusionError, match="workers"):
                list(s.stream(SyntheticSource(seed=5), limit=1,
                              executor="hetero"))
        with FusionSession(small_config()) as s:
            s.config.queue_depth = 0
            with pytest.raises(FusionError, match="queue_depth"):
                s.run(1, executor="pipeline")
            # the serial path needs neither knob and still runs
            assert s.run(1).frames == 1

    def test_per_call_override_conflicts_raise_fusion_error(self):
        from repro.errors import FusionError
        config = small_config(executor="hetero",
                              engine_team=("fpga", "neon"))
        with FusionSession(config) as s:
            # with_overrides drops the team for non-hetero overrides,
            # but a hand-mutated executor field must not slip through
            s.config.executor = "pipeline"
            with pytest.raises(FusionError, match="engine_team"):
                s.run(1)

    def test_engine_pool_builds_independent_instances(self):
        pool = create_engine_pool("neon", 3)
        assert len(pool) == 3
        assert len({id(e) for e in pool}) == 3
        assert all(e.name == "neon" for e in pool)
        with pytest.raises(ConfigurationError):
            create_engine_pool("neon", 0)


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
        for executor in ("pipeline", "hetero"):
            results = fuse_stream(executor, **features)
            assert_bitwise_parity(reference, results, label=executor)

    def test_reports_aggregate_identically(self):
        reports = {}
        for executor in EXECUTORS:
            with FusionSession(small_config(executor=executor,
                                            quality_metrics=True)) as s:
                reports[executor] = s.run(5).as_dict()
        ref = reports["serial"]
        for executor in ("pipeline", "hetero"):
            got = reports[executor]
            # modelled quantities and quality are exactly equal; only
            # the measured wall-clock blocks may differ
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
        for executor in ("pipeline", "hetero"):
            assert all(np.array_equal(a, b) for a, b
                       in zip(frames["serial"], frames[executor]))

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
        for executor in ("pipeline", "hetero"):
            assert all(np.array_equal(a, b) for a, b
                       in zip(frames["serial"], frames[executor]))
        with FusionSession(small_config()) as s:
            with pytest.raises(ConfigurationError):
                s.run(1, executor="warp")

    def test_override_away_from_hetero_drops_engine_team(self):
        """A hetero+team config can still drive one batch serially."""
        config = small_config(executor="hetero",
                              engine_team=("fpga", "neon"))
        with FusionSession(config) as s:
            report = s.run(2, executor="serial")
        assert report.frames == 2
        assert report.throughput["executor"] == "serial"

    def test_mixed_team_attributes_stages(self):
        results = fuse_stream("hetero", engine_team=("fpga", "neon"))
        stages = results[0].frame.metadata["stages"]
        assert set(stages) == {"visible", "thermal", "fuse"}
        assert set(stages.values()) <= {"fpga", "neon"}
        # co-scheduled accounting: per-stage modelled costs, summed
        assert all(r.model_seconds > 0 for r in results)
        # mixed teams are still deterministic run-to-run
        again = fuse_stream("hetero", engine_team=("fpga", "neon"))
        for ref, got in zip(results, again):
            assert np.array_equal(ref.frame.pixels, got.frame.pixels)
            assert ref.model_millijoules == got.model_millijoules


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

    @pytest.mark.parametrize("executor", ("pipeline", "hetero"))
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
                    for name in (*processor.parallel_stages(),
                                 *processor.mid_stages()):
                        processor.run_stage(name, task)
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

    def test_temporal_pipeline_spawns_no_forward_pool(self):
        """With a sequential fuse stage the pipeline has no forward
        jobs, so no pool threads or worker contexts exist."""
        with FusionSession(small_config(executor="pipeline",
                                        temporal=True)) as s:
            report = s.run(3)
        busy = report.throughput["stage_busy_s"]
        assert not any(name.startswith("forward") for name in busy)
        assert report.frames == 3

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
        assert isinstance(block["stage_occupancy"], dict)
        assert 0.0 <= max(block["stage_occupancy"].values()) <= 1.0
        assert isinstance(block["queue_peak"], dict)
        assert block["steals"] >= 0
        assert "throughput" in report.as_dict()

    def test_pipeline_tracks_queue_depths_and_stage_busy(self):
        with FusionSession(small_config(executor="pipeline",
                                        queue_depth=2)) as s:
            report = s.run(5)
        block = report.throughput
        assert {"ingest", "fuse", "finalize"} <= set(block["stage_busy_s"])
        assert any(name.startswith("forward") for name
                   in block["stage_busy_s"])
        assert block["queue_peak"]["order"] <= 2
        assert block["queue_peak"]["done"] <= 2

    def test_hetero_reports_per_engine_workers(self):
        with FusionSession(small_config(executor="hetero", workers=2)) as s:
            report = s.run(4)
        worker_frames = report.throughput["worker_frames"]
        assert sum(worker_frames.values()) == 4 * 3  # 2 forwards + 1 fuse
        assert all(name.startswith("neon[") for name in worker_frames)

    def test_telemetry_gains_wall_latency(self):
        with FusionSession(small_config(executor="pipeline")) as s:
            report = s.run(3)
        assert report.telemetry["wall_latency_mean_ms"] > 0
        assert report.telemetry["wall_latency_p95_ms"] > 0

    def test_exec_stats_shape(self):
        stats = ExecStats(executor="x", frames=10, wall_seconds=2.0,
                          stage_busy_s={"fuse": 1.0})
        assert stats.wall_fps == 5.0
        assert stats.occupancy() == {"fuse": 0.5}
        as_dict = stats.as_dict()
        assert as_dict["wall_fps"] == 5.0
        assert as_dict["stage_occupancy"] == {"fuse": 0.5}


# ----------------------------------------------------------------------
class _SleepyProcessor(FrameProcessor):
    """Minimal processor whose forward stages dawdle, to make work
    pile up on whichever worker the affinity pins."""

    def ingest(self, pair, index):
        return {"index": index}

    def run_stage(self, name, task, ctx=None):
        if name != "fuse":
            time.sleep(0.01)

    def finalize(self, task):
        return task["index"]


class _MinimalProcessor(FrameProcessor):
    """Implements only the abstract contract: ingest, run_stage and
    finalize; every optional hook keeps its default."""

    def __init__(self):
        self.lock = threading.Lock()
        self.stages = {}

    def ingest(self, pair, index):
        return {"pair": pair}

    def run_stage(self, name, task, ctx=None):
        with self.lock:
            self.stages.setdefault(task["pair"], []).append(name)

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
        for frame in range(7):
            assert sorted(processor.stages[frame]) == \
                ["fuse", "thermal", "visible"]
            assert processor.stages[frame][-1] == "fuse"


class _NamedEngine:
    def __init__(self, name):
        self.name = name


class TestWorkStealing:
    def test_idle_worker_steals_from_loaded_queue(self):
        """Pinning every stage to one engine leaves the other worker
        dry; it must steal rather than idle."""
        team = [_NamedEngine("fpga"), _NamedEngine("neon")]
        executor = HeterogeneousExecutor(
            engines=team, queue_depth=8,
            affinity={"visible": "fpga", "thermal": "fpga", "fuse": "fpga"})
        results = list(executor.run(_SleepyProcessor(),
                                    iter(range(8)), limit=8))
        assert results == list(range(8))
        assert executor.stats.steals > 0
        # the stolen work registered on the idle engine's counter
        assert executor.stats.worker_frames.get("neon[1]", 0) > 0

    def test_affinity_validation(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousExecutor(engines=[_NamedEngine("a")],
                                  affinity={"sideways": "a"})
