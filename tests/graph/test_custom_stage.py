"""User-inserted stages: identical results under every executor."""

from unittest import mock

import numpy as np
import pytest

from repro.graph import Stage
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape

SMALL = FrameShape(40, 40)
EXECUTORS = ("serial", "pipeline", "batch")


def small_config(**overrides):
    defaults = dict(engine="neon", fusion_shape=SMALL, levels=2, seed=5,
                    quality_metrics=False)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def posterize(task):
    """A deterministic, visibly destructive post-fuse stage."""
    task.fused = np.round(task.fused / 32.0) * 32.0


def burn_index(task):
    """An overlay stage whose output depends on the frame index —
    catches executors that run custom stages against the wrong task."""
    task.fused = task.fused.copy()
    task.fused[:2, :2] = float(task.index % 7)


def denoise_graph(session):
    graph = session.canonical_graph()
    graph.insert_after("fuse", Stage(name="posterize", fn=posterize,
                                     batchable=True))
    return graph


def fuse_stream(executor, graph_builder=None, n=6, **overrides):
    with FusionSession(small_config(executor=executor, **overrides)) as s:
        graph = graph_builder(s) if graph_builder else None
        return list(s.stream(SyntheticSource(seed=5), limit=n, graph=graph))


class TestCustomStageParity:
    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_custom_stage_matches_serial(self, executor,
                                         assert_bitwise_parity):
        reference = fuse_stream("serial", denoise_graph)
        results = fuse_stream(executor, denoise_graph)
        assert_bitwise_parity(reference, results, label=executor)

    def test_custom_stage_actually_changes_output(self):
        plain = fuse_stream("serial")
        posterized = fuse_stream("serial", denoise_graph)
        assert any(not np.array_equal(a.frame.pixels, b.frame.pixels)
                   for a, b in zip(plain, posterized))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_index_dependent_stage_sees_its_own_task(self, executor):
        def build(session):
            graph = session.canonical_graph()
            graph.insert_after("fuse", Stage(name="burn", fn=burn_index))
            return graph

        results = fuse_stream(executor, build, n=8)
        for result in results:
            assert np.all(result.frame.pixels[:2, :2]
                          == result.index % 7)

    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_custom_stage_with_scheduler_matches_serial(self, executor):
        reference = fuse_stream("serial", denoise_graph, engine="online")
        results = fuse_stream(executor, denoise_graph, engine="online")
        for ref, got in zip(reference, results):
            assert np.array_equal(ref.frame.pixels, got.frame.pixels)
            assert ref.engine == got.engine

    def test_graph_drive_is_per_stream_only(self):
        """A graph= drive never replaces the session's standing plan."""
        with FusionSession(small_config()) as s:
            custom = list(s.stream(SyntheticSource(seed=5), limit=2,
                                   graph=denoise_graph(s)))
            assert "posterize" not in s.plan
            plain = list(s.stream(SyntheticSource(seed=5), limit=2))
        assert any(not np.array_equal(a.frame.pixels, b.frame.pixels)
                   for a, b in zip(custom, plain))

    def test_run_accepts_graph(self):
        with FusionSession(small_config()) as s:
            report = s.run(3, graph=denoise_graph(s))
        assert report.frames == 3

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_parallel_custom_stage(self, executor):
        """A stateless stage depending only on ingest joins the
        parallel wave and still lands identical results."""
        seen = []

        def stamp(task):
            # pure per-task work (the wave may run it on any thread)
            task.visible = task.visible + 0.0
            seen.append(task.index)

        def build(session):
            graph = session.canonical_graph()
            graph.add_stage("stamp", stamp, after=("ingest",))
            # feed finalize so the stage is not dangling
            graph.connect("finalize", "stamp")
            return graph

        results = fuse_stream(executor, build, n=4)
        assert len(results) == 4
        assert sorted(seen) == [0, 1, 2, 3]

    def test_forced_placement_changes_arithmetic_engine(self):
        """Pinning the fuse stage onto the FPGA engine is honoured by
        every executor identically (fixed-point arithmetic differs
        from NEON, so parity across executors is the real check)."""
        def build(session):
            return session.canonical_graph().place("fuse", "fpga")

        reference = fuse_stream("serial", build)
        for executor in EXECUTORS[1:]:
            results = fuse_stream(executor, build)
            for ref, got in zip(reference, results):
                assert np.array_equal(ref.frame.pixels, got.frame.pixels)

    def test_forced_placement_billed_to_forced_engine(self):
        """The run report agrees with the lowered plan: a forced fuse
        stage is accounted on its forced engine, per stage."""
        from repro.hw.registry import create_engine
        config = small_config(
            graph_overrides={"place": {"fuse": "fpga"}})
        with FusionSession(config) as session:
            report = session.run(2)
            plan_fuse_s = session.plan.node("fuse").model_seconds
        neon, fpga = create_engine("neon"), create_engine("fpga")
        want = (2 * neon.forward_time(SMALL, 2).total_s
                + fpga.fusion_time(SMALL, 2).total_s
                + fpga.inverse_time(SMALL, 2).total_s)
        assert report.model_seconds_total == pytest.approx(2 * want,
                                                           rel=1e-12)
        assert plan_fuse_s == pytest.approx(
            fpga.fusion_time(SMALL, 2).total_s
            + fpga.inverse_time(SMALL, 2).total_s, rel=1e-12)
        # and it differs from the unforced session's accounting
        with FusionSession(small_config()) as session:
            plain = session.run(2)
        assert plain.model_seconds_total != report.model_seconds_total

    def test_forced_placement_billed_under_mixed_team(self):
        """A mixed placement — forwards on two engines, the fuse stage
        on a third — is billed per stage to the engine each stage
        computes on, and the stage map names exactly those engines,
        under every executor."""
        from repro.hw.registry import create_engine
        place = {"visible": "fpga", "thermal": "neon", "fuse": "arm"}
        fpga, neon, arm = (create_engine(n) for n in ("fpga", "neon",
                                                      "arm"))
        want = (fpga.forward_time(SMALL, 2).total_s
                + neon.forward_time(SMALL, 2).total_s
                + arm.fusion_time(SMALL, 2).total_s
                + arm.inverse_time(SMALL, 2).total_s)
        for executor in EXECUTORS:
            results = fuse_stream(executor, n=4,
                                  graph_overrides={"place": place})
            for result in results:
                assert result.frame.metadata["stages"] == place
                assert result.engine == "arm"  # labelled by the fuse stage
                assert result.model_seconds == pytest.approx(want,
                                                             rel=1e-12)

    def test_non_batchable_stage_keeps_frame_major_cadence(self):
        """batchable=False is honoured by the batch executor: within a
        contiguous non-batchable run, frame i passes through every
        stage of the run before frame i+1 enters it."""
        calls = []

        def a(task):
            calls.append(("a", task.index))

        def b(task):
            calls.append(("b", task.index))

        def build(session):
            graph = session.canonical_graph()
            graph.insert_after("fuse", Stage(name="a", fn=a))
            graph.insert_after("a", Stage(name="b", fn=b))
            return graph

        fuse_stream("batch", build, n=4, batch_size=4)
        assert calls == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                         ("a", 2), ("b", 2), ("a", 3), ("b", 3)]

    def test_map_stage_never_attributed_to_an_engine(self):
        """Under a mixed placement, metadata['stages'] must agree with
        the plan: map stages run host-side NumPy and are never billed
        to (or labelled with) an engine."""
        def build(session):
            graph = session.canonical_graph()
            graph.insert_after("fuse", Stage(name="tag", fn=lambda t: None))
            return graph.place("visible", "fpga")

        results = fuse_stream("pipeline", build)
        for result in results:
            assert result.frame.metadata["stages"] \
                == {"visible": "fpga", "thermal": "neon", "fuse": "neon"}

    def test_batch_schedule_is_what_executes(self):
        """The plan's unit is the micro-batch's execution order: its
        stacked core first (one call for the whole batch), then its
        remaining members with each stage's batchability — the
        non-batchable ``a`` frame-major, the batchable ``b`` and ``c``
        stage-major."""
        from repro.core.fusion import ImageFusion

        calls = []

        def tap(name):
            return lambda task: calls.append((name, task.index))

        def build(session):
            graph = session.canonical_graph()
            graph.insert_after("fuse", Stage(name="a", fn=tap("a")))
            graph.insert_after("a", Stage(name="b", fn=tap("b"),
                                          batchable=True))
            graph.insert_after("b", Stage(name="c", fn=tap("c"),
                                          batchable=True))
            return graph

        with FusionSession(small_config()) as s:
            plan = s._processor_for(build(s)).plan
        assert plan.units == {"visible+thermal+fuse+a+b+c": (
            "visible", "thermal", "fuse", "a", "b", "c")}

        combine = ImageFusion.combine

        def core(fuser, *pyramids):
            calls.append(("core", pyramids[0].frames[0]))
            return combine(fuser, *pyramids)

        with mock.patch.object(ImageFusion, "combine", core):
            fuse_stream("batch", build, n=4, batch_size=2)
        batch = [("core", 2), ("a", 0), ("a", 1),
                 ("b", 0), ("b", 1), ("c", 0), ("c", 1)]
        second = [("core", 2)] + [(name, i + 2)
                                  for name, i in batch[1:]]
        assert calls == batch + second

    def test_batchable_custom_stage_runs_stage_major(self):
        calls = []

        def tap(task):
            calls.append(task.index)

        def build(session):
            graph = session.canonical_graph()
            graph.insert_after("fuse", Stage(name="tap", fn=tap,
                                             batchable=True))
            return graph

        fuse_stream("batch", build, n=4, batch_size=2)
        # stage-major within each micro-batch, frame order preserved
        assert calls == [0, 1, 2, 3]
