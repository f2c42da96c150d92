"""Unit tests of the plan-optimization pass pipeline.

Each pass is exercised directly against lowered plans (structure: what
gets fused or pooled — and what is left alone), then the whole
pipeline end-to-end through sessions: an optimized session must produce
bitwise-identical frames and identical modelled accounting, while its
telemetry gains per-stage wall-time attribution.
"""

import numpy as np
import pytest

from repro.graph import FusionGraph, Planner, Stage, optimize_plan
from repro.graph.passes import (MaterializationEliminationPass,
                                PassPipeline, StatelessFusionPass,
                                default_pipeline)
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape

SHAPE = FrameShape(40, 32)


def _config(**kw):
    kw.setdefault("engine", "arm")
    kw.setdefault("fusion_shape", SHAPE)
    kw.setdefault("quality_metrics", False)
    return FusionConfig(**kw)


def _lower(config):
    graph = FusionGraph.canonical(registration=config.registration,
                                  temporal=config.temporal)
    return Planner().lower(graph, config), config


def _pairs(n=4, seed=3):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0, 255, SHAPE.array_shape),
             rng.uniform(0, 255, SHAPE.array_shape)) for _ in range(n)]


class TestStatelessFusionPass:
    def test_serial_plan_fuses_the_whole_core(self):
        plan, config = _lower(_config(executor="serial"))
        fused, report = StatelessFusionPass().run(plan, config)
        assert report.changed
        assert fused.units == {
            "visible+thermal+fuse": ("visible", "thermal", "fuse")}
        assert "visible+thermal+fuse" in fused.compute
        # original stage names survive in schedule and nodes
        assert set(plan.schedule) == set(fused.schedule)
        assert set(plan.nodes) == set(fused.nodes)

    def test_concurrent_executors_fuse_only_the_parallel_wave(self):
        plan, config = _lower(_config(executor="pipeline"))
        fused, report = StatelessFusionPass().run(plan, config)
        assert report.changed
        assert fused.units == {"visible+thermal": ("visible", "thermal")}
        assert "fuse" in fused.mid
        assert fused.parallel == ("visible+thermal",)

    def test_sequential_mid_is_left_alone(self):
        plan, config = _lower(_config(temporal=True))
        fused, report = StatelessFusionPass().run(plan, config)
        assert not report.changed
        assert fused.units == {}
        assert fused is plan

    def test_placement_change_breaks_the_chain(self):
        graph = FusionGraph.canonical()
        graph.place("fuse", "neon")
        config = _config(executor="serial")
        plan = Planner().lower(graph, config)
        fused, _ = StatelessFusionPass().run(plan, config)
        # visible+thermal share AUTO placement; the pinned fuse cannot
        # join them
        assert fused.units == {"visible+thermal": ("visible", "thermal")}

    def test_idempotent(self):
        plan, config = _lower(_config(executor="serial"))
        once, _ = StatelessFusionPass().run(plan, config)
        twice, report = StatelessFusionPass().run(once, config)
        assert not report.changed
        assert twice.units == once.units


class TestMaterializationEliminationPass:
    def test_requires_a_stacked_consumer(self):
        plan, config = _lower(_config(executor="serial"))
        rewritten, report = MaterializationEliminationPass().run(plan,
                                                                 config)
        assert not report.changed
        assert not rewritten.scratch

    def test_fires_after_stage_fusion(self):
        plan, config = _lower(_config(executor="serial"))
        fused, _ = StatelessFusionPass().run(plan, config)
        pooled, report = MaterializationEliminationPass().run(fused,
                                                              config)
        assert report.changed
        assert pooled.scratch

    def test_fires_for_the_batch_stacked_core(self):
        plan, config = _lower(_config(executor="batch"))
        pooled, report = MaterializationEliminationPass().run(plan,
                                                              config)
        assert report.changed
        assert pooled.scratch


class TestPipeline:
    def test_default_pipeline_runs_all_three_passes(self):
        plan, config = _lower(_config(executor="serial"))
        optimized = optimize_plan(plan, config)
        assert optimized.optimized
        assert [r["pass"] for r in optimized.pass_reports] == [
            "fuse-stages", "eliminate-materialization"]
        assert optimized.units and optimized.scratch

    def test_as_dict_and_describe_expose_the_optimization(self):
        plan, config = _lower(_config(executor="serial"))
        optimized = optimize_plan(plan, config)
        block = optimized.as_dict()["optimization"]
        assert block["optimized"] is True
        assert block["units"] == {
            "visible+thermal+fuse": ["visible", "thermal", "fuse"]}
        assert block["scratch"] is True
        assert len(block["passes"]) == 2
        text = optimized.describe()
        assert "fused units" in text and "scratch pool" in text

    def test_unoptimized_plan_reports_nothing(self):
        plan, _ = _lower(_config())
        block = plan.as_dict()["optimization"]
        assert block["optimized"] is False
        assert block["passes"] == []

    def test_empty_pipeline_still_stamps_optimized(self):
        plan, config = _lower(_config())
        out = PassPipeline(()).run(plan, config)
        assert out.optimized and out.pass_reports == ()

    def test_default_pipeline_order_is_stable(self):
        names = [p.name for p in default_pipeline().passes]
        assert names == ["fuse-stages", "eliminate-materialization"]


class TestOptimizedSessions:
    """End-to-end: config.optimize drives the same bits, faster."""

    @pytest.mark.parametrize("executor", ("serial", "pipeline", "batch"))
    def test_bitwise_parity_and_energy_balance(self, executor):
        pairs = _pairs()
        kw = dict(executor=executor, workers=2, batch_size=3,
                  keep_records=True)
        with FusionSession(_config(**kw)) as plain:
            ref = plain.run(len(pairs), source=iter(list(pairs)))
        with FusionSession(_config(optimize=True, **kw)) as tuned:
            assert tuned.plan.optimized
            got = tuned.run(len(pairs), source=iter(list(pairs)))
        assert ref.model_millijoules_total == got.model_millijoules_total
        assert ref.model_seconds_total == got.model_seconds_total
        for a, b in zip(ref.records, got.records):
            assert np.array_equal(a.frame.pixels, b.frame.pixels)

    def test_stage_wall_attribution_reaches_the_report(self):
        pairs = _pairs()
        with FusionSession(_config(optimize=True)) as session:
            report = session.run(len(pairs), source=iter(list(pairs)))
        wall = report.throughput["stage_wall_s"]
        assert "ingest" in wall and "finalize" in wall
        assert "visible+thermal+fuse" in wall
        assert all(v > 0 for v in wall.values())

    def test_stage_wall_keys_follow_the_executor(self):
        pairs = _pairs()
        with FusionSession(_config(executor="batch", batch_size=2,
                                   optimize=True)) as session:
            report = session.run(len(pairs), source=iter(list(pairs)))
        assert "batch-core" in report.throughput["stage_wall_s"]

    def test_process_uses_the_scratch_pool(self):
        pairs = _pairs(2)
        with FusionSession(_config(optimize=True)) as session:
            session.process(*pairs[0])
            assert len(session._processor._scratch) == 1
            before = session._processor._scratch.nbytes
            session.process(*pairs[1])
            # steady state: the second frame reuses the pooled buffer
            assert session._processor._scratch.nbytes == before
