"""Property-based tests of the optimization passes: parity under fire.

The pass pipeline's contract is absolute — **an optimized plan yields
bitwise-identical frames and exactly equal modelled time/energy to the
unoptimized plan**, whatever graph it rewrote, whatever config it was
lowered against, under every executor.  Hypothesis drives the search:
random canonical-graph variants (feature flags, spliced custom map
stages, forced placements), random configs, and the executor itself as
a sampled dimension, each example fusing a short deterministic clip
both ways and comparing every output bit.

Structural invariants ride along: passes never lose or duplicate
schedule entries, fused units partition the region they rewrote, and
the pipeline is idempotent.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import FusionGraph, Planner, Stage, optimize_plan
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape

_SETTINGS = dict(deadline=None, max_examples=25)


def _boost(task):
    task.fused = task.fused * 1.0 + 0.5


def _dim(task):
    task.visible = task.visible * 0.5


@st.composite
def optimizable_case(draw):
    """A random (config, graph_overrides, executor) triple."""
    registration = draw(st.booleans())
    temporal = draw(st.booleans())
    engine = draw(st.sampled_from(("arm", "neon", "fpga", "adaptive")))
    executor = draw(st.sampled_from(("serial", "pipeline", "batch")))
    levels = draw(st.integers(1, 2))
    shape = FrameShape(*draw(st.sampled_from(((24, 24), (40, 32)))))
    overrides = {}
    if draw(st.booleans()):
        anchor = "temporal" if temporal else "fuse"
        overrides["insert_after"] = {
            anchor: (Stage(name="boost", fn=_boost),)}
    if draw(st.booleans()) and not temporal:
        overrides["place"] = {"fuse": draw(st.sampled_from(("arm",
                                                            "neon")))}
    config = FusionConfig(
        engine=engine, executor=executor, workers=2,
        batch_size=draw(st.sampled_from((2, 3))),
        fusion_shape=shape, levels=levels,
        registration=registration, temporal=temporal,
        quality_metrics=False, keep_records=True,
        graph_overrides=overrides or None,
    )
    frames = draw(st.integers(2, 4))
    return config, frames


def _clip(config, frames):
    rng = np.random.default_rng(2016)
    shape = config.fusion_shape.array_shape
    return [(rng.uniform(0, 255, shape), rng.uniform(0, 255, shape))
            for _ in range(frames)]


def _drive(config, pairs):
    with FusionSession(config) as session:
        report = session.run(len(pairs), source=iter(list(pairs)))
    return report


class TestPassParityProperties:
    @settings(**_SETTINGS)
    @given(case=optimizable_case())
    def test_bitwise_parity_and_energy_balance(self, case):
        config, frames = case
        pairs = _clip(config, frames)
        ref = _drive(config, pairs)
        opt = _drive(config.with_overrides(optimize=True), pairs)
        assert ref.frames == opt.frames
        assert ref.model_millijoules_total == opt.model_millijoules_total
        assert ref.model_seconds_total == opt.model_seconds_total
        assert ref.engine_usage == opt.engine_usage
        for a, b in zip(ref.records, opt.records):
            assert np.array_equal(a.frame.pixels, b.frame.pixels)
            assert a.engine == b.engine

    @settings(**_SETTINGS)
    @given(case=optimizable_case())
    def test_passes_preserve_schedule_and_nodes(self, case):
        config, _ = case
        from repro.session.session import build_session_graph
        graph = build_session_graph(config)
        plan = Planner().lower(graph, config)
        optimized = optimize_plan(plan, config)
        assert optimized.optimized
        assert set(optimized.schedule) == set(plan.schedule)
        assert set(optimized.nodes) == set(plan.nodes)
        # every fused unit partitions the region it rewrote: members
        # appear nowhere else in compute, each member exactly once
        members = [m for unit in optimized.units.values()
                   for m in unit]
        assert len(members) == len(set(members))
        for name in optimized.compute:
            if name in optimized.units:
                assert all(m not in optimized.compute
                           for m in optimized.units[name])
            else:
                assert name not in members
        # parallel wave only holds whole units or original parallels
        for name in optimized.parallel:
            group = optimized.members(name)
            assert set(group) <= set(plan.parallel) \
                or name in plan.parallel

    @settings(**_SETTINGS)
    @given(case=optimizable_case())
    def test_pipeline_is_idempotent(self, case):
        config, _ = case
        from repro.session.session import build_session_graph
        graph = build_session_graph(config)
        plan = Planner().lower(graph, config)
        once = optimize_plan(plan, config)
        twice = optimize_plan(once, config)
        assert twice.units == once.units
        assert twice.scratch == once.scratch
        assert twice.schedule == once.schedule
