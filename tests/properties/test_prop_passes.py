"""Property-based tests of stage fusion: parity under fire.

``Planner.lower`` fuses adjacent stateless stages into dispatch units,
and the session drives them through its pooled stacked core.  The
contract is absolute: **the lowered plan yields bitwise-identical
frames and exactly equal modelled time/energy to the unfused reference
plan** (``tests/unfused.py``, every unit expanded back into its member
stages), whatever graph was lowered, whatever config it was lowered
against, under every executor.  Hypothesis drives the search: random
canonical-graph variants (feature flags, N=2 or 3 sources, spliced
custom map stages, forced placements), random configs, and the
executor itself as a sampled dimension, each example fusing a short
deterministic clip both ways and comparing every output bit.

Structural invariants ride along: fusion never loses or duplicates
schedule entries, units are exactly the maximal same-placement runs of
the region the executor allows, and lowering is deterministic.
"""

from itertools import groupby

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.adaptive import bind_engine
from repro.graph import Planner, Stage
from repro.graph.graph import forward_stage_names
from repro.session import FusionConfig, FusionSession
from repro.session.session import build_session_graph
from repro.types import FrameShape
from unfused import unfuse, unfused_sessions

_SETTINGS = dict(deadline=None, max_examples=25)


def _boost(task):
    task.fused = task.fused * 1.0 + 0.5


def _dim(task):
    task.visible = task.visible * 0.5


@st.composite
def optimizable_case(draw):
    """A random (config, frames) pair; the executor is in the config."""
    registration = draw(st.booleans())
    temporal = draw(st.booleans())
    n_sources = 2 if temporal else draw(st.sampled_from((2, 3)))
    engine = draw(st.sampled_from(("arm", "neon", "fpga", "adaptive")))
    executor = draw(st.sampled_from(("serial", "pipeline", "batch")))
    levels = draw(st.integers(1, 2))
    shape = FrameShape(*draw(st.sampled_from(((24, 24), (40, 32)))))
    overrides = {}
    if draw(st.booleans()):
        anchor = "temporal" if temporal else draw(st.sampled_from(
            ("fuse", "ingest")))
        stage = (Stage(name="boost", fn=_boost) if anchor != "ingest"
                 else Stage(name="dim", fn=_dim))
        overrides["insert_after"] = {anchor: (stage,)}
    if draw(st.booleans()) and not temporal:
        placeable = forward_stage_names(n_sources) + ("fuse",)
        placed = draw(st.lists(st.sampled_from(placeable), min_size=1,
                               unique=True))
        overrides["place"] = {
            name: draw(st.sampled_from(("arm", "neon", "fpga")))
            for name in placed}
    config = FusionConfig(
        engine=engine, executor=executor, workers=2,
        batch_size=draw(st.sampled_from((2, 3))),
        fusion_shape=shape, levels=levels, n_sources=n_sources,
        registration=registration, temporal=temporal,
        quality_metrics=False, keep_records=True,
        graph_overrides=overrides or None,
    )
    frames = draw(st.integers(2, 4))
    return config, frames


def _case(frames=4, **overrides):
    """An explicit example: the stacked batch core at N=3 (also with
    the whole core forced onto the FPGA) and a fused forced-placement
    wave are always exercised, whatever Hypothesis draws."""
    fields = dict(engine="neon", workers=2, fusion_shape=FrameShape(24, 24),
                  levels=2, quality_metrics=False, keep_records=True)
    fields.update(overrides)
    return FusionConfig(**fields), frames


def _clip(config, frames):
    rng = np.random.default_rng(2016)
    shape = config.fusion_shape.array_shape
    return [tuple(rng.uniform(0, 255, shape)
                  for _ in range(config.n_sources))
            for _ in range(frames)]


def _drive(config, groups):
    with FusionSession(config) as session:
        report = session.run(len(groups), source=iter(list(groups)))
    return report


class TestPassParityProperties:
    @settings(**_SETTINGS)
    @given(case=optimizable_case())
    @example(case=_case(executor="batch", batch_size=3, n_sources=3))
    @example(case=_case(executor="batch", batch_size=3, n_sources=3,
                        graph_overrides={"place": {
                            "visible": "fpga", "thermal": "fpga",
                            "source2": "fpga", "fuse": "fpga"}}))
    @example(case=_case(executor="pipeline", graph_overrides={
        "place": {"visible": "fpga", "thermal": "fpga"}}))
    def test_bitwise_parity_and_energy_balance(self, case):
        config, frames = case
        groups = _clip(config, frames)
        with unfused_sessions():
            ref = _drive(config, groups)
        got = _drive(config, groups)
        assert ref.frames == got.frames == frames
        assert ref.model_millijoules_total == got.model_millijoules_total
        assert ref.model_seconds_total == got.model_seconds_total
        assert ref.engine_usage == got.engine_usage
        for a, b in zip(ref.records, got.records):
            assert np.array_equal(a.frame.pixels, b.frame.pixels)
            assert a.engine == b.engine
            assert a.frame.metadata == b.frame.metadata

    @settings(**_SETTINGS)
    @given(case=optimizable_case())
    def test_passes_preserve_schedule_and_nodes(self, case):
        config, _ = case
        plan = Planner().lower(build_session_graph(config), config,
                               bind_engine(config))
        reference = unfuse(plan)
        assert reference.schedule == plan.schedule
        assert set(reference.nodes) == set(plan.nodes)
        # every unit is a maximal run of >= 2 adjacent stages sharing
        # one placement key in the compute region, whatever the executor
        runs = [tuple(run) for _, run in groupby(
            reference.compute, key=lambda n: plan.stage(n).placement)]
        expected = ([] if plan.sequential
                    else [run for run in runs if len(run) >= 2])
        assert list(plan.units.values()) == expected
        # units partition the compute region: each member once, and
        # never beside its unit
        members = [m for unit in plan.units.values() for m in unit]
        assert len(members) == len(set(members))
        assert not set(members) & set(plan.compute)

    @settings(**_SETTINGS)
    @given(case=optimizable_case())
    def test_pipeline_is_idempotent(self, case):
        config, _ = case
        graph = build_session_graph(config)
        binding = bind_engine(config)
        once = Planner().lower(graph, config, binding)
        twice = Planner().lower(graph.copy(), config, binding)
        assert twice.units == once.units
        assert twice.compute == once.compute
        assert twice.sequential == once.sequential
        assert unfuse(unfuse(once)) == unfuse(once)
