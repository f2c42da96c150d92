"""Property-based tests of the Planner: random valid graphs × configs.

The planner is the seam every executor (and now the serving layer)
trusts: whatever graph a user builds and whatever config it is lowered
against, the emitted :class:`~repro.graph.FusionPlan` must schedule
every stage exactly once, respect the dataflow edges, partition the
schedule cleanly into head/compute/tail, cost the plan as the sum of
its per-stage costs, and come out the same for every executor.
Hypothesis builds the graphs: the canonical pipeline under random
feature flags, splice-extended with random custom map stages at random
anchors.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import bind_engine
from repro.graph import FusionGraph, Planner, Stage
from repro.session import FusionConfig
from repro.types import FrameShape

_SETTINGS = dict(deadline=None, max_examples=25)


def lower(graph, config):
    """``graph`` lowered against ``config`` on the config's own binding,
    as a session lowers it."""
    return Planner().lower(graph, config, bind_engine(config))


def _noop(task):  # the map stages never run here; lowering only
    return None


def _stages(plan, names):
    """``names`` with every fused unit expanded into its members."""
    return tuple(member for name in names for member in plan.members(name))


@st.composite
def graph_and_config(draw):
    """A random valid (graph, config) pair for the planner."""
    registration = draw(st.booleans())
    temporal = draw(st.booleans())
    engine = draw(st.sampled_from(("arm", "neon", "fpga", "adaptive",
                                   "online")))
    levels = draw(st.integers(1, 3))
    width = draw(st.sampled_from((24, 40, 88)))
    height = draw(st.sampled_from((24, 40, 72)))
    executor = draw(st.sampled_from(("serial", "pipeline", "batch")))
    config = FusionConfig(
        engine=engine, executor=executor,
        fusion_shape=FrameShape(width, height), levels=levels,
        registration=registration, temporal=temporal,
        quality_metrics=False,
    )
    graph = FusionGraph.canonical(registration=registration,
                                  temporal=temporal)

    n_custom = draw(st.integers(0, 3))
    for i in range(n_custom):
        anchor = draw(st.sampled_from(
            [name for name in graph.names() if name != "finalize"]))
        batchable = draw(st.booleans())
        graph.insert_after(anchor, Stage(
            name=f"custom{i}", fn=_noop, batchable=batchable))
    return graph, config


class TestPlannerProperties:
    @settings(**_SETTINGS)
    @given(pair=graph_and_config())
    def test_every_stage_scheduled_exactly_once(self, pair):
        graph, config = pair
        plan = lower(graph, config)
        assert sorted(plan.schedule) == sorted(graph.names())
        assert len(set(plan.schedule)) == len(plan.schedule)
        # the role partition covers the schedule exactly once too
        partition = (*plan.head, *_stages(plan, plan.compute),
                     *plan.tail)
        assert sorted(partition) == sorted(plan.schedule)
        assert _stages(plan, plan.compute) == tuple(
            n for n in plan.schedule
            if n not in plan.head and n not in plan.tail)
        assert all(plan.node(n).role == "compute"
                   for n in _stages(plan, plan.compute))

    @settings(**_SETTINGS)
    @given(pair=graph_and_config())
    def test_schedule_respects_edge_order(self, pair):
        graph, config = pair
        plan = lower(graph, config)
        position = {name: i for i, name in enumerate(plan.schedule)}
        for stage in graph.stages():
            for dep in stage.after:
                assert position[dep] < position[stage.name], \
                    f"{stage.name} scheduled before its dependency {dep}"
        # within the executable regions the same discipline holds:
        # head before compute before tail
        compute = _stages(plan, plan.compute)
        if compute:
            first_compute = min(position[n] for n in compute)
            assert all(position[n] < first_compute for n in plan.head)
            assert all(position[n] > max(position[c] for c in compute)
                       for n in plan.tail)

    @settings(**_SETTINGS)
    @given(pair=graph_and_config())
    def test_plan_cost_is_sum_of_stage_costs(self, pair):
        graph, config = pair
        plan = lower(graph, config)
        total = sum(plan.node(name).model_seconds
                    for name in plan.schedule)
        assert plan.model_seconds_per_frame == pytest.approx(total)
        assert all(plan.node(name).model_seconds >= 0
                   for name in plan.schedule)
        # host-side stages never carry engine cost
        for name in plan.schedule:
            node = plan.node(name)
            if node.engine == "host":
                assert node.model_seconds == 0.0

    @settings(**_SETTINGS)
    @given(pair=graph_and_config())
    def test_ordered_stages_never_join_the_parallel_wave(self, pair):
        graph, config = pair
        plan = lower(graph, config)
        # an ordered stage strictly between head and tail makes the
        # whole plan sequential (one lane, frame order), and vice versa
        ordered_compute = [n for n in _stages(plan, plan.compute)
                           if graph.stage(n).ordered]
        assert bool(ordered_compute) == plan.sequential

    @settings(**_SETTINGS)
    @given(pair=graph_and_config())
    def test_batch_schedule_covers_compute_exactly_once(self, pair):
        """The units are the one stacking rule every driver follows:
        each is a run of two or more stateless stages adjacent in the
        schedule under one placement key, the compute region covers
        every member exactly once, a sequential plan has none, and
        every executor lowers to the same units (see
        :meth:`test_lowering_ignores_the_executor`)."""
        graph, config = pair
        plan = lower(graph, config)
        expanded = _stages(plan, plan.compute)
        assert len(set(expanded)) == len(expanded)
        if plan.sequential:
            assert plan.units == {}
        position = {name: i for i, name in enumerate(plan.schedule)}
        for unit, members in plan.units.items():
            assert unit in plan.compute
            assert len(members) >= 2
            assert len({graph.stage(m).placement for m in members}) == 1
            assert not any(graph.stage(m).ordered for m in members)
            first = position[members[0]]
            assert [position[m] for m in members] == list(
                range(first, first + len(members)))

    @settings(**_SETTINGS)
    @given(pair=graph_and_config())
    def test_lowering_ignores_the_executor(self, pair):
        """One lowering for every driver: the compute region, its
        units and the sequential flag are the same under ``serial``,
        ``batch`` and ``pipeline``."""
        graph, config = pair
        shapes = set()
        for executor in ("serial", "batch", "pipeline"):
            plan = lower(graph, config.with_overrides(
                executor=executor))
            shapes.add((plan.compute, tuple(plan.units.items()),
                        plan.sequential))
        assert len(shapes) == 1

    @settings(**_SETTINGS)
    @given(pair=graph_and_config())
    def test_lowering_is_deterministic(self, pair):
        graph, config = pair
        first = lower(graph, config)
        second = lower(graph.copy(), config)
        assert first.schedule == second.schedule
        assert first.compute == second.compute
        assert first.units == second.units
        assert first.sequential == second.sequential
        assert {n: first.node(n).engine for n in first.schedule} \
            == {n: second.node(n).engine for n in second.schedule}
        assert first.model_seconds_per_frame \
            == second.model_seconds_per_frame
