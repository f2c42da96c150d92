"""Stage fusion and buffer pooling, as ``Planner.lower`` and the
session carry them out.

Lowering fuses chains of adjacent stateless, same-placement stages
into dispatch units (stateless stage fusion), and the session feeds
every stacked core from a pooled input stack (materialization
elimination).  The structural cases check what fuses and what is left
alone; the session cases check that the fused plan gives
bitwise-identical frames and identical modelled accounting to the
unfused reference plan (``tests/unfused.py``), and that the pool is
used and reused.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.adaptive import bind_engine
from repro.dtcwt import Dtcwt2D
from repro.graph import FusionGraph, Planner
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape
from unfused import unfuse, unfused_sessions

SHAPE = FrameShape(40, 32)


def _config(**kw):
    kw.setdefault("engine", "arm")
    kw.setdefault("fusion_shape", SHAPE)
    kw.setdefault("quality_metrics", False)
    return FusionConfig(**kw)


def _lower(config):
    graph = FusionGraph.canonical(registration=config.registration,
                                  temporal=config.temporal)
    return Planner().lower(graph, config, bind_engine(config)), config


def _pairs(n=4, seed=3):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0, 255, SHAPE.array_shape),
             rng.uniform(0, 255, SHAPE.array_shape)) for _ in range(n)]


class TestStatelessFusionPass:
    def test_serial_plan_fuses_the_whole_core(self):
        plan, _ = _lower(_config(executor="serial"))
        assert plan.units == {
            "visible+thermal+fuse": ("visible", "thermal", "fuse")}
        assert plan.compute == ("visible+thermal+fuse",)
        # original stage names survive in schedule and nodes
        assert plan.schedule == ("ingest", "visible", "thermal", "fuse",
                                 "finalize")
        assert set(plan.nodes) == set(plan.schedule)

    def test_executors_share_units(self):
        serial, _ = _lower(_config(executor="serial"))
        for executor in ("pipeline", "batch"):
            plan, _ = _lower(_config(executor=executor))
            assert plan.units == serial.units
            assert plan.compute == serial.compute == (
                "visible+thermal+fuse",)

    def test_sequential_plan_is_left_alone(self):
        plan, _ = _lower(_config(temporal=True))
        assert plan.sequential
        assert plan.units == {}
        assert plan.compute == ("temporal",)

    def test_placement_change_breaks_the_chain(self):
        graph = FusionGraph.canonical()
        graph.place("fuse", "neon")
        config = _config(executor="serial")
        plan = Planner().lower(graph, config, bind_engine(config))
        # visible+thermal share AUTO placement; the pinned fuse cannot
        # join them
        assert plan.units == {"visible+thermal": ("visible", "thermal")}
        assert plan.compute == ("visible+thermal", "fuse")

    def test_idempotent(self):
        plan, config = _lower(_config(executor="serial"))
        again, _ = _lower(config)
        assert again.units == plan.units
        assert again.compute == plan.compute
        # the unfused reference is the plan before fusion
        reference = unfuse(plan)
        assert reference.units == {}
        assert reference.compute == ("visible", "thermal", "fuse")


class TestMaterializationEliminationPass:
    def test_requires_a_stacked_consumer(self):
        # no unit and no stacked core: nothing takes a pooled buffer
        pairs = _pairs(2)
        with FusionSession(_config(temporal=True)) as session:
            session.process(*pairs[0])
            assert len(session._serial.scratch) == 0

    def test_fires_after_stage_fusion(self):
        pairs = _pairs(2)
        with FusionSession(_config(executor="serial")) as session:
            session.process(*pairs[0])
            pool = session._serial.scratch
            dtype = session._serial._lanes["arm"].transform.backend.dtype
            assert len(pool) == 1
            assert pool.nbytes == 2 * SHAPE.pixels * np.dtype(dtype).itemsize

    def test_fires_for_the_batch_stacked_core(self):
        pairs = _pairs(4)
        with FusionSession(_config(executor="batch",
                                   batch_size=4)) as session:
            session.run(len(pairs), source=iter(list(pairs)))
            pool = session._serial.scratch
            dtype = session._serial._lanes["arm"].transform.backend.dtype
            # one source-major (2B, H, W) stack per micro-batch shape
            assert len(pool) == 1
            assert pool.nbytes == (2 * 4 * SHAPE.pixels
                                   * np.dtype(dtype).itemsize)


class TestPipeline:
    def test_as_dict_and_describe_expose_the_optimization(self):
        plan, _ = _lower(_config(executor="serial"))
        block = plan.as_dict()
        assert block["units"] == {
            "visible+thermal+fuse": ["visible", "thermal", "fuse"]}
        assert "optimization" not in block
        text = plan.describe()
        assert "fused units  : visible+thermal+fuse = " \
               "[visible thermal fuse]" in text

    def test_unoptimized_plan_reports_nothing(self):
        plan, _ = _lower(_config(temporal=True))
        assert plan.as_dict()["units"] == {}
        assert "fused units  : none" in plan.describe()


class TestOptimizedSessions:
    """End-to-end: the fused plan drives the same bits as the unfused
    reference."""

    @pytest.mark.parametrize("executor", ("serial", "pipeline", "batch"))
    def test_bitwise_parity_and_energy_balance(self, executor):
        pairs = _pairs()
        kw = dict(executor=executor, workers=2, batch_size=3,
                  keep_records=True)
        with unfused_sessions(), FusionSession(_config(**kw)) as plain:
            assert plain.plan.units == {}
            ref = plain.run(len(pairs), source=iter(list(pairs)))
        with FusionSession(_config(**kw)) as fused:
            assert fused.plan.units
            got = fused.run(len(pairs), source=iter(list(pairs)))
        assert ref.model_millijoules_total == got.model_millijoules_total
        assert ref.model_seconds_total == got.model_seconds_total
        assert ref.engine_usage == got.engine_usage
        for a, b in zip(ref.records, got.records):
            assert np.array_equal(a.frame.pixels, b.frame.pixels)

    def test_stage_wall_attribution_reaches_the_report(self):
        pairs = _pairs()
        with FusionSession(_config()) as session:
            report = session.run(len(pairs), source=iter(list(pairs)))
        wall = report.throughput["stage_wall_s"]
        assert "ingest" in wall and "finalize" in wall
        assert "visible+thermal+fuse" in wall
        assert all(v > 0 for v in wall.values())

    def test_stage_wall_keys_follow_the_executor(self):
        """The batch executor's stacked core is attributed to the unit
        it runs, the key the serial executor uses too."""
        pairs = _pairs()
        with FusionSession(_config(executor="batch",
                                   batch_size=2)) as session:
            report = session.run(len(pairs), source=iter(list(pairs)))
        wall = report.throughput["stage_wall_s"]
        assert "visible+thermal+fuse" in wall
        assert "batch-core" not in wall

    @pytest.mark.parametrize("executor, stacked_calls",
                             (("batch", 2), ("serial", 8)))
    def test_forced_core_is_one_stacked_call_under_every_driver(
            self, executor, stacked_calls):
        """One rule decides stacking: a core forced onto the FPGA is
        one unit, so 8 frames at B=4 make 2 stacked ``(N, H, W)``
        forwards under ``batch`` (8 one-group ones under ``serial``)
        and never a per-frame 2-D ``forward``, bitwise-equal to the
        unfused plan."""
        place = {"visible": "fpga", "thermal": "fpga", "fuse": "fpga"}
        config = _config(executor=executor, batch_size=4,
                         keep_records=True,
                         graph_overrides={"place": place})
        pairs = _pairs(8)
        with unfused_sessions(), FusionSession(config) as plain:
            ref = plain.run(len(pairs), source=iter(list(pairs)))
        calls = {2: 0, 3: 0}
        forward = Dtcwt2D.forward

        def counted(self, image):
            calls[np.ndim(image)] += 1
            return forward(self, image)

        with mock.patch.object(Dtcwt2D, "forward", counted), \
                FusionSession(config) as fused:
            assert fused.plan.units == {
                "visible+thermal+fuse": ("visible", "thermal", "fuse")}
            got = fused.run(len(pairs), source=iter(list(pairs)))
        assert calls == {2: 0, 3: stacked_calls}
        assert ref.model_millijoules_total == got.model_millijoules_total
        for a, b in zip(ref.records, got.records):
            assert np.array_equal(a.frame.pixels, b.frame.pixels)
            assert a.frame.metadata == b.frame.metadata

    def test_process_uses_the_scratch_pool(self):
        pairs = _pairs(2)
        with FusionSession(_config()) as session:
            session.process(*pairs[0])
            assert len(session._serial.scratch) == 1
            before = session._serial.scratch.nbytes
            session.process(*pairs[1])
            # steady state: the second frame reuses the pooled buffer
            assert session._serial.scratch.nbytes == before
