"""The dataflow IR: Stage/FusionGraph validation and Planner lowering."""

import json
import threading

import numpy as np
import pytest

from repro.core.adaptive import bind_engine
from repro.errors import ConfigurationError, FusionError
from repro.graph import (
    ORDERED,
    Stage,
    FusionGraph,
    Planner,
)
from repro.session import FramePair, FusionConfig, FusionSession
from repro.types import FrameShape

SMALL = FrameShape(40, 40)


def small_config(**overrides):
    defaults = dict(engine="neon", fusion_shape=SMALL, levels=2, seed=5,
                    quality_metrics=False)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def lower(graph, config):
    """``graph`` lowered against ``config`` on the config's own binding,
    as a session lowers it."""
    return Planner().lower(graph, config, bind_engine(config))


def noop(task):
    pass


# ----------------------------------------------------------------------
class TestStageValidation:
    def test_map_requires_callable_fn(self):
        with pytest.raises(ConfigurationError, match="callable"):
            Stage(name="x", after=("ingest",))

    def test_builtin_kind_rejects_fn(self):
        with pytest.raises(ConfigurationError, match="fn is only"):
            Stage(name="fuse", kind="fuse", fn=noop, after=("visible",))

    def test_unknown_kind_and_state(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Stage(name="x", kind="teleport", fn=noop, after=("a",))
        with pytest.raises(ConfigurationError, match="state"):
            Stage(name="x", fn=noop, after=("a",), state="eventual")

    def test_ordered_batchable_is_contradictory(self):
        with pytest.raises(ConfigurationError, match="batchable"):
            Stage(name="x", fn=noop, after=("a",), state=ORDERED,
                  batchable=True)

    def test_bare_string_after_rejected(self):
        with pytest.raises(ConfigurationError, match="tuple"):
            Stage(name="x", fn=noop, after="ingest")


class TestGraphValidation:
    def test_canonical_graph_validates(self):
        for registration in (False, True):
            for temporal in (False, True):
                graph = FusionGraph.canonical(registration=registration,
                                              temporal=temporal)
                graph.validate()

    def test_duplicate_stage_name_rejected(self):
        graph = FusionGraph.canonical()
        with pytest.raises(ConfigurationError, match="duplicate"):
            graph.add(Stage(name="fuse", fn=noop, after=("ingest",)))

    def test_cycle_detected_and_named(self):
        graph = FusionGraph.canonical()
        graph.add_stage("a", noop, after=("b",))
        graph.add_stage("b", noop, after=("a",))
        with pytest.raises(ConfigurationError, match="cycle"):
            graph.validate()

    def test_unknown_dependency_rejected(self):
        graph = FusionGraph.canonical()
        graph.add_stage("a", noop, after=("nowhere",))
        with pytest.raises(ConfigurationError, match="unknown stage"):
            graph.validate()

    def test_single_ingest_and_finalize_enforced(self):
        graph = FusionGraph.canonical()
        graph.add(Stage(name="ingest2", kind="ingest", state=ORDERED))
        with pytest.raises(ConfigurationError, match="exactly one ingest"):
            graph.validate()
        graph = FusionGraph.canonical()
        graph.drop("finalize")
        with pytest.raises(ConfigurationError, match="finalize"):
            graph.validate()

    def test_dangling_stage_rejected(self):
        """Every stage must (transitively) feed finalize."""
        graph = FusionGraph.canonical()
        graph.add_stage("island", noop, after=("fuse",))
        with pytest.raises(ConfigurationError, match="island"):
            graph.validate()

    def test_insert_after_rewires_consumers(self):
        graph = FusionGraph.canonical()
        graph.insert_after("fuse", Stage(name="denoise", fn=noop))
        graph.validate()
        assert graph.stage("denoise").after == ("fuse",)
        assert graph.stage("finalize").after == ("denoise",)

    def test_drop_rewires_consumers(self):
        graph = FusionGraph.canonical(registration=True)
        graph.drop("register")
        graph.validate()
        assert graph.stage("visible").after == ("ingest",)

    def test_describe_lists_every_stage(self):
        graph = FusionGraph.canonical(registration=True)
        text = graph.describe()
        for name in ("ingest", "register", "visible", "thermal", "fuse",
                     "finalize"):
            assert name in text


# ----------------------------------------------------------------------
class TestPlannerLowering:
    def test_canonical_roles_and_schedule(self):
        plan = lower(FusionGraph.canonical(), small_config())
        assert plan.schedule == ("ingest", "visible", "thermal", "fuse",
                                 "finalize")
        assert plan.head == ("ingest",)
        # the whole core is one unit; the stages keep their roles
        assert plan.compute == ("visible+thermal+fuse",)
        assert plan.members("visible+thermal+fuse") == (
            "visible", "thermal", "fuse")
        assert [plan.node(n).role for n in plan.schedule] == [
            "head", "compute", "compute", "compute", "tail"]
        assert plan.tail == ("finalize",)
        assert not plan.sequential
        # the one stacking rule: the whole transform core is one unit
        assert plan.units == {
            "visible+thermal+fuse": ("visible", "thermal", "fuse")}

    def test_temporal_plan_is_sequential(self):
        plan = lower(
            FusionGraph.canonical(registration=True, temporal=True),
            small_config(registration=True, temporal=True))
        assert plan.head == ("ingest", "register")
        assert plan.sequential
        # an ordered stage in the compute region: nothing stacks
        assert plan.units == {}
        assert plan.compute == ("temporal",)

    def test_auto_placement_resolves_through_cost_model(self):
        full = lower(FusionGraph.canonical(),
                     small_config(engine="adaptive",
                                  fusion_shape=FrameShape(88, 72),
                                  levels=3))
        assert full.node("fuse").engine == "fpga"
        small = lower(FusionGraph.canonical(),
                      small_config(engine="adaptive",
                                   fusion_shape=FrameShape(32, 24)))
        assert small.node("fuse").engine == "neon"

    def test_online_plan_is_dynamic(self):
        plan = lower(FusionGraph.canonical(), small_config(engine="online"))
        assert plan.dynamic_engine
        assert "per frame" in plan.describe()

    def test_forced_placement_disables_the_stacked_core(self):
        graph = FusionGraph.canonical().place("fuse", "fpga")
        plan = lower(graph, small_config())
        assert plan.node("fuse").engine == "fpga"
        # a forced fuse breaks the visible+thermal+fuse unit: only
        # the forwards still stack, the fuse stage runs on its own
        assert plan.units == {"visible+thermal": ("visible", "thermal")}
        assert plan.compute == ("visible+thermal", "fuse")

    def test_unknown_placement_rejected(self):
        graph = FusionGraph.canonical().place("fuse", "abacus")
        with pytest.raises(ConfigurationError, match="registered engine"):
            lower(graph, small_config())

    def test_custom_stage_between_forwards_and_fuse_decores(self):
        """A node wedged into the pyramid path keeps the graph legal
        but breaks the visible+thermal+fuse core: the unit's stacked
        core covers the forwards alone, and the wedged stage and fuse
        run member by member after it."""
        graph = FusionGraph.canonical()
        graph.add_stage("sharpen", noop, after=("visible",))
        graph.connect("fuse", "sharpen").disconnect("fuse", "visible")
        graph.validate()
        plan = lower(graph, small_config())
        assert plan.units == {"visible+thermal+sharpen+fuse": (
            "visible", "thermal", "sharpen", "fuse")}
        assert plan.node("sharpen").role == "compute"

    def test_temporal_graph_needs_temporal_config(self):
        with pytest.raises(ConfigurationError, match="temporal"):
            lower(FusionGraph.canonical(temporal=True), small_config())
        with pytest.raises(ConfigurationError, match="temporal"):
            lower(FusionGraph.canonical(), small_config(temporal=True))

    def test_register_graph_needs_registration_config(self):
        with pytest.raises(ConfigurationError, match="registration"):
            lower(FusionGraph.canonical(registration=True), small_config())

    def test_registration_config_needs_register_stage_or_explicit_drop(self):
        """A registration=True session rejects a graph that silently
        lacks the register stage — the absence must be an explicit
        drop() decision, not a forgotten flag."""
        config = small_config(registration=True)
        with pytest.raises(ConfigurationError, match="register"):
            lower(FusionGraph.canonical(), config)
        dropped = FusionGraph.canonical(registration=True).drop("register")
        plan = lower(dropped, config)  # explicit: allowed
        assert "register" not in plan.schedule

    def test_only_transform_stages_are_placeable(self):
        for name in ("ingest", "finalize"):
            graph = FusionGraph.canonical().place(name, "neon")
            with pytest.raises(ConfigurationError, match="cannot be placed"):
                lower(graph, small_config())
        # custom map stages run host-side NumPy: placement is rejected
        # rather than silently ignored
        graph = FusionGraph.canonical()
        graph.insert_after("fuse", Stage(name="denoise", fn=noop,
                                         placement="fpga"))
        with pytest.raises(ConfigurationError, match="cannot be placed"):
            lower(graph, small_config())

    def test_map_stages_are_host_placed_in_the_plan(self):
        graph = FusionGraph.canonical()
        graph.insert_after("fuse", Stage(name="denoise", fn=noop))
        plan = lower(graph, small_config())
        assert plan.node("denoise").engine == "host"
        assert plan.node("denoise").model_seconds == 0.0

    def test_dropping_a_forward_stage_fails_at_lowering(self):
        """A fuse stage without both pyramids must be a clear planning
        error, not an AttributeError inside an executor thread."""
        graph = FusionGraph.canonical()
        graph.drop("visible")
        with pytest.raises(ConfigurationError, match="forward"):
            lower(graph, small_config())
        with pytest.raises(ConfigurationError, match="forward"):
            FusionSession(small_config(
                graph_overrides={"drop": ("thermal",)}))

    def test_fuse_must_be_fed_by_both_forwards(self):
        graph = FusionGraph.canonical()
        graph.disconnect("fuse", "thermal")
        graph.connect("finalize", "thermal")  # keep thermal reachable
        graph.validate()
        with pytest.raises(ConfigurationError, match="never reach"):
            lower(graph, small_config())

    def test_connect_and_disconnect_validation(self):
        graph = FusionGraph.canonical()
        with pytest.raises(ConfigurationError, match="no stage"):
            graph.connect("fuse", "nowhere")
        with pytest.raises(ConfigurationError, match="does not depend"):
            graph.disconnect("fuse", "ingest")
        graph.connect("fuse", "visible")  # already present: no-op
        assert graph.stage("fuse").after == ("visible", "thermal")

    def test_session_graph_is_a_defensive_copy(self):
        """Edits to session.graph after construction would be dead
        code (the plan is lowered once); the property hands back a
        copy so such edits cannot silently diverge from the plan."""
        with FusionSession(small_config()) as session:
            session.graph.insert_after("fuse", Stage(name="tag",
                                                     fn=noop))
            assert "tag" not in session.graph
            assert "tag" not in session.plan

    def test_renamed_builtin_stage_rejected(self):
        graph = FusionGraph()
        graph.add(Stage(name="ingest", kind="ingest", state=ORDERED))
        graph.add(Stage(name="blend", kind="fuse", after=("ingest",)))
        graph.add(Stage(name="finalize", kind="finalize", state=ORDERED,
                        after=("blend",)))
        with pytest.raises(ConfigurationError, match="canonical name"):
            lower(graph, small_config())

    def test_plan_as_dict_is_json_serializable(self):
        plan = lower(FusionGraph.canonical(), small_config())
        payload = json.loads(json.dumps(plan.as_dict()))
        assert payload["schedule"][0] == "ingest"
        assert payload["stages"][0]["role"] == "head"
        assert payload["model_seconds_per_frame"] > 0



# ----------------------------------------------------------------------
class TestSessionPlanIntegration:
    def test_session_exposes_graph_and_plan(self):
        with FusionSession(small_config()) as session:
            assert session.plan.schedule[0] == "ingest"
            assert "fuse" in session.graph
            fork = session.canonical_graph()
            fork.add_stage("x", noop, after=("fuse",))
            # the fork is independent: the session's graph is untouched
            assert "x" not in session.graph

    def test_graph_overrides_drop_and_place(self):
        config = small_config(
            registration=True,
            graph_overrides={"drop": ("register",),
                             "place": {"fuse": "fpga"}})
        with FusionSession(config) as session:
            assert "register" not in session.graph
            assert session.plan.node("fuse").engine == "fpga"
            report = session.run(2)
        assert report.frames == 2

    def test_graph_overrides_insert_after(self):
        marks = []

        def tag(task):
            marks.append(task.index)

        config = small_config(graph_overrides={
            "insert_after": {"fuse": Stage(name="tag", fn=tag)}})
        with FusionSession(config) as session:
            session.run(3)
        assert marks == [0, 1, 2]

    def test_bad_overrides_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="graph_overrides"):
            small_config(graph_overrides={"teleport": ()})
        with pytest.raises(ConfigurationError, match="Stage"):
            small_config(graph_overrides={"insert_after": {"fuse": noop}})

    def test_ordered_stage_guard_trips_on_concurrent_drive(self):
        """Computing a sequential plan from two threads at once, each
        on its own worker context, is an executor-contract violation:
        the ordered stage raises FusionError instead of silently
        corrupting cross-frame state."""
        entered = threading.Event()
        release = threading.Event()

        def slow(task):
            entered.set()
            release.wait(timeout=5)

        graph = FusionGraph.canonical()
        graph.insert_after("fuse", Stage(name="slow", fn=slow,
                                         state=ORDERED))
        with FusionSession(small_config()) as session:
            processor = session._processor_for(graph)
            assert processor.sequential
            tasks = [processor.ingest(
                FramePair(visible=np.zeros((40, 40)),
                          thermal=np.zeros((40, 40))), i) for i in range(2)]
            contexts = processor.make_contexts(2)
            errors = []

            def drive():
                try:
                    processor.compute([tasks[0]], contexts[0])
                except FusionError as exc:
                    errors.append(exc)

            first = threading.Thread(target=drive)
            first.start()
            assert entered.wait(timeout=5)
            with pytest.raises(FusionError, match="ordered stage"):
                processor.compute([tasks[1]], contexts[1])
            release.set()
            first.join(timeout=5)
            assert not errors  # the first drive held the lane legally
