"""Planner precision metadata and precision-aware engine resolution."""

import pytest

from repro.core.adaptive import bind_engine
from repro.errors import ConfigurationError
from repro.graph import FusionGraph, Planner
from repro.session import FusionConfig


def plan_for(graph, config):
    """``graph`` lowered on the config's own binding, as a session
    lowers it."""
    return Planner().lower(graph, config, bind_engine(config))


def lower(**kw):
    config = FusionConfig(fusion_shape=(40, 32), levels=2, **kw)
    return plan_for(FusionGraph.canonical(
        registration=config.registration, temporal=config.temporal),
        config)


class TestPlannedKernelMetadata:
    def test_engine_stages_carry_kernel_and_dtype(self):
        plan = lower(engine="neon")
        for name in ("visible", "thermal", "fuse"):
            node = plan.node(name)
            assert node.kernel == "neon"
            assert node.precision == "float32"  # engine-native default

    def test_host_stages_carry_no_kernel(self):
        plan = lower(engine="neon")
        for name in ("ingest", "finalize"):
            assert plan.node(name).kernel == ""
            assert plan.node(name).precision == ""

    def test_explicit_precision_threads_through(self):
        plan = lower(engine="jit", precision="float64")
        assert plan.node("fuse").kernel == "jit"
        assert plan.node("fuse").precision == "float64"

    def test_as_dict_and_describe_expose_kernels(self):
        plan = lower(engine="jit", precision="float32")
        stages = {s["name"]: s for s in plan.as_dict()["stages"]}
        assert stages["fuse"]["kernel"] == "jit"
        assert stages["fuse"]["precision"] == "float32"
        assert "kernels      : " in plan.describe()
        assert "fuse=jit/float32" in plan.describe()

    def test_team_placement_reports_member_kernels(self):
        """A mixed placement reports each stage's own engine kernel."""
        graph = (FusionGraph.canonical().place("visible", "arm")
                 .place("thermal", "neon"))
        plan = plan_for(graph, FusionConfig(
            engine="adaptive", fusion_shape=(40, 32), levels=2))
        assert (plan.node("visible").engine,
                plan.node("visible").kernel) == ("arm", "arm")
        assert (plan.node("thermal").engine,
                plan.node("thermal").kernel) == ("neon", "neon")
        for name in ("visible", "thermal"):
            assert plan.node(name).precision == "float32"

    def test_forced_fpga_under_float64_fails_at_plan_time(self):
        graph = FusionGraph.canonical().place("fuse", "fpga")
        config = FusionConfig(engine="neon", precision="float64",
                              fusion_shape=(40, 32), levels=2)
        with pytest.raises(ConfigurationError, match="fpga"):
            plan_for(graph, config)


class TestPrecisionAwareResolution:
    def test_adaptive_float64_never_picks_fpga(self):
        """The full paper frame normally goes to the FPGA; pinning
        float64 must re-route auto placements to a CPU engine."""
        native = plan_for(FusionGraph.canonical(),
                          FusionConfig(engine="adaptive"))
        assert native.node("fuse").engine == "fpga"
        pinned = plan_for(FusionGraph.canonical(),
                          FusionConfig(engine="adaptive",
                                       precision="float64"))
        assert pinned.node("fuse").engine in ("arm", "neon")
        assert pinned.node("fuse").precision == "float64"

    def test_online_float64_probe_engine_supports_it(self):
        plan = lower(engine="online", precision="float64")
        assert plan.dynamic_engine
        assert plan.node("fuse").engine in ("arm", "neon")

