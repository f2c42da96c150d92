"""The precision-selectable datapath, end to end.

Config validation, bitwise guarantees across sessions and executors,
and the CLI ``--precision`` surface.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

SMALL = FrameShape(40, 40)


def small_config(**overrides):
    defaults = dict(engine="neon", fusion_shape=SMALL, levels=2,
                    scene=SyntheticScene(width=96, height=80, seed=5))
    defaults.update(overrides)
    return FusionConfig(**defaults)


def fused_pixels(config, limit=3):
    """The fused uint8 output frames — the session's public product."""
    session = FusionSession(config)
    source = SyntheticSource(scene=SyntheticScene(width=96, height=80,
                                                  seed=5))
    return [r.pixels for r in session.stream(source, limit=limit)]


class TestConfigValidation:
    def test_invalid_precision_rejected(self):
        with pytest.raises(ConfigurationError, match="precision"):
            small_config(precision="float16")

    def test_fpga_cannot_run_float64(self):
        with pytest.raises(ConfigurationError, match="float64"):
            small_config(engine="fpga", precision="float64")

    def test_team_members_validated_eagerly(self):
        """A placed stage whose engine cannot run the precision fails
        when the session is built, before any frame runs."""
        config = small_config(engine="adaptive", precision="float64",
                              graph_overrides={"place": {"thermal": "fpga"}})
        with pytest.raises(ConfigurationError, match="float64"):
            FusionSession(config)

    def test_scheduler_modes_accept_float64(self):
        """adaptive/online filter candidates at runtime rather than
        failing eagerly — the CPU engines can always run float64."""
        small_config(engine="adaptive", precision="float64")
        small_config(engine="online", precision="float64")


class TestEndToEndParity:
    def test_explicit_float32_is_bitwise_native(self):
        """Every engine is float32-native, so pinning float32
        explicitly must not change a single bit."""
        native = fused_pixels(small_config(precision=None))
        pinned = fused_pixels(small_config(precision="float32"))
        for a, b in zip(native, pinned):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_jit_engine_is_bitwise_arm(self, precision):
        """Kernel swap at fixed dtype is never a numerics change."""
        arm = fused_pixels(small_config(engine="arm",
                                        precision=precision))
        jit = fused_pixels(small_config(engine="jit",
                                        precision=precision))
        for a, b in zip(arm, jit):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("precision,expect",
                             [(None, np.float32),
                              ("float64", np.float64)])
    def test_session_fusers_run_at_working_dtype(self, precision, expect):
        session = FusionSession(small_config(engine="arm",
                                             precision=precision))
        dtypes = {f.transform.backend.dtype
                  for f in session._serial._lanes.values()}
        assert dtypes == {np.dtype(expect)}

    @pytest.mark.parametrize("executor", ["serial", "pipeline", "batch"])
    def test_precision_survives_every_executor(self, executor):
        frames = fused_pixels(small_config(engine="jit",
                                           precision="float64",
                                           executor=executor,
                                           workers=2))
        serial = fused_pixels(small_config(engine="jit",
                                           precision="float64"))
        for a, b in zip(frames, serial):
            assert np.array_equal(a, b)

    def test_adaptive_float64_streams(self):
        """The scheduler silently drops the float32-only FPGA from its
        candidate set and still fuses every frame."""
        session = FusionSession(small_config(engine="adaptive",
                                             precision="float64"))
        source = SyntheticSource(scene=SyntheticScene(width=96,
                                                      height=80, seed=5))
        results = list(session.stream(source, limit=2))
        assert len(results) == 2
        assert all(r.engine != "fpga" for r in results)


class TestCliPrecision:
    def test_demo_accepts_precision(self, capsys):
        assert main(["demo", "--frames", "2", "--size", "40x40",
                     "--levels", "2", "--engine", "jit",
                     "--precision", "float32", "--json"]) == 0

    def test_plan_explain_shows_kernel_bindings(self, capsys):
        assert main(["plan", "--size", "40x40", "--levels", "2",
                     "--engine", "jit", "--precision", "float64",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "kernel bindings" in out
        assert "kernel=jit dtype=float64" in out

    def test_plan_rejects_impossible_precision(self, capsys):
        assert main(["plan", "--size", "40x40", "--levels", "2",
                     "--engine", "fpga", "--precision", "float64"]) != 0

