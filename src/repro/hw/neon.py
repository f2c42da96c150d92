"""NEON SIMD engine model.

NEON is the 128-bit SIMD extension of the Cortex-A9: 4 float32 lanes per
quad register.  The paper vectorizes the transform inner loops both with
intrinsics and with g++ auto-vectorization (``-mfpu=neon
-ftree-vectorize``) and reports ~10 % (forward) / ~16 % (inverse) gains
— modest, because only the MAC loops vectorize and the code is
memory-bound.

The timing model is one strategy of :mod:`repro.hw.vectorization`:
:meth:`NeonEngine.passes_time` prices a pass list with
:func:`~repro.hw.vectorization.strategy_seconds` — every loop
vectorized, the calibrated ``neon_lane_efficiency`` of the 4-lane
ideal, no loop overhead — plus the ARM's per-pass overhead.  That
splits each pass's
MAC work into a vectorizable fraction (fitted per direction) executed
at ``lanes x efficiency`` speedup and a scalar remainder.  Outputs
beyond the last multiple of the lane count fall back to scalar code —
the loop-epilogue effect the paper calls out ("an iteration count with
a multiple of 4 is used", Section IV); it penalizes the odd 35x35
frames.

Lanes live only in that model.  The functional path is the host kernel
backend (:class:`~repro.dtcwt.backend.KernelBackend`, inherited from
:class:`~repro.hw.engine.Engine`) in float32, the same arithmetic as
the ARM engine: NEON single precision is IEEE-compliant for MACs, so
vectorizing does not change a result bit.
"""

from __future__ import annotations

from typing import Sequence

from ..types import FrameShape, TimingBreakdown
from .engine import Engine, by_direction
from .vectorization import VectorizationStrategy, strategy_seconds
from .work import FilterPass


class NeonEngine(Engine):
    """ARM + NEON SIMD execution (the paper's ARM+NEON configuration)."""

    name = "neon"
    power_mode = "neon"

    def passes_time(self, passes: Sequence[FilterPass],
                    direction: str) -> TimingBreakdown:
        cal = self.calibration
        mac_rate, vector_fraction = by_direction(
            direction,
            (cal.arm_mac_rate_fwd, cal.neon_vector_fraction_fwd),
            (cal.arm_mac_rate_inv, cal.neon_vector_fraction_inv))
        strategy = VectorizationStrategy(
            name=self.name, coverage=1.0,
            lane_efficiency=cal.neon_lane_efficiency, loop_overhead_macs=0.0)
        return TimingBreakdown(
            compute_s=strategy_seconds(strategy, passes, mac_rate,
                                       vector_fraction, cal.neon_lanes),
            overhead_s=len(passes) * cal.arm_pass_overhead_s,
        )

    def speedup_vs_arm(self, shape: FrameShape, levels: int = 3,
                       direction: str = "forward") -> float:
        """Convenience: ARM/NEON latency ratio for one transform."""
        from .arm import ArmEngine  # local import to avoid a cycle
        arm = ArmEngine(self.platform, self.calibration, self.banks)
        if direction == "forward":
            return (arm.forward_time(shape, levels).total_s
                    / self.forward_time(shape, levels).total_s)
        return (arm.inverse_time(shape, levels).total_s
                / self.inverse_time(shape, levels).total_s)
