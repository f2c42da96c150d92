"""NEON SIMD engine model.

NEON is the 128-bit SIMD extension of the Cortex-A9: 4 float32 lanes per
quad register.  The paper vectorizes the transform inner loops both with
intrinsics and with g++ auto-vectorization (``-mfpu=neon
-ftree-vectorize``) and reports ~10 % (forward) / ~16 % (inverse) gains
— modest, because only the MAC loops vectorize and the code is
memory-bound.

The timing model splits each pass's MAC work into a vectorizable
fraction (fitted per direction) executed at ``lanes x efficiency``
speedup and a scalar remainder.  Outputs beyond the last multiple of
the lane count fall back to scalar code — the loop-epilogue effect the
paper calls out ("an iteration count with a multiple of 4 is used",
Section IV); it penalizes the odd 35x35 frames.

Lanes live only in that model.  The functional path is the host kernel
backend (:class:`~repro.dtcwt.backend.KernelBackend`, inherited from
:class:`~repro.hw.engine.Engine`) in float32, the same arithmetic as
the ARM engine: NEON single precision is IEEE-compliant for MACs, so
vectorizing does not change a result bit.
"""

from __future__ import annotations

from ..types import FrameShape, TimingBreakdown
from .engine import Engine


class NeonEngine(Engine):
    """ARM + NEON SIMD execution (the paper's ARM+NEON configuration)."""

    name = "neon"
    power_mode = "neon"

    def _forward_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        return self._passes_time(
            self.work_model(shape, levels).forward_passes(),
            self.calibration.arm_mac_rate_fwd,
            self.calibration.neon_vector_fraction_fwd,
        )

    def _inverse_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        return self._passes_time(
            self.work_model(shape, levels).inverse_passes(),
            self.calibration.arm_mac_rate_inv,
            self.calibration.neon_vector_fraction_inv,
        )

    def _passes_time(self, passes, mac_rate: float,
                     vector_fraction: float) -> TimingBreakdown:
        cal = self.calibration
        vector_rate = mac_rate * cal.neon_lanes * cal.neon_lane_efficiency
        compute = 0.0
        for p in passes:
            aligned = (p.out_len // cal.neon_lanes) * cal.neon_lanes
            aligned_fraction = aligned / p.out_len if p.out_len else 0.0
            vec_macs = p.macs * vector_fraction * aligned_fraction
            scalar_macs = p.macs - vec_macs
            compute += vec_macs / vector_rate + scalar_macs / mac_rate
        return TimingBreakdown(
            compute_s=compute,
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
