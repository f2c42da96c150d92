"""ARM Cortex-A9 scalar engine model.

The baseline of the paper's comparison: the whole fusion algorithm in
plain C++ on the PS.  The functional path is the host kernel backend
(:class:`~repro.dtcwt.backend.KernelBackend`, inherited from
:class:`~repro.hw.engine.Engine`) in float32 (the paper's code uses
``float``); the timing model charges each filtering pass its MAC work
at a fitted scalar throughput plus a small per-pass overhead — the same
workload description all engines share (:mod:`repro.hw.work`).
"""

from __future__ import annotations

from ..types import FrameShape, TimingBreakdown
from .engine import Engine


class ArmEngine(Engine):
    """Scalar execution on the ARM Cortex-A9 (533 MHz PS)."""

    name = "arm"
    power_mode = "arm"

    def _forward_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        return self._passes_time(self.work_model(shape, levels).forward_passes(),
                                 self.calibration.arm_mac_rate_fwd)

    def _inverse_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        return self._passes_time(self.work_model(shape, levels).inverse_passes(),
                                 self.calibration.arm_mac_rate_inv)

    def _passes_time(self, passes, mac_rate: float) -> TimingBreakdown:
        macs = sum(p.macs for p in passes)
        return TimingBreakdown(
            compute_s=macs / mac_rate,
            overhead_s=len(passes) * self.calibration.arm_pass_overhead_s,
        )
