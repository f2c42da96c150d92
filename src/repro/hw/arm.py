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

from typing import Sequence

from ..types import TimingBreakdown
from .engine import Engine, by_direction
from .work import FilterPass


class ArmEngine(Engine):
    """Scalar execution on the ARM Cortex-A9 (533 MHz PS)."""

    name = "arm"
    power_mode = "arm"

    def passes_time(self, passes: Sequence[FilterPass],
                    direction: str) -> TimingBreakdown:
        cal = self.calibration
        mac_rate = by_direction(direction, cal.arm_mac_rate_fwd,
                                cal.arm_mac_rate_inv)
        return TimingBreakdown(
            compute_s=sum(p.macs for p in passes) / mac_rate,
            overhead_s=len(passes) * cal.arm_pass_overhead_s,
        )
