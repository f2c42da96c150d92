"""JIT-compiled host engine model (extension; not a paper device).

Models the wavelet datapath compiled for the host CPU.  Only the
timing model is its own: the ARM scalar model's shape with compiled
throughput, each filtering pass charged its MAC work at a fitted
compiled rate plus a much smaller per-pass overhead (no interpreter
loop setup).  The functional path is the host kernel backend every
host engine shares (:class:`~repro.dtcwt.backend.KernelBackend`,
inherited from :class:`~repro.hw.engine.Engine`): halo-extension
kernels compiled with Numba when available, evaluated with strided
NumPy otherwise, bitwise-identical either way.

Registered as ``"jit"``; it widens the heterogeneous design space
that explicit selection and forced stage placement reach, without
joining the paper-default engine trio
(see :func:`repro.hw.registry.default_engines`).
"""

from __future__ import annotations

from typing import Sequence

from ..types import TimingBreakdown
from .engine import Engine, by_direction
from .work import FilterPass


class JitEngine(Engine):
    """Compiled execution on the host CPU (halo-extension kernels)."""

    name = "jit"
    power_mode = "host"

    def passes_time(self, passes: Sequence[FilterPass],
                    direction: str) -> TimingBreakdown:
        cal = self.calibration
        mac_rate = by_direction(direction, cal.jit_mac_rate_fwd,
                                cal.jit_mac_rate_inv)
        return TimingBreakdown(
            compute_s=sum(p.macs for p in passes) / mac_rate,
            overhead_s=len(passes) * cal.jit_pass_overhead_s,
        )


__all__ = ["JitEngine"]
