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

Registered as ``"jit"``; it widens the heterogeneous design space the
schedulers and the plan autotuner explore, without joining the
paper-default engine trio (see :func:`repro.hw.registry.default_engines`).
"""

from __future__ import annotations

from ..types import FrameShape, TimingBreakdown
from .engine import Engine


class JitEngine(Engine):
    """Compiled execution on the host CPU (halo-extension kernels)."""

    name = "jit"
    power_mode = "host"

    def _forward_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        return self._passes_time(
            self.work_model(shape, levels).forward_passes(),
            self.calibration.jit_mac_rate_fwd)

    def _inverse_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        return self._passes_time(
            self.work_model(shape, levels).inverse_passes(),
            self.calibration.jit_mac_rate_inv)

    def _passes_time(self, passes, mac_rate: float) -> TimingBreakdown:
        macs = sum(p.macs for p in passes)
        return TimingBreakdown(
            compute_s=macs / mac_rate,
            overhead_s=len(passes) * self.calibration.jit_pass_overhead_s,
        )


__all__ = ["JitEngine"]
