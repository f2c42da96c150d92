"""JIT-compiled host engine model (extension; not a paper device).

The software analogue of the paper's HLS move: the same wavelet
datapath re-expressed for a faster engine.  The functional path is
:class:`~repro.dtcwt.jit_backend.JitBackend` — halo-extension kernels
compiled with Numba when available, evaluated with strided NumPy
otherwise, bitwise-identical to the reference either way.  The timing
model is the ARM scalar model's shape with compiled throughput: each
filtering pass is charged its MAC work at a fitted compiled rate plus
a much smaller per-pass overhead (no interpreter loop setup).

Registered as ``"jit"``; it widens the heterogeneous design space the
schedulers and the plan autotuner explore, without joining the
paper-default engine trio (see :func:`repro.hw.registry.default_engines`).
"""

from __future__ import annotations

from typing import Optional

from ..dtcwt.jit_backend import JitBackend
from ..types import FrameShape, TimingBreakdown
from .engine import Engine


class JitEngine(Engine):
    """Compiled execution on the host CPU (halo-extension kernels)."""

    name = "jit"
    power_mode = "host"

    def make_backend(self, precision: Optional[str] = None) -> JitBackend:
        return JitBackend(dtype=self.working_dtype(precision))

    # ------------------------------------------------------------------
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
