"""GPU-class engine model (extension; not a paper device).

"Comparing Energy Efficiency of CPU, GPU and FPGA Implementations for
Vision Kernels" (PAPERS.md) motivates widening the modelled design
space with a GPU-class accelerator: enormous arithmetic throughput,
but every kernel pays a host-side launch and every buffer crosses the
host<->device link.  This module models exactly that trade:

* **compute** — pass MACs at :attr:`Calibration.gpu_mac_rate`, orders
  of magnitude above the embedded engines;
* **transfer** — the session orchestrates per pass, so each pass
  uploads its input words and downloads its output words over the
  link (``gpu_word_s`` per 32-bit word) plus a fixed DMA setup
  latency per pass;
* **command** — one kernel launch per filtering pass.

Per-invocation costs are what make the GPU *lose* at the paper's
small frames — the same crossover structure as the FPGA's driver
invocation cost, shifted by a device class.  Power-wise the ``gpu``
mode draws an attached-accelerator rail (see
:mod:`repro.hw.power`), so the energy crossover sits far above the
latency crossover: the CostModelScheduler will happily pick the GPU
for time and refuse it for energy at frame sizes where both are
defensible.

The functional path is the host kernel backend every host engine
shares (:class:`~repro.dtcwt.backend.KernelBackend`, inherited from
:class:`~repro.hw.engine.Engine`): arithmetic on a real GPU would be
IEEE float32 just like the host path, so the modelled engine computes
bit-identical results to the ``arm``, ``neon`` and ``jit`` engines at
the same precision.
"""

from __future__ import annotations

from typing import Sequence

from ..types import TimingBreakdown
from .engine import Engine
from .work import FilterPass


class GpuEngine(Engine):
    """Modelled discrete GPU-class accelerator with transfer accounting."""

    name = "gpu"
    power_mode = "gpu"

    def passes_time(self, passes: Sequence[FilterPass],
                    direction: str) -> TimingBreakdown:
        # one launch and one round trip per pass, either direction
        cal = self.calibration
        macs = sum(p.macs for p in passes)
        words = sum(p.words_in + p.words_out for p in passes)
        return TimingBreakdown(
            compute_s=macs / cal.gpu_mac_rate,
            transfer_s=(words * cal.gpu_word_s
                        + len(passes) * cal.gpu_transfer_latency_s),
            command_s=len(passes) * cal.gpu_kernel_launch_s,
        )


__all__ = ["GpuEngine"]
