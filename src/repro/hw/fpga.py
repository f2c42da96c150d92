"""FPGA wavelet-engine execution path (PL side of the ZYNQ).

Two cooperating pieces:

* :class:`HlsBackend` — a functional kernel backend that slices every
  2-D filtering primitive into halo-extended lines, laid out exactly
  the way the user-space application feeds the real accelerator through
  the kernel driver's mmap'd buffers, and pushes each pass's lines
  through the :class:`~repro.hw.hls.HlsWaveletEngine` datapath model in
  one call.  Arithmetic is float32, like the synthesized engine.
* :class:`FpgaEngine` — the timing/energy side: it converts the shared
  work model into per-invocation :class:`~repro.hw.driver.PassCost`
  records (user memcpy, AXI-Lite commands, driver activation, PL
  cycles) and runs them through the Fig. 5 double-buffering schedule
  (:meth:`FpgaEngine.passes_time`).

The per-invocation command cost is the term that makes the FPGA *lose*
below the ~40x40 crossover — the paper's central observation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..dtcwt.backend import KernelBackend
from ..dtcwt.coeffs import DtcwtBanks
from ..errors import EngineError
from ..types import TimingBreakdown
from .axi import AxiLiteModel
from .calibration import DEFAULT_CALIBRATION, Calibration
from .driver import PassCost, WaveletDriver
from .engine import Engine
from .hls import HlsWaveletEngine
from .platform import DEFAULT_PLATFORM, ZynqPlatform
from .work import FilterPass


def pad_filter_pair(h0: np.ndarray, c0: int, h1: np.ndarray, c1: int
                    ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Align two filters on a common center and length.

    The hardware holds both filters in equal-length coefficient
    registers; shorter/offset filters are zero-padded.  Returns
    ``(f0, f1, common_center)`` with ``len(f0) == len(f1)``.
    """
    center = max(c0, c1)
    length = max(len(h0) + center - c0, len(h1) + center - c1)
    f0 = np.zeros(length, dtype=np.float32)
    f1 = np.zeros(length, dtype=np.float32)
    f0[center - c0: center - c0 + len(h0)] = h0
    f1[center - c1: center - c1 + len(h1)] = h1
    return f0, f1, center


class HlsBackend(KernelBackend):
    """Kernel backend executing every line on the HLS engine model."""

    def __init__(self, engine: Optional[HlsWaveletEngine] = None,
                 driver: Optional[WaveletDriver] = None,
                 platform: ZynqPlatform = DEFAULT_PLATFORM):
        super().__init__(dtype=np.float32)
        self.engine = engine if engine is not None else HlsWaveletEngine(platform)
        self.driver = driver if driver is not None else WaveletDriver(platform)
        self._registers: Dict[tuple, tuple] = {}
        self._loaded_key: Optional[bytes] = None

    # -- coefficient management -----------------------------------------
    def _load(self, h0, h1, c0=None, c1=None,
              reverse=False) -> Tuple[int, int]:
        """Load ``h0``/``h1`` (centered ones padded, flipped if ``reverse``)
        unless loaded; returns ``(taps, center)``.  Each pair of filter
        objects (the banks' arrays, never written) is prepared once."""
        key = (id(h0), id(h1), c0, c1, reverse)
        entry = self._registers.get(key)
        if entry is None:
            f0, f1 = np.asarray(h0, np.float32), np.asarray(h1, np.float32)
            center = 0
            if c0 is not None:
                f0, f1, center = pad_filter_pair(f0, c0, f1, c1)
            if reverse:
                f0, f1 = f0[::-1].copy(), f1[::-1].copy()
            if len(self._registers) >= 64:  # callers passing fresh arrays
                self._registers.clear()
            # holding h0/h1 keeps their ids from being reused
            entry = self._registers[key] = (h0, h1, f0, f1, center,
                                            f0.tobytes() + f1.tobytes())
        _, _, f0, f1, center, loaded_key = entry
        if loaded_key != self._loaded_key:
            self.engine.load_coefficients(f0, f1)
            self._loaded_key = loaded_key
        return len(f0), center

    # -- line plumbing ----------------------------------------------------
    #
    # Each primitive swaps the filtered axis last (a view) and hands the
    # engine the whole pass, a batched call's frames included, in one
    # call; the engine still counts one invocation per line.
    def _check_width(self, n: int) -> None:
        if n > self.driver.area_words:
            raise EngineError(
                f"line of {n} words exceeds the {self.driver.area_words}-word "
                "buffer area (the hardware supports widths up to 2048 pixels)"
            )

    # -- primitives --------------------------------------------------------
    def analysis_u(self, x, h0, c0, h1, c1, axis):
        lines = np.asarray(x, dtype=np.float32).swapaxes(axis, -1)
        n = lines.shape[-1]
        self._check_width(n)
        taps, center = self._load(h0, h1, c0, c1)
        ext_idx = self._indices(n, taps, center + 1 - taps)
        lo, hi, _ = self.engine.forward_line(lines[..., ext_idx], n, step=1)
        return lo.swapaxes(axis, -1), hi.swapaxes(axis, -1)

    def analysis_d(self, x, h0, h1, axis):
        lines = np.asarray(x, dtype=np.float32).swapaxes(axis, -1)
        n = lines.shape[-1]
        self._check_width(n)
        taps, _ = self._load(h0, h1)
        out_len = n // 2
        ext_idx = self._indices(n, taps, 1 - taps)[:(out_len - 1) * 2 + taps]
        lo, hi, _ = self.engine.forward_line(lines[..., ext_idx], out_len,
                                             step=2)
        return lo.swapaxes(axis, -1), hi.swapaxes(axis, -1)

    def synthesis_d(self, lo, hi, h0, h1, axis):
        lo_l = np.asarray(lo, dtype=np.float32).swapaxes(axis, -1)
        hi_l = np.asarray(hi, dtype=np.float32).swapaxes(axis, -1)
        n = lo_l.shape[-1] * 2
        self._check_width(n)
        taps, _ = self._load(h0, h1)
        up = np.zeros((2,) + lo_l.shape[:-1] + (n,), dtype=np.float32)
        up[..., 0::2] = lo_l, hi_l  # zero-stuff both channels at once
        out, _ = self.engine.inverse_line(up[..., self._indices(n, taps, 0)],
                                          n)
        return out.swapaxes(axis, -1)

    def synthesis_u(self, u0, u1, g0, c0, g1, c1, axis):
        u0_l = np.asarray(u0, dtype=np.float32).swapaxes(axis, -1)
        u1_l = np.asarray(u1, dtype=np.float32).swapaxes(axis, -1)
        n = u0_l.shape[-1]
        self._check_width(n)
        # inverse mode correlates; the reversed pair realizes the
        # centered convolution of the level-1 synthesis identity
        taps, center = self._load(g0, g1, c0, c1, reverse=True)
        ext_idx = self._indices(n, taps, center + 1 - taps)
        channels = np.stack((u0_l, u1_l))[..., ext_idx]
        out, _ = self.engine.inverse_line(channels, n)
        return out.swapaxes(axis, -1)


class FpgaEngine(Engine):
    """ARM+FPGA execution: transforms on the PL, control and fusion on the PS."""

    name = "fpga"
    power_mode = "fpga"
    #: the synthesized datapath is single-precision, full stop — an
    #: explicit float64 request is a configuration error, not a cast
    supported_precisions = ("float32",)

    def __init__(self, platform: ZynqPlatform = DEFAULT_PLATFORM,
                 calibration: Calibration = DEFAULT_CALIBRATION,
                 banks: Optional[DtcwtBanks] = None,
                 double_buffered: bool = True):
        super().__init__(platform, calibration, banks)
        self.double_buffered = double_buffered
        self.axilite = AxiLiteModel(platform)
        self._hls = self._new_hls()

    def _new_hls(self) -> HlsWaveletEngine:
        return HlsWaveletEngine(
            self.platform, max_taps=max(self.banks.max_taps, 20),
            pipeline_depth=self.calibration.fpga_pipeline_depth_cycles)

    # ------------------------------------------------------------------
    def make_backend(self, precision: Optional[str] = None) -> HlsBackend:
        self.working_dtype(precision)  # validation only; always float32
        return HlsBackend(engine=self._new_hls(), platform=self.platform)

    # ------------------------------------------------------------------
    def passes_time(self, passes: Sequence[FilterPass],
                    direction: str) -> TimingBreakdown:
        """The passes through the Fig. 5 schedule (one driver
        invocation each), plus the coefficient reloads of every level
        they touch."""
        breakdown = self._schedule(passes)
        return replace(breakdown, command_s=breakdown.command_s
                       + self._coefficient_load_s(passes))

    def _model_params(self) -> Tuple[bool]:
        return (self.double_buffered,)

    # ------------------------------------------------------------------
    def _engine_taps(self, level: int) -> int:
        if level == 1:
            bank = self.banks.level1
            f0, _, _ = pad_filter_pair(bank.h0, bank.c_h0, bank.h1, bank.c_h1)
            return len(f0)
        return self.banks.qshift.length

    def _pass_cost(self, p: FilterPass) -> PassCost:
        cal = self.calibration
        taps = self._engine_taps(p.level)
        words_in = p.words_in + taps            # halo included in the copy
        words_out = p.words_out
        if p.direction == "forward" and p.level > 1:
            iterations = p.out_len + taps // 2  # two samples per cycle
        else:
            iterations = p.out_len + taps
        hw_s = self._hls.line_seconds_estimate(words_in, words_out, iterations)
        ps_in_s = words_in * cal.fpga_ps_word_s
        if p.direction == "inverse":
            # synthesis feeds two channel lines: an extra user memcpy
            # plus the zero-stuffing loop
            ps_in_s += cal.fpga_inverse_marshal_s
        return PassCost(
            ps_in_s=ps_in_s,
            ps_out_s=words_out * cal.fpga_ps_word_s,
            hw_s=hw_s,
            cmd_s=(cal.fpga_driver_invocation_s
                   + self.axilite.write_s(cal.fpga_axilite_writes_per_pass)),
        )

    def _schedule(self, passes: Sequence[FilterPass]) -> TimingBreakdown:
        driver = WaveletDriver(self.platform)
        costs = [self._pass_cost(p) for p in passes]
        return driver.schedule(costs, double_buffered=self.double_buffered)

    def _coefficient_load_s(self, passes: Sequence[FilterPass]) -> float:
        """Reloading the coefficient registers when the filter set
        changes: 3 primitive calls at level 1 and 12 (three per tree) at
        each later level ``passes`` touch."""
        primitive_calls = sum(3 if level == 1 else 12
                              for level in {p.level for p in passes})
        taps = self.banks.max_taps
        per_load = (self.calibration.fpga_driver_invocation_s
                    + self.axilite.write_s(2 * taps)
                    + taps * self.platform.pl_cycle_s)
        return primitive_calls * per_load
