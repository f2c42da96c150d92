"""Functional + cycle model of the Vivado-HLS wavelet engine (paper Fig. 4).

The real engine is synthesized from C++ by VIVADO_HLS: a ``memcpy``
pulls one line (plus halo) from DDR into BRAM over the ACP, a
shift-register feeds two 12-tap MAC chains (high-pass and low-pass
accumulators) pipelined at II=1, and a second ``memcpy`` pushes the
results back.  An AXI4-Lite slave carries three commands: (1) load
filter coefficients, (2) forward transform, (3) inverse transform.

This module reproduces that structure:

* :class:`HlsWaveletEngine` holds the coefficient registers, executes
  line-sized jobs in **float32** (the hardware datapath precision) and
  accounts PL cycles per invocation with the paper's latency structure
  — the two memcpys are *not* pipelined with the processing loop
  ("the current VIVADO_HLS tools do not pipeline the memcpy's").
* :func:`shift_register_dual_fir` and :func:`shift_register_dual_synthesis`
  are literal, scalar transcriptions of the Fig. 4 inner loop in
  forward and inverse mode, used by the tests to pin the vectorized
  implementation to the documented datapath bit for bit.

The engine's unit of work is one halo-extended line, prepared by the
processing system (:mod:`repro.hw.driver`, :mod:`repro.hw.fpga`) the
way the Linux driver's user-space code would.  A whole pass arrives as
one sheet of lines, each counted as one invocation, and one sweep runs
both MAC chains over it as the hardware does: the registers sit side by
side as ``(taps, 2)``; per block of lines, one float32 multiply makes
every tap's products over both chains, and one float32 sum adds them
tap by tap from +0.0, in the Fig. 4 order.  Mode 2 feeds its sheet to
both chains; mode 3 feeds each chain its own half of a ``(2, ...)``
lo/hi stack and sums the two accumulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import EngineError
from .axi import AcpModel
from .platform import DEFAULT_PLATFORM, ZynqPlatform

MODE_IDLE = 0
MODE_LOAD_COEFFS = 1
MODE_FORWARD = 2
MODE_INVERSE = 3


def shift_register_dual_fir(extended: np.ndarray, hp: np.ndarray,
                            lp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar transcription of the Fig. 4 datapath (reference only).

    Consumes two interleaved input samples per iteration, multiplies the
    shift register against both coefficient registers and emits one
    (hp, lp) output pair once the register is primed.  ``extended`` must
    contain ``2 * out_len + taps`` float32 samples (the halo included),
    mirroring the ``outwidth * 2 + 12`` words of the paper's buffer.

    Note the datapath computes a *correlation* against the coefficient
    registers (``out[m] = sum_j c[j] x[2m + j]``): the oldest sample
    meets register 0.  The driver therefore loads filter taps in
    reversed order when a convolution is wanted —
    :meth:`HlsWaveletEngine.forward_line` does this internally.
    """
    taps = len(hp)
    if len(lp) != taps:
        raise EngineError("hp/lp coefficient registers must match in length")
    if taps % 2:
        raise EngineError("the dual-sample datapath needs an even tap count")
    x = np.asarray(extended, dtype=np.float32)
    out_len = (len(x) - taps) // 2
    if out_len <= 0:
        raise EngineError(f"input of {len(x)} samples too short for {taps} taps")

    shift = np.zeros(taps, dtype=np.float32)
    hp_out = np.zeros(out_len, dtype=np.float32)
    lp_out = np.zeros(out_len, dtype=np.float32)
    prime = taps // 2
    for i in range(out_len + prime):
        hp_acc = np.float32(0.0)
        lp_acc = np.float32(0.0)
        for j in range(taps):
            hp_acc += np.float32(hp[j]) * shift[j]
            lp_acc += np.float32(lp[j]) * shift[j]
        shift[:-2] = shift[2:]
        shift[-2] = x[2 * i]
        shift[-1] = x[2 * i + 1]
        if i >= prime:
            hp_out[i - prime] = hp_acc
            lp_out[i - prime] = lp_acc
    return hp_out, lp_out


def shift_register_dual_synthesis(lo_ext: np.ndarray, hi_ext: np.ndarray,
                                  g0: np.ndarray, g1: np.ndarray
                                  ) -> np.ndarray:
    """Scalar transcription of the mode-3 datapath (reference only).

    Each channel line shifts through its own register, one sample per
    iteration, into its own float32 MAC chain (``lo_ext`` against
    ``g0``, ``hi_ext`` against ``g1``, oldest sample at register 0);
    the output is the sum of the two accumulators.
    """
    taps = len(g0)
    lo = np.asarray(lo_ext, dtype=np.float32)
    hi = np.asarray(hi_ext, dtype=np.float32)
    if len(g1) != taps or len(lo) != len(hi) or len(lo) < taps:
        raise EngineError("registers and channel lines must match in "
                          "length, and the lines must cover the taps")
    shift = np.zeros((2, taps), dtype=np.float32)
    out = np.zeros(len(lo) - taps + 1, dtype=np.float32)
    for i in range(len(lo)):
        shift[:, :-1] = shift[:, 1:]
        shift[:, -1] = lo[i], hi[i]
        if i >= taps - 1:
            lo_acc = hi_acc = np.float32(0.0)
            for j in range(taps):
                lo_acc += np.float32(g0[j]) * shift[0, j]
                hi_acc += np.float32(g1[j]) * shift[1, j]
            out[i - taps + 1] = lo_acc + hi_acc
    return out


#: bytes of the per-block ``(taps, 2, lines, out)`` product in
#: :func:`_mac`: lines go through in blocks this size keeps in cache
#: and out of fresh pages (a 16-frame sheet is a 7-15 MB product)
_MAC_BLOCK_BYTES = 1 << 20


def _mac(x: np.ndarray, coeffs: np.ndarray, out_len: int, step: int,
         shared: bool) -> np.ndarray:
    """Both Fig. 4 MAC chains over the last axis of ``x``, all lines at once:
    ``acc[k, ..., m] = sum_j x[..., m * step + j] * coeffs[j, k]``, float32.
    A ``shared`` sheet feeds both chains, else ``x[k]`` chain k.

    Per block of lines, one multiply makes every tap's products as a
    ``(taps, 2, lines, out)`` array (a strided window of ``x`` against
    the registers), then one float32 sum over its outermost, contiguous
    taps axis adds them tap by tap from +0.0: the Fig. 4 accumulation
    order, signed zeros included."""
    taps = coeffs.shape[0]
    chains = np.ascontiguousarray(x[None] if shared else x)
    lines = chains.shape[1:-1]
    n_lines = math.prod(lines)
    # window[j, k, l, m] = chains[k, l, m * step + j], k the chain (or
    # the one sheet both chains share), l the line
    item, samples = chains.itemsize, chains.shape[-1]
    window = np.ndarray(
        (taps, chains.shape[0], n_lines, out_len), np.float32, chains,
        strides=(item, n_lines * samples * item, samples * item,
                 step * item))
    regs = coeffs[:, :, None, None]
    acc = np.empty((2, n_lines, out_len), dtype=np.float32)
    block = max(1, _MAC_BLOCK_BYTES // (taps * 2 * out_len * item))
    product = np.empty((taps, 2, min(block, n_lines), out_len),
                       dtype=np.float32)
    for start in range(0, n_lines, block):
        stop = min(start + block, n_lines)
        part = product[:, :, :stop - start]
        np.multiply(window[:, :, start:stop], regs, out=part)
        np.add.reduce(part, axis=0, initial=np.float32(0.0),
                      out=acc[:, start:stop])
    return acc.reshape((2,) + lines + (out_len,))


@dataclass
class EngineStats:
    """Running counters of everything the engine has executed."""

    invocations: int = 0
    cycles: float = 0.0
    words_in: int = 0
    words_out: int = 0
    coefficient_loads: int = 0

    def reset(self) -> None:
        vars(self).update(vars(EngineStats()))


class HlsWaveletEngine:
    """Line-level functional model of the PL wavelet engine.

    Parameters
    ----------
    platform:
        Clock/bus description used for the cycle accounting.
    max_taps:
        Size of the coefficient registers.  The paper's engine uses 12;
        the default of 20 also accommodates the 9/19-tap level-1 bank.
    pipeline_depth:
        Register stages between BRAM read and accumulator write-back.
    """

    def __init__(self, platform: ZynqPlatform = DEFAULT_PLATFORM,
                 max_taps: int = 20, pipeline_depth: int = 20):
        if max_taps < 2:
            raise EngineError(f"max_taps must be >= 2, got {max_taps}")
        self.platform = platform
        self.max_taps = max_taps
        self.pipeline_depth = pipeline_depth
        self.acp = AcpModel(platform)
        self.mode = MODE_IDLE
        #: the two coefficient registers side by side: (tap, [lp, hp])
        self._coeffs = np.zeros((max_taps, 2), dtype=np.float32)
        self._loaded_taps = 0
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # command interface (what the AXI4-Lite slave exposes)
    # ------------------------------------------------------------------
    def load_coefficients(self, lp: np.ndarray, hp: np.ndarray) -> float:
        """Mode 1: load both coefficient registers; returns PL seconds."""
        lp = np.asarray(lp, dtype=np.float32)
        hp = np.asarray(hp, dtype=np.float32)
        if len(lp) != len(hp):
            raise EngineError("lp/hp filters must have equal length")
        if len(lp) > self.max_taps:
            raise EngineError(
                f"filter of {len(lp)} taps exceeds the {self.max_taps}-tap registers"
            )
        self.mode = MODE_LOAD_COEFFS
        self._coeffs[:] = 0.0
        self._coeffs[: len(lp)] = np.stack((lp, hp), axis=1)
        self._loaded_taps = len(lp)
        self.stats.coefficient_loads += 1
        self.mode = MODE_IDLE
        # one register pair per cycle through the AXI4-Lite-fed loader
        return len(lp) * self.platform.pl_cycle_s

    @property
    def loaded_taps(self) -> int:
        return self._loaded_taps

    # ------------------------------------------------------------------
    # line jobs: one line, or a sheet of lines (leading axes, samples
    # last) filtered identically and counted as one invocation per line
    # ------------------------------------------------------------------
    def forward_line(self, extended: np.ndarray, out_len: int,
                     step: int) -> Tuple[np.ndarray, np.ndarray, float]:
        """Mode 2: dual-filter one line, or every line of a sheet.

        ``extended`` holds the halo-extended input samples; ``step`` is
        the input stride per output (2 = decimated, 1 = undecimated).
        Returns ``(lp_out, hp_out, pl_seconds)``, the seconds per line.
        """
        if self._loaded_taps == 0:
            raise EngineError("no coefficients loaded (run mode 1 first)")
        if step not in (1, 2):
            raise EngineError(f"step must be 1 or 2, got {step}")
        taps = self._loaded_taps
        x = np.asarray(extended, dtype=np.float32)
        expected = (out_len - 1) * step + taps
        if x.shape[-1] < expected:
            raise EngineError(
                f"line of {x.shape[-1]} samples too short: need {expected} "
                f"for {out_len} outputs at step {step} with {taps} taps"
            )
        self.mode = MODE_FORWARD
        # the datapath correlates: newest-first registers convolve
        lp_out, hp_out = _mac(x, self._coeffs[taps - 1::-1], out_len, step,
                              shared=True)
        seconds = self._account(x.shape[:-1], x.shape[-1], out_len * 2,
                                out_len + (taps + 1) // 2)
        self.mode = MODE_IDLE
        return lp_out, hp_out, seconds

    def inverse_line(self, channels: np.ndarray,
                     out_len: int) -> Tuple[np.ndarray, float]:
        """Mode 3: dual-channel synthesis of one line, or of a sheet.

        ``channels`` stacks the zero-stuffed, halo-extended lo and hi
        channel lines as ``(2, lines..., samples)``; the datapath
        correlates each against its coefficient register and sums the
        accumulators (see :func:`shift_register_dual_synthesis`).
        Returns ``(line, seconds)``.
        """
        if self._loaded_taps == 0:
            raise EngineError("no coefficients loaded (run mode 1 first)")
        taps = self._loaded_taps
        ch = np.asarray(channels, dtype=np.float32)
        need = out_len + taps - 1
        if ch.ndim < 2 or ch.shape[0] != 2 or ch.shape[-1] < need:
            raise EngineError(
                f"need a (2, ..., >= {need}) stack of lo and hi "
                f"channel lines for {out_len} outputs, got {ch.shape}")
        self.mode = MODE_INVERSE
        acc = _mac(ch, self._coeffs[:taps], out_len, 1, shared=False)
        out = acc[0] + acc[1]
        seconds = self._account(ch.shape[1:-1], 2 * ch.shape[-1], out_len,
                                out_len + taps)
        self.mode = MODE_IDLE
        return out, seconds

    # ------------------------------------------------------------------
    # cycle accounting
    # ------------------------------------------------------------------
    def _line_cycles(self, words_in: int, words_out: int,
                     loop_iterations: int) -> float:
        """Latency of one invocation: memcpy-in, loop, memcpy-out (serial)."""
        return (self.acp.transfer_cycles(words_in)
                + loop_iterations + self.pipeline_depth
                + self.acp.transfer_cycles(words_out))

    def _account(self, sheet: Tuple[int, ...], words_in: int,
                 words_out: int, loop_iterations: int) -> float:
        """Count every line of a sheet of shape ``sheet``.

        One product stands for ``lines`` per-line additions, and the
        float total equals that of per-line calls: a line's cycle count
        is a multiple of ``1 / acp_words_per_cycle``, a power of two
        (2 words per cycle on the 64-bit ACP), and every running total
        stays far below ``2**53`` such units, so each sum is exact.
        """
        lines = math.prod(sheet)
        cycles = self._line_cycles(words_in, words_out, loop_iterations)
        self.stats.cycles += lines * cycles
        self.stats.invocations += lines
        self.stats.words_in += lines * words_in
        self.stats.words_out += lines * words_out
        return cycles * self.platform.pl_cycle_s

    def line_seconds_estimate(self, words_in: int, words_out: int,
                              loop_iterations: int) -> float:
        """Pure estimate (no counters) used by the analytic timing model."""
        return (self._line_cycles(words_in, words_out, loop_iterations)
                * self.platform.pl_cycle_s)
