"""Pluggable compute backends for the wavelet kernels.

The paper runs the *same* transform on three engines (ARM scalar code,
NEON SIMD intrinsics, FPGA wavelet hardware).  To mirror that, the
transforms in this package route every 1-D filtering primitive through a
:class:`KernelBackend`.  The default :class:`NumpyBackend` is the
reference implementation; the hardware models in :mod:`repro.hw` provide
backends that compute identical results while accounting cycles and
transfers (and, for the FPGA, using single-precision arithmetic like the
HLS datapath).

The primitives are *dual-channel* — each computes the low-pass and
high-pass outputs in one sweep, exactly like the paper's HLS engine
whose datapath holds one shift register feeding two MAC chains
(``hpAcc``/``lpAcc`` in Fig. 4).  One call therefore corresponds to
``n_lines`` hardware invocations, which is what the timing models count.

The primitives are also **shape-polymorphic**: inputs may carry any
number of leading (batch) axes ahead of the filtered one — a stacked
``(N, H, W)`` call filters all ``N`` frames' lines through the same
datapath sweep, accounting exactly like ``N`` separate calls.  The
batch transforms (:meth:`repro.dtcwt.Dtcwt2D.forward_batch`) rely on
this to amortize per-call overhead without changing a single output
bit; implementations must keep per-element arithmetic independent of
the leading axes.

========================  =================================================
``analysis_u``            undecimated centered filtering (DT-CWT level 1)
``synthesis_u``           undecimated dual synthesis (level-1 inverse)
``analysis_d``            causal filtering + decimation (levels >= 2, DWT)
``synthesis_d``           zero-stuffed dual synthesis (levels >= 2, DWT)
========================  =================================================
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .util import cconv, cconv_causal, ccorr_causal, downsample2, upsample2


class ScratchPool:
    """Keyed, reusable scratch buffers for the steady-state frame path.

    The session's stacked core routes its per-frame input stack — the
    source-major ``(N*B, H, W)`` stack fed to the stacked forward
    transform — through one of these instead of allocating a fresh
    array every frame.  ``take`` returns the cached
    buffer for ``key`` when shape and dtype still match, else
    (re)allocates it; callers must fully overwrite the buffer before
    use, which keeps pooling invisible to the arithmetic (bitwise).

    A pool is **single-threaded by contract**: it lives on a per-worker
    context (or the session's serial lane), exactly like the non-thread
    -safe compute lanes it feeds.

    A pool also carries one **working dtype per generation**: the first
    ``take`` pins it, and a ``take`` requesting a different dtype drops
    *every* cached buffer (not just the requested key) before
    reallocating.  Switching a session's precision mid-process would
    otherwise strand each old-dtype buffer until its own key happened
    to be requested again — paying the stale memory *and* the
    realloc-on-mismatch cost key by key.  Call :meth:`clear` explicitly
    when swapping backends or dtypes out-of-band.
    """

    def __init__(self) -> None:
        self._buffers: Dict[object, np.ndarray] = {}
        self._dtype: Optional[np.dtype] = None

    def take(self, key: object, shape: Tuple[int, ...],
             dtype: np.dtype = np.float64) -> np.ndarray:
        """The pooled buffer for ``key``, allocated on first use (or
        when ``shape``/``dtype`` changed).  Contents are undefined."""
        dtype = np.dtype(dtype)
        if self._dtype != dtype:
            # precision swap: one generation, one dtype — drop all
            # stale buffers at once instead of lazily per key
            self._buffers.clear()
            self._dtype = dtype
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != tuple(shape):
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by pooled buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every cached buffer (the backend/dtype-swap hook)."""
        self._buffers.clear()
        self._dtype = None


class KernelBackend:
    """Reference (numpy) backend; subclass to instrument or accelerate.

    ``dtype`` controls the working precision: the reference uses float64;
    hardware-fidelity backends use float32 to match the HLS datapath.
    """

    name = "numpy"

    def __init__(self, dtype: np.dtype = np.float64):
        self.dtype = np.dtype(dtype)

    # -- internal helpers ----------------------------------------------
    def _f(self, taps: np.ndarray) -> np.ndarray:
        return np.asarray(taps, dtype=self.dtype)

    def _x(self, x: np.ndarray) -> np.ndarray:
        """Caller array in the working dtype.

        ``astype(copy=False)`` **aliases** the caller's array when the
        dtype already matches, so the value returned here may be the
        caller's own buffer.  Primitives must therefore treat it as
        read-only: build outputs in fresh (or pooled-internal) arrays
        and never pass it as an ``out=`` target.  Every backend in this
        package honors that contract — the regression tests assert the
        inputs are bit-unchanged after each primitive — and subclasses
        adding in-place kernels must copy first if they need to write.
        """
        return np.asarray(x).astype(self.dtype, copy=False)

    # -- level 1 (undecimated, centered) ---------------------------------
    def analysis_u(self, x: np.ndarray, h0: np.ndarray, c0: int,
                   h1: np.ndarray, c1: int, axis: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Dual undecimated centered circular convolution along ``axis``."""
        x = self._x(x)
        return (cconv(x, self._f(h0), c0, axis),
                cconv(x, self._f(h1), c1, axis))

    def synthesis_u(self, u0: np.ndarray, u1: np.ndarray,
                    g0: np.ndarray, c0: int, g1: np.ndarray, c1: int,
                    axis: int) -> np.ndarray:
        """Dual undecimated synthesis: ``conv(u0, g0) + conv(u1, g1)``."""
        return (cconv(self._x(u0), self._f(g0), c0, axis)
                + cconv(self._x(u1), self._f(g1), c1, axis))

    # -- levels >= 2 (decimated, causal) ----------------------------------
    def analysis_d(self, x: np.ndarray, h0: np.ndarray, h1: np.ndarray,
                   axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dual causal circular convolution + downsample-by-2 (phase 0)."""
        x = self._x(x)
        lo = downsample2(cconv_causal(x, self._f(h0), axis), 0, axis)
        hi = downsample2(cconv_causal(x, self._f(h1), axis), 0, axis)
        return lo, hi

    def synthesis_d(self, lo: np.ndarray, hi: np.ndarray,
                    h0: np.ndarray, h1: np.ndarray, axis: int) -> np.ndarray:
        """Adjoint of :meth:`analysis_d`: upsample + circular correlation."""
        up_lo = upsample2(self._x(lo), 0, axis)
        up_hi = upsample2(self._x(hi), 0, axis)
        return (ccorr_causal(up_lo, self._f(h0), axis)
                + ccorr_causal(up_hi, self._f(h1), axis))


class NumpyBackend(KernelBackend):
    """Alias of the base class kept for explicitness at call sites."""


DEFAULT_BACKEND = NumpyBackend()
