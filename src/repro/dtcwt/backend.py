"""The host kernel backend for the wavelet kernels.

The paper runs the *same* transform on three engines (ARM scalar code,
NEON SIMD intrinsics, FPGA wavelet hardware).  To mirror that, the
transforms in this package route every 1-D filtering primitive through
a :class:`KernelBackend`.  There is one host formulation, this module's
:class:`KernelBackend`, and every engine except the FPGA computes with
it; the engines differ only in their cost models.  The FPGA's
:class:`~repro.hw.fpga.HlsBackend` overrides the primitives to push
whole passes through the HLS datapath model in float32.

The primitives are *dual-channel* — each computes the low-pass and
high-pass outputs in one sweep, exactly like the paper's HLS engine
whose datapath holds one shift register feeding two MAC chains
(``hpAcc``/``lpAcc`` in Fig. 4).  One call therefore corresponds to
``n_lines`` hardware invocations, which is what the timing models count.

The primitives are also **shape-polymorphic**: inputs may carry any
number of leading (batch) axes ahead of the filtered one — a stacked
``(N, H, W)`` call filters all ``N`` frames' lines through the same
datapath sweep, accounting exactly like ``N`` separate calls.  A
stacked transform (:meth:`repro.dtcwt.Dtcwt2D.forward` of an
``(N, H, W)`` stack) relies on this to amortize per-call overhead
without changing a single output bit; implementations must keep
per-element arithmetic independent of the leading axes.

========================  =================================================
``analysis_u``            undecimated centered filtering (DT-CWT level 1)
``synthesis_u``           undecimated dual synthesis (level-1 inverse)
``analysis_d``            causal filtering + decimation (levels >= 2, DWT)
``synthesis_d``           zero-stuffed dual synthesis (levels >= 2, DWT)
========================  =================================================

The halo-extension formulation
------------------------------
All filtering is circular.  Each filter application materializes the
wrap once as a halo-extended copy ``ext[m] = x[(m + shift) mod N]``
(one ``np.take``), after which each tap contributes a plain strided
slice of ``ext``.  The per-element arithmetic is fixed, and the test
suite's circular-convolution oracle (``tests/kernel_oracle.py``, one
``np.roll`` per tap) reproduces it bit for bit:

* taps are visited in ascending index order, skipping exact-zero taps
  (zero *data* terms are **never** skipped — dropping them could flip
  a ``-0.0`` to ``+0.0``);
* each contribution is ``acc + tap * value`` — multiply then add;
* dual-output sums (``conv(u0,g0) + conv(u1,g1)``) accumulate each
  operand separately and add once at the end.

Decimated analysis evaluates only the even output phase; per-element
accumulation is independent of neighbouring outputs, so the discarded
half is simply never computed.

Everything shape-derived — halo index tables, tap offset tables,
extension and scratch buffers — is cached on the backend (index tables
per ``(N, taps, shift)``, buffers in a private :class:`ScratchPool`),
so the steady-state frame path allocates nothing beyond the output
arrays themselves.  Output buffers are deliberately *not* pooled:
callers hold references to returned subbands across calls, and
recycling them would overwrite live data.  The pool makes a backend
**single-threaded**: every transform built without ``backend=`` gets
its own instance, and the session gives each worker its own lane.

The tap accumulation is compiled with Numba when the package is
importable, falling back to a pure-NumPy strided-slice evaluation of
the *same* per-element arithmetic when it is not.  Availability is
probed once at import; set ``REPRO_NO_NUMBA=1`` to force the fallback
even when Numba is installed (CI uses this to prove the fallback path).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np


class ScratchPool:
    """Keyed, reusable scratch buffers for the steady-state frame path.

    The session's stacked core routes its per-frame input stack — the
    source-major ``(N*B, H, W)`` stack fed to the stacked forward
    transform — through one of these instead of allocating a fresh
    array every frame, and every :class:`KernelBackend` keeps its
    halo and accumulator scratch in a private one.  ``take`` returns
    the cached buffer for ``key`` when shape and dtype still match,
    else (re)allocates it; callers must fully overwrite the buffer
    before use, which keeps pooling invisible to the arithmetic
    (bitwise).

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


def _load_numba():
    """The ``numba`` module, or ``None`` when absent or disabled."""
    if os.environ.get("REPRO_NO_NUMBA"):
        return None
    try:
        import numba
    except ImportError:
        return None
    return numba


_numba = _load_numba()

#: True when the compiled path is importable and not disabled.
NUMBA_AVAILABLE = _numba is not None


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only with numba installed
    @_numba.njit(cache=True, fastmath=False)
    def _accum_sheets(ext, taps, offs, step, out):
        """Tap accumulation over 2-D sheets (rows x filtered axis).

        Replays the fixed per-element sequence: taps ascending, zero
        taps skipped, ``acc + tap * ext`` per contribution.
        ``fastmath=False`` keeps IEEE semantics (no reassociation),
        which is what makes the compiled path bitwise-equal.
        """
        rows, n_out = out.shape
        n_taps = taps.shape[0]
        for r in range(rows):
            for j in range(n_out):
                acc = out[r, j]
                base = j * step
                for k in range(n_taps):
                    tap = taps[k]
                    if tap != 0.0:
                        acc = acc + tap * ext[r, base + offs[k]]
                out[r, j] = acc
else:
    _accum_sheets = None


class KernelBackend:
    """Halo-extension host backend (Numba JIT, NumPy fallback).

    Parameters
    ----------
    dtype:
        Working precision.  Defaults to float64, the transforms'
        reference precision; the engines pass their own working dtype
        (float32 natively, like the HLS datapath).
    compiled:
        ``None`` (default) auto-selects: Numba when available, the
        NumPy fallback otherwise.  ``False`` forces the fallback;
        ``True`` requires Numba and raises ``RuntimeError`` when it
        is absent (tests use the explicit values to pin a path).
    """

    def __init__(self, dtype: np.dtype = np.float64,
                 compiled: Optional[bool] = None):
        self.dtype = np.dtype(dtype)
        if compiled is None:
            compiled = NUMBA_AVAILABLE
        elif compiled and not NUMBA_AVAILABLE:
            raise RuntimeError(
                "KernelBackend(compiled=True) requires numba, which is "
                "not available (or disabled via REPRO_NO_NUMBA)")
        self.compiled = bool(compiled)
        self._pool = ScratchPool()
        #: (n, n_taps, shift) -> halo gather indices
        self._idx_cache: Dict[Tuple[int, int, int], np.ndarray] = {}
        #: (n_taps, correlate) -> per-tap ext offsets
        self._offs_cache: Dict[Tuple[int, bool], np.ndarray] = {}

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

    # -- plan tables ---------------------------------------------------
    def _indices(self, n: int, n_taps: int, shift: int) -> np.ndarray:
        key = (n, n_taps, shift)
        idx = self._idx_cache.get(key)
        if idx is None:
            idx = (np.arange(n + n_taps - 1, dtype=np.intp) + shift) % n
            self._idx_cache[key] = idx
        return idx

    def _offsets(self, n_taps: int, correlate: bool) -> np.ndarray:
        key = (n_taps, correlate)
        offs = self._offs_cache.get(key)
        if offs is None:
            ks = np.arange(n_taps, dtype=np.int64)
            offs = ks if correlate else (n_taps - 1 - ks)
            self._offs_cache[key] = offs
        return offs

    # -- workhorse -----------------------------------------------------
    def _apply(self, x: np.ndarray, taps: np.ndarray, shift: int,
               correlate: bool, step: int, axis: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """One filter application along ``axis``.

        ``shift`` positions the halo (``center - (K-1)`` for
        convolution, ``0`` for correlation); ``step=2`` evaluates the
        even output phase only (decimated analysis).  ``out=None``
        allocates a fresh zeroed output; passing a pooled buffer
        (synthesis second operand) reuses it after re-zeroing.
        """
        ax = axis % x.ndim
        n = x.shape[ax]
        n_taps = len(taps)
        n_out = (n + 1) // 2 if step == 2 else n
        idx = self._indices(n, n_taps, shift)
        offs = self._offsets(n_taps, correlate)
        if self.compiled:  # pragma: no cover - needs numba
            return self._apply_compiled(x, taps, idx, offs, step, ax,
                                        n_out, out)
        ext_shape = list(x.shape)
        ext_shape[ax] = len(idx)
        ext = self._pool.take(("ext", tuple(ext_shape)), tuple(ext_shape),
                              self.dtype)
        np.take(x, idx, axis=ax, out=ext)
        out_shape = list(x.shape)
        out_shape[ax] = n_out
        if out is None:
            out = np.zeros(out_shape, dtype=self.dtype)
        else:
            out.fill(0.0)
        tmp = self._pool.take(("tmp", tuple(out_shape)), tuple(out_shape),
                              self.dtype)
        sl = [slice(None)] * ext.ndim
        for k, tap in enumerate(taps):
            if tap != 0.0:
                o = int(offs[k])
                sl[ax] = slice(o, o + step * (n_out - 1) + 1, step)
                np.multiply(ext[tuple(sl)], tap, out=tmp)
                np.add(out, tmp, out=out)
        return out

    def _apply_compiled(self, x, taps, idx, offs, step, ax, n_out,
                        out):  # pragma: no cover - needs numba
        xm = np.moveaxis(x, ax, -1)
        rows = int(np.prod(xm.shape[:-1], dtype=np.int64))
        n_ext = len(idx)
        xc = self._pool.take(("xc", xm.shape), xm.shape, self.dtype)
        np.copyto(xc, xm)
        ext = self._pool.take(("ext2", rows, n_ext), (rows, n_ext),
                              self.dtype)
        np.take(xc.reshape(rows, xm.shape[-1]), idx, axis=1, out=ext)
        if out is None:
            out_m = np.zeros(xm.shape[:-1] + (n_out,), dtype=self.dtype)
        else:
            out_m = np.moveaxis(out, ax, -1)
            if not out_m.flags.c_contiguous:
                raise ValueError("pooled accumulator must be pooled in "
                                 "moved-axis layout")
            out_m.fill(0.0)
        _accum_sheets(ext, taps, offs, step, out_m.reshape(rows, n_out))
        return np.moveaxis(out_m, -1, ax)

    def _acc_buffer(self, like: np.ndarray, axis: int) -> np.ndarray:
        """Pooled accumulator for the second operand of a dual
        synthesis sum, pre-shaped so the compiled path sees a
        contiguous moved-axis layout."""
        ax = axis % like.ndim
        if self.compiled:  # pragma: no cover - needs numba
            moved = np.moveaxis(like, ax, -1)
            buf = self._pool.take(("acc", moved.shape), moved.shape,
                                  self.dtype)
            return np.moveaxis(buf, -1, ax)
        return self._pool.take(("acc", like.shape), like.shape, self.dtype)

    def _upsampled(self, x: np.ndarray, axis: int,
                   slot: str) -> np.ndarray:
        """Pooled zero-stuffed copy of ``x`` (phase 0) along ``axis``."""
        ax = axis % x.ndim
        shape = list(x.shape)
        shape[ax] *= 2
        up = self._pool.take(("up", slot, tuple(shape)), tuple(shape),
                             self.dtype)
        up.fill(0.0)
        sl = [slice(None)] * x.ndim
        sl[ax] = slice(0, None, 2)
        up[tuple(sl)] = x
        return up

    # -- level 1 (undecimated, centered) -------------------------------
    def analysis_u(self, x: np.ndarray, h0: np.ndarray, c0: int,
                   h1: np.ndarray, c1: int, axis: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Dual undecimated centered circular convolution along ``axis``."""
        x = self._x(x)
        t0, t1 = self._f(h0), self._f(h1)
        lo = self._apply(x, t0, c0 - (len(t0) - 1), False, 1, axis)
        hi = self._apply(x, t1, c1 - (len(t1) - 1), False, 1, axis)
        return lo, hi

    def synthesis_u(self, u0: np.ndarray, u1: np.ndarray,
                    g0: np.ndarray, c0: int, g1: np.ndarray, c1: int,
                    axis: int) -> np.ndarray:
        """Dual undecimated synthesis: ``conv(u0, g0) + conv(u1, g1)``."""
        u0, u1 = self._x(u0), self._x(u1)
        t0, t1 = self._f(g0), self._f(g1)
        out = self._apply(u0, t0, c0 - (len(t0) - 1), False, 1, axis)
        acc = self._apply(u1, t1, c1 - (len(t1) - 1), False, 1, axis,
                          out=self._acc_buffer(u1, axis))
        np.add(out, acc, out=out)
        return out

    # -- levels >= 2 (decimated, causal) --------------------------------
    def analysis_d(self, x: np.ndarray, h0: np.ndarray, h1: np.ndarray,
                   axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dual causal circular convolution + downsample-by-2 (phase 0)."""
        x = self._x(x)
        t0, t1 = self._f(h0), self._f(h1)
        lo = self._apply(x, t0, -(len(t0) - 1), False, 2, axis)
        hi = self._apply(x, t1, -(len(t1) - 1), False, 2, axis)
        return lo, hi

    def synthesis_d(self, lo: np.ndarray, hi: np.ndarray,
                    h0: np.ndarray, h1: np.ndarray, axis: int) -> np.ndarray:
        """Adjoint of :meth:`analysis_d`: upsample + circular correlation."""
        up_lo = self._upsampled(self._x(lo), axis, "lo")
        up_hi = self._upsampled(self._x(hi), axis, "hi")
        t0, t1 = self._f(h0), self._f(h1)
        out = self._apply(up_lo, t0, 0, True, 1, axis)
        acc = self._apply(up_hi, t1, 0, True, 1, axis,
                          out=self._acc_buffer(up_hi, axis))
        np.add(out, acc, out=out)
        return out
