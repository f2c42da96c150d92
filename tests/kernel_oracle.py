"""Circular-convolution reference kernels: the oracle for the host backend.

This is the original NumPy formulation of the wavelet primitives, kept
verbatim in behaviour: every filter application accumulates
``out += tap * np.roll(x, ...)`` over the taps in ascending order,
skipping exact-zero taps, and the decimated primitives compute the
full causal convolution and then keep every second sample.  The
differential tests check that :class:`repro.dtcwt.backend.KernelBackend`
(the halo-extension formulation every host engine computes with)
returns the same bits for every primitive, shape, axis and dtype.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import TransformError


def cconv(x: np.ndarray, taps: np.ndarray, center: int, axis: int = 0) -> np.ndarray:
    """Centered circular convolution along ``axis``.

    Computes ``out[n] = sum_k taps[k] * x[(n + center - k) mod N]`` so a
    filter symmetric about ``center`` is exactly zero phase.

    Parameters
    ----------
    x:
        Input array (any number of dimensions).
    taps:
        1-D filter taps.
    center:
        Index of the tap treated as the filter origin.
    axis:
        Axis of ``x`` along which to filter.
    """
    taps = np.asarray(taps, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    out = np.zeros_like(x, dtype=np.result_type(x, taps))
    for k, tap in enumerate(taps):
        if tap != 0.0:
            out += tap * np.roll(x, k - center, axis=axis)
    return out


def cconv_causal(x: np.ndarray, taps: np.ndarray, axis: int = 0) -> np.ndarray:
    """Causal circular convolution: ``out[n] = sum_k taps[k] x[(n-k) mod N]``."""
    return cconv(x, taps, center=0, axis=axis)


def ccorr_causal(x: np.ndarray, taps: np.ndarray, axis: int = 0) -> np.ndarray:
    """Causal circular correlation: ``out[n] = sum_k taps[k] x[(n+k) mod N]``.

    This is the exact adjoint (transpose) of :func:`cconv_causal` with the
    same taps, which is what makes transpose-based synthesis exact.
    """
    taps = np.asarray(taps, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    out = np.zeros_like(x, dtype=np.result_type(x, taps))
    for k, tap in enumerate(taps):
        if tap != 0.0:
            out += tap * np.roll(x, -k, axis=axis)
    return out


def downsample2(x: np.ndarray, phase: int, axis: int = 0) -> np.ndarray:
    """Keep every second sample along ``axis`` starting at ``phase`` (0 or 1)."""
    if phase not in (0, 1):
        raise TransformError(f"downsample phase must be 0 or 1, got {phase}")
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(phase, None, 2)
    return x[tuple(slicer)]


def upsample2(x: np.ndarray, phase: int, axis: int = 0) -> np.ndarray:
    """Insert zeros between samples along ``axis``; adjoint of :func:`downsample2`."""
    if phase not in (0, 1):
        raise TransformError(f"upsample phase must be 0 or 1, got {phase}")
    shape = list(x.shape)
    shape[axis] *= 2
    out = np.zeros(shape, dtype=x.dtype)
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(phase, None, 2)
    out[tuple(slicer)] = x
    return out


class NumpyBackend:
    """Reference backend: one ``np.roll`` per tap, no state.

    Drop-in for any ``backend=`` argument of the transforms.  ``dtype``
    controls the working precision (float64 by default).
    """

    def __init__(self, dtype: np.dtype = np.float64):
        self.dtype = np.dtype(dtype)

    def _f(self, taps: np.ndarray) -> np.ndarray:
        return np.asarray(taps, dtype=self.dtype)

    def _x(self, x: np.ndarray) -> np.ndarray:
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
