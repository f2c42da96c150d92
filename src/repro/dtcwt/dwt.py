"""Classic separable 2-D Discrete Wavelet Transform (the paper's Fig. 1).

This is the real-valued, critically-sampled transform the paper
introduces before motivating the DT-CWT: each level splits the current
low-low band into four sub-bands (LL, LH, HL, HH), and the recursion on
LL halves the frame size each time — the workload-shrinking property
that drives the paper's FPGA-vs-NEON crossover.

The implementation uses an orthonormal even-length filter (constructed
in :mod:`repro.dtcwt.coeffs`) and circular extension, so perfect
reconstruction is exact by operator transposition.  It also serves as
the transform inside the DWT fusion baseline and as the reference point
for the shift-invariance comparison (DT-CWT is nearly shift invariant,
the DWT is not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import TransformError
from .backend import KernelBackend
from .coeffs import orthonormal_dwt_filter
from .util import as_float_image, crop_to, pad_to_multiple


@dataclass
class DwtPyramid:
    """Result of a forward 2-D DWT.

    ``details[l]`` holds the level ``l+1`` sub-bands as an array of shape
    ``(3, H/2^{l+1}, W/2^{l+1})`` ordered ``(LH, HL, HH)``, where the
    band name gives (vertical, horizontal) frequency content following
    the paper's Fig. 1 convention.
    """

    lowpass: np.ndarray
    details: Tuple[np.ndarray, ...]
    original_shape: Tuple[int, int]
    padded_shape: Tuple[int, int]
    levels: int

    def copy(self) -> "DwtPyramid":
        return DwtPyramid(
            lowpass=self.lowpass.copy(),
            details=tuple(d.copy() for d in self.details),
            original_shape=self.original_shape,
            padded_shape=self.padded_shape,
            levels=self.levels,
        )


class Dwt2D:
    """Forward/inverse orthonormal 2-D DWT with a pluggable backend."""

    def __init__(self, levels: int = 3, filter_length: int = 8,
                 backend: Optional[KernelBackend] = None):
        if levels < 1:
            raise TransformError(f"levels must be >= 1, got {levels}")
        self.levels = levels
        self.h0 = orthonormal_dwt_filter(filter_length)
        n = np.arange(filter_length)
        self.h1 = ((-1.0) ** n) * self.h0[::-1]
        self.backend = backend if backend is not None else KernelBackend()

    def forward(self, image: np.ndarray) -> DwtPyramid:
        be = self.backend
        img = as_float_image(image, dtype=be.dtype)
        if img.ndim != 2:
            raise TransformError(
                f"expected a 2-D image, got shape {img.shape}")
        img, original_shape = pad_to_multiple(img, 2 ** self.levels)
        padded_shape = img.shape

        low = img
        details: List[np.ndarray] = []
        for _ in range(self.levels):
            lo_v, hi_v = be.analysis_d(low, self.h0, self.h1, axis=0)
            new_low, hl = be.analysis_d(lo_v, self.h0, self.h1, axis=1)
            lh, hh = be.analysis_d(hi_v, self.h0, self.h1, axis=1)
            details.append(np.stack([lh, hl, hh]))
            low = new_low
        return DwtPyramid(
            lowpass=low,
            details=tuple(details),
            original_shape=original_shape,
            padded_shape=padded_shape,
            levels=self.levels,
        )

    def inverse(self, pyramid: DwtPyramid) -> np.ndarray:
        if pyramid.levels != self.levels:
            raise TransformError(
                f"pyramid has {pyramid.levels} levels, transform expects {self.levels}"
            )
        be = self.backend
        low = pyramid.lowpass.astype(be.dtype, copy=True)
        for level in range(self.levels, 0, -1):
            lh, hl, hh = pyramid.details[level - 1]
            lo_v = be.synthesis_d(low, hl, self.h0, self.h1, axis=1)
            hi_v = be.synthesis_d(lh, hh, self.h0, self.h1, axis=1)
            low = be.synthesis_d(lo_v, hi_v, self.h0, self.h1, axis=0)
        return crop_to(low, pyramid.original_shape)


def subband_mosaic(pyramid: DwtPyramid) -> np.ndarray:
    """Lay the sub-bands out as the classic Fig. 1 mosaic image.

    LL of the deepest level sits top-left; each level's LH goes below it,
    HL to the right and HH diagonal, recursively — the textbook DWT
    visualisation the paper reproduces as Fig. 1.
    """
    rows, cols = pyramid.padded_shape
    canvas = np.zeros((rows, cols), dtype=pyramid.lowpass.dtype)
    canvas[: pyramid.lowpass.shape[0], : pyramid.lowpass.shape[1]] = pyramid.lowpass
    for level in range(pyramid.levels, 0, -1):
        lh, hl, hh = pyramid.details[level - 1]
        band_rows, band_cols = lh.shape
        canvas[band_rows: 2 * band_rows, :band_cols] = lh
        canvas[:band_rows, band_cols: 2 * band_cols] = hl
        canvas[band_rows: 2 * band_rows, band_cols: 2 * band_cols] = hh
    return canvas
