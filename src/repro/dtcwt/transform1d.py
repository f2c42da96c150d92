"""1-D Dual-Tree Complex Wavelet Transform.

The 2-D transform in :mod:`repro.dtcwt.transform2d` is what the fusion
system uses, but the 1-D transform is where the DT-CWT's defining
property — *approximately analytic* complex wavelets — is easiest to
state, test and demonstrate:

* tree A and tree B form the real and imaginary parts of a complex
  coefficient ``z = a + j b``;
* the equivalent complex wavelet has (nearly) one-sided spectrum, so
  ``|z|`` is (nearly) shift invariant and the phase of ``z`` encodes
  sub-sample feature position.

Structure mirrors the 2-D transform: an odd biorthogonal bank filters
level 1 undecimated (its two polyphases are the two trees), and the
even q-shift banks continue each tree decimated.  Circular extension,
perfect reconstruction by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import TransformError
from .backend import KernelBackend
from .coeffs import DtcwtBanks, dtcwt_banks


@dataclass
class Dtcwt1dPyramid:
    """Result of a forward 1-D DT-CWT.

    ``highpasses[l]`` is a complex array of length ``N / 2^{l+1}`` —
    wait, of length ``N / 2^{l}`` at level ``l`` (1-based); ``lowpass``
    holds the two trees' final low-pass, shape ``(2, N / 2^L)``.
    """

    lowpass: np.ndarray
    highpasses: Tuple[np.ndarray, ...]
    original_length: int
    levels: int


class Dtcwt1D:
    """Forward/inverse 1-D DT-CWT (circular, perfect reconstruction)."""

    def __init__(self, levels: int = 3, banks: Optional[DtcwtBanks] = None,
                 backend: Optional[KernelBackend] = None):
        if levels < 1:
            raise TransformError(f"levels must be >= 1, got {levels}")
        self.levels = levels
        self.banks = banks if banks is not None else dtcwt_banks()
        self.backend = backend if backend is not None else KernelBackend()

    # ------------------------------------------------------------------
    def forward(self, signal: np.ndarray) -> Dtcwt1dPyramid:
        x = np.asarray(signal, dtype=self.backend.dtype)
        if x.ndim != 1:
            raise TransformError(f"expected a 1-D signal, got shape {x.shape}")
        n = len(x)
        if n % (2 ** self.levels):
            raise TransformError(
                f"signal length {n} must divide 2^levels = {2 ** self.levels}"
            )
        be = self.backend
        bank = self.banks.level1

        # level 1: undecimated; polyphases are the trees
        lo_u, hi_u = be.analysis_u(x, bank.h0, bank.c_h0,
                                   bank.h1, bank.c_h1, axis=0)
        low_trees = np.stack([lo_u[0::2], lo_u[1::2]])     # (2, n/2)
        hi_trees = np.stack([hi_u[0::2], hi_u[1::2]])
        highpasses: List[np.ndarray] = [
            (hi_trees[0] + 1j * hi_trees[1]) / np.sqrt(2.0)
        ]

        qs = self.banks.qshift
        h0 = (qs.h0b, qs.h0a)   # even tree delayed, odd tree advanced
        h1 = (qs.h1b, qs.h1a)
        for _ in range(2, self.levels + 1):
            new_low = []
            new_hi = []
            for tree in (0, 1):
                lo, hi = be.analysis_d(low_trees[tree], h0[tree], h1[tree],
                                       axis=0)
                new_low.append(lo)
                new_hi.append(hi)
            low_trees = np.stack(new_low)
            highpasses.append((new_hi[0] + 1j * new_hi[1]) / np.sqrt(2.0))

        return Dtcwt1dPyramid(
            lowpass=low_trees,
            highpasses=tuple(highpasses),
            original_length=n,
            levels=self.levels,
        )

    # ------------------------------------------------------------------
    def inverse(self, pyramid: Dtcwt1dPyramid) -> np.ndarray:
        if pyramid.levels != self.levels:
            raise TransformError(
                f"pyramid has {pyramid.levels} levels, transform expects "
                f"{self.levels}"
            )
        be = self.backend
        qs = self.banks.qshift
        h0 = (qs.h0b, qs.h0a)
        h1 = (qs.h1b, qs.h1a)

        low_trees = pyramid.lowpass.astype(be.dtype, copy=True)
        for level in range(self.levels, 1, -1):
            band = pyramid.highpasses[level - 1] * np.sqrt(2.0)
            hi_trees = (band.real.astype(be.dtype),
                        band.imag.astype(be.dtype))
            low_trees = np.stack([
                be.synthesis_d(low_trees[tree], hi_trees[tree],
                               h0[tree], h1[tree], axis=0)
                for tree in (0, 1)
            ])

        band = pyramid.highpasses[0] * np.sqrt(2.0)
        n = pyramid.original_length
        lo_u = np.empty(n, dtype=be.dtype)
        hi_u = np.empty(n, dtype=be.dtype)
        lo_u[0::2] = low_trees[0]
        lo_u[1::2] = low_trees[1]
        hi_u[0::2] = band.real
        hi_u[1::2] = band.imag

        bank = self.banks.level1
        rec = be.synthesis_u(lo_u, hi_u, bank.g0, bank.c_g0,
                             bank.g1, bank.c_g1, axis=0)
        return rec / 2.0


def equivalent_complex_wavelet(level: int = 4, length: int = 512,
                               banks: Optional[DtcwtBanks] = None
                               ) -> np.ndarray:
    """The level-``level`` complex wavelet ``psi = psi_a + j psi_b``.

    Built by pushing a unit coefficient through each tree's inverse
    path: tree A's wavelet is the reconstruction of a real unit
    coefficient, tree B's of an imaginary one.
    """
    transform = Dtcwt1D(levels=level, banks=banks)
    template = transform.forward(np.zeros(length))

    def impulse_response(value: complex) -> np.ndarray:
        highpasses = []
        for i, band in enumerate(template.highpasses):
            fresh = np.zeros_like(band)
            if i == level - 1:
                fresh[len(fresh) // 2] = value
            highpasses.append(fresh)
        pyramid = Dtcwt1dPyramid(
            lowpass=np.zeros_like(template.lowpass),
            highpasses=tuple(highpasses),
            original_length=length,
            levels=level,
        )
        return transform.inverse(pyramid)

    psi_a = impulse_response(1.0 + 0.0j)   # tree A (real) path
    psi_b = impulse_response(0.0 + 1.0j)   # tree B (imaginary) path
    return psi_a + 1j * psi_b


def analytic_quality(level: int = 4, length: int = 512,
                     banks: Optional[DtcwtBanks] = None) -> float:
    """Spectral one-sidedness of the equivalent complex wavelet.

    Returns the energy fraction of the wavelet's spectrum on the
    negative-frequency half-axis: 0 means perfectly analytic; a real
    (single-tree DWT) wavelet scores 0.5.  The q-shift design keeps
    this small — the property behind the DT-CWT's shift invariance.
    """
    psi = equivalent_complex_wavelet(level, length, banks)
    spectrum = np.fft.fft(psi)
    energy = np.abs(spectrum) ** 2
    # fft bins [1, N/2) are positive frequencies, (N/2, N) negative
    half = len(energy) // 2
    negative = float(np.sum(energy[half + 1:]))
    total = float(np.sum(energy[1:]))  # ignore DC (vanishing moment)
    return negative / total if total > 0 else 0.0
