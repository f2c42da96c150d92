"""2-D Dual-Tree Complex Wavelet Transform (forward and inverse).

Structure (following Kingsbury):

* **Level 1** filters the image with an odd-length biorthogonal bank in
  both directions *without* decimation; the four polyphase components of
  each output are the four trees (the classic one-sample-offset dual
  tree).  This is what gives the 2-D DT-CWT its 4:1 redundancy.
* **Levels >= 2** continue each of the four trees independently with the
  even-length q-shift bank (tree A/B along each axis), decimating by two.
* At every level the four trees' high-pass outputs are combined by the
  unitary ``q2c`` map into **six complex, orientation-selective
  subbands** (approximately +-15, +-45, +-75 degrees).

Perfect reconstruction holds to machine precision: levels >= 2 invert by
operator transposition (the q-shift banks are orthonormal), level 1 by
the dual-filter identity ``H0 G0 + H1 G1 = 2``, and ``q2c``/``c2q`` are
exact inverses.  All filtering is circular; inputs whose sides do not
divide ``2**levels`` are edge-padded and cropped back (see
:func:`repro.dtcwt.util.pad_to_multiple`).

Batch-first numerics
--------------------

Every step below is **shape-polymorphic over leading axes**: the
filtering primitives, polyphase splits and ``q2c``/``c2q`` maps all
operate on the trailing ``(H, W)`` axes of an arbitrarily stacked
array.  :meth:`Dtcwt2D.forward` therefore takes one frame ``(H, W)``
or a frame stack ``(N, H, W)``, and a stack costs exactly the same
number of NumPy calls as one frame — the software analogue of
streaming many lines through one hardware datapath invocation.  The
pyramid keeps the frame axis (:attr:`DtcwtPyramid.frames`) and
:meth:`Dtcwt2D.inverse` returns the rank it implies.  Because the
per-element arithmetic (operation order, dtypes, accumulation
sequence) is identical either way, every frame of a stack is
bitwise-equal to transforming that frame alone; the tests pin that
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import TransformError
from .backend import KernelBackend
from .coeffs import DtcwtBanks, dtcwt_banks
from .util import as_float_image, crop_to, pad_to_multiple

_SQRT2 = math.sqrt(2.0)

#: Approximate orientation (degrees) of each of the six subbands.
ORIENTATIONS = (15, 45, 75, 105, 135, 165)


class _StackIndexError(TransformError, IndexError):
    """Out-of-range frame index on a stacked pyramid.

    Doubly derived so both contracts hold: library callers catching
    :class:`TransformError` see it, and Python's sequence-iteration
    protocol (``for pyramid in stack``), which probes ``__getitem__``
    until :class:`IndexError`, terminates cleanly.
    """


def q2c(y_aa: np.ndarray, y_ab: np.ndarray,
        y_ba: np.ndarray, y_bb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unitary quad-to-complex map combining the four trees' outputs.

    Returns the two complex subbands (positive / negative orientation)
    for one (vertical, horizontal) high-pass combination.
    """
    z_pos = ((y_aa - y_bb) + 1j * (y_ab + y_ba)) / _SQRT2
    z_neg = ((y_aa + y_bb) + 1j * (y_ba - y_ab)) / _SQRT2
    return z_pos, z_neg


def c2q(z_pos: np.ndarray, z_neg: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact inverse of :func:`q2c` (returns ``y_aa, y_ab, y_ba, y_bb``)."""
    y_aa = (z_pos.real + z_neg.real) / _SQRT2
    y_bb = (z_neg.real - z_pos.real) / _SQRT2
    y_ab = (z_pos.imag - z_neg.imag) / _SQRT2
    y_ba = (z_pos.imag + z_neg.imag) / _SQRT2
    return y_aa, y_ab, y_ba, y_bb


@dataclass
class DtcwtPyramid:
    """Result of a forward 2-D DT-CWT of one frame or a frame stack.

    A stack's frame axis sits *after* the tree/band axes — exactly
    where the transform produces it — so per-level arrays are single
    contiguous operands for vectorized fusion rules.

    Attributes
    ----------
    lowpass:
        Array of shape ``(2, 2, [N,] H/2^L, W/2^L)`` holding the final
        low-pass image of each (vertical-tree, horizontal-tree) pair.
    highpasses:
        One complex array per level, shape ``(6, [N,] H/2^l, W/2^l)``,
        subbands ordered as :data:`ORIENTATIONS`.
    original_shape:
        Frame shape before internal padding; the inverse crops back.
    padded_shape:
        Frame shape actually transformed.
    levels:
        Number of decomposition levels.

    ``pyr[i]`` gives frame ``i`` of a stack and ``pyr[a:b]`` a frame
    range, both as pyramids of *views* into the stacked arrays (no
    copy).
    """

    lowpass: np.ndarray
    highpasses: Tuple[np.ndarray, ...]
    original_shape: Tuple[int, int]
    padded_shape: Tuple[int, int]
    levels: int

    @property
    def frames(self) -> Tuple[int, ...]:
        """``()`` for one frame, ``(N,)`` for a stack of ``N``."""
        return self.lowpass.shape[2:-2]

    def __getitem__(self, index: Union[int, slice]) -> "DtcwtPyramid":
        """Frame ``index`` (or a frame range) of a stack, as views."""
        if not self.frames:
            raise TransformError(
                "a single-frame pyramid has no frame axis to index")
        count = self.frames[0]
        if not isinstance(index, slice) and not -count <= index < count:
            raise _StackIndexError(
                f"frame index {index} out of range for a stack of "
                f"{count}"
            )
        return DtcwtPyramid(
            lowpass=self.lowpass[:, :, index],
            highpasses=tuple(h[:, index] for h in self.highpasses),
            original_shape=self.original_shape,
            padded_shape=self.padded_shape,
            levels=self.levels,
        )

    def copy(self) -> "DtcwtPyramid":
        return DtcwtPyramid(
            lowpass=self.lowpass.copy(),
            highpasses=tuple(h.copy() for h in self.highpasses),
            original_shape=self.original_shape,
            padded_shape=self.padded_shape,
            levels=self.levels,
        )

    @property
    def total_coefficients(self) -> int:
        return self.lowpass.size + sum(h.size for h in self.highpasses)


class Dtcwt2D:
    """Forward/inverse 2-D DT-CWT with a pluggable compute backend.

    Parameters
    ----------
    levels:
        Decomposition depth (the paper uses 3 for its 88x72 pipeline).
    banks:
        Filter banks; defaults to CDF 9/7 level-1 + 14-tap q-shift.
    backend:
        Kernel backend; defaults to a fresh host
        :class:`~repro.dtcwt.backend.KernelBackend` in float64.
    """

    def __init__(self, levels: int = 3,
                 banks: Optional[DtcwtBanks] = None,
                 backend: Optional[KernelBackend] = None):
        if levels < 1:
            raise TransformError(f"levels must be >= 1, got {levels}")
        self.levels = levels
        self.banks = banks if banks is not None else dtcwt_banks()
        self.backend = backend if backend is not None else KernelBackend()

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, image: np.ndarray) -> DtcwtPyramid:
        """Decompose one image ``(H, W)`` or a frame stack ``(N, H, W)``.

        A stack's ``N`` transforms execute inside the same NumPy (or
        hardware-backend) primitive calls, amortizing per-call
        overhead; each frame's coefficients are bitwise-identical to
        what :meth:`forward` produces for it alone.
        """
        img = as_float_image(image, dtype=self.backend.dtype)
        be = self.backend
        img, original_shape = pad_to_multiple(img, 2 ** self.levels)
        padded_shape = img.shape[-2:]

        bank = self.banks.level1
        # Level 1: undecimated separable filtering, then polyphase split.
        lo_col, hi_col = be.analysis_u(img, bank.h0, bank.c_h0,
                                       bank.h1, bank.c_h1, axis=-2)
        u_ll, u_lh = be.analysis_u(lo_col, bank.h0, bank.c_h0,
                                   bank.h1, bank.c_h1, axis=-1)
        u_hl, u_hh = be.analysis_u(hi_col, bank.h0, bank.c_h0,
                                   bank.h1, bank.c_h1, axis=-1)

        low_trees = _polyphase_split(u_ll)
        highpasses: List[np.ndarray] = [
            _bands_from_tree_quads(
                _polyphase_split(u_lh),
                _polyphase_split(u_hl),
                _polyphase_split(u_hh),
            )
        ]

        qs = self.banks.qshift
        # Tree assignment: the odd-polyphase tree (index 1) sits one input
        # sample *later* than the even tree, so it must use the lower-delay
        # filter (h0a); the even tree takes the half-sample-delayed h0b.
        # This keeps the two trees' output grids offset by exactly half the
        # output sampling period at every level, which is what makes the
        # complex subband magnitudes shift invariant.
        h0 = (qs.h0b, qs.h0a)
        h1 = (qs.h1b, qs.h1a)
        for _ in range(2, self.levels + 1):
            half_shape = low_trees.shape[:-2] + (low_trees.shape[-2] // 2,
                                                 low_trees.shape[-1] // 2)
            lh_trees = np.empty(half_shape, dtype=low_trees.dtype)
            hl_trees = np.empty_like(lh_trees)
            hh_trees = np.empty_like(lh_trees)
            new_low = np.empty_like(lh_trees)
            for tv in (0, 1):
                for th in (0, 1):
                    x = low_trees[tv, th]
                    lo_v, hi_v = be.analysis_d(x, h0[tv], h1[tv], axis=-2)
                    ll, lh = be.analysis_d(lo_v, h0[th], h1[th], axis=-1)
                    hl, hh = be.analysis_d(hi_v, h0[th], h1[th], axis=-1)
                    new_low[tv, th] = ll
                    lh_trees[tv, th] = lh
                    hl_trees[tv, th] = hl
                    hh_trees[tv, th] = hh
            low_trees = new_low
            highpasses.append(_bands_from_tree_quads(lh_trees, hl_trees, hh_trees))

        return DtcwtPyramid(
            lowpass=low_trees,
            highpasses=tuple(highpasses),
            original_shape=original_shape,
            padded_shape=padded_shape,
            levels=self.levels,
        )

    # ------------------------------------------------------------------
    # inverse
    # ------------------------------------------------------------------
    def inverse(self, pyramid: DtcwtPyramid) -> np.ndarray:
        """Reconstruct from a (possibly modified) pyramid: ``(H, W)``
        for one frame, ``(N, H, W)`` for a stack."""
        if pyramid.levels != self.levels:
            raise TransformError(
                f"pyramid has {pyramid.levels} levels, transform expects {self.levels}"
            )
        be = self.backend
        qs = self.banks.qshift
        # mirror the tree assignment used by forward()
        h0 = (qs.h0b, qs.h0a)
        h1 = (qs.h1b, qs.h1a)

        low_trees = pyramid.lowpass.astype(be.dtype, copy=True)
        for level in range(self.levels, 1, -1):
            lh_trees, hl_trees, hh_trees = _tree_quads_from_bands(
                pyramid.highpasses[level - 1], be.dtype
            )
            rows = low_trees.shape[-2] * 2
            cols = low_trees.shape[-1] * 2
            new_low = np.empty(low_trees.shape[:-2] + (rows, cols),
                               dtype=be.dtype)
            for tv in (0, 1):
                for th in (0, 1):
                    lo_v = be.synthesis_d(low_trees[tv, th],
                                          lh_trees[tv, th], h0[th], h1[th],
                                          axis=-1)
                    hi_v = be.synthesis_d(hl_trees[tv, th],
                                          hh_trees[tv, th], h0[th], h1[th],
                                          axis=-1)
                    new_low[tv, th] = be.synthesis_d(lo_v, hi_v,
                                                     h0[tv], h1[tv], axis=-2)
            low_trees = new_low

        lh_trees, hl_trees, hh_trees = _tree_quads_from_bands(
            pyramid.highpasses[0], be.dtype
        )
        u_ll = _polyphase_merge(low_trees)
        u_lh = _polyphase_merge(lh_trees)
        u_hl = _polyphase_merge(hl_trees)
        u_hh = _polyphase_merge(hh_trees)

        bank = self.banks.level1
        lo_col = be.synthesis_u(u_ll, u_lh, bank.g0, bank.c_g0,
                                bank.g1, bank.c_g1, axis=-1)
        hi_col = be.synthesis_u(u_hl, u_hh, bank.g0, bank.c_g0,
                                bank.g1, bank.c_g1, axis=-1)
        image = be.synthesis_u(lo_col, hi_col, bank.g0, bank.c_g0,
                               bank.g1, bank.c_g1, axis=-2) / 4.0
        return crop_to(image, pyramid.original_shape)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _polyphase_split(u: np.ndarray) -> np.ndarray:
    """Split an undecimated level-1 output into its four tree polyphases.

    Shape-polymorphic over leading axes: input ``(..., H, W)`` returns
    ``(2, 2, ..., H/2, W/2)`` indexed ``[vertical_tree,
    horizontal_tree]`` (tree A = even samples, tree B = odd samples).
    """
    rows, cols = u.shape[-2:]
    if rows % 2 or cols % 2:
        raise TransformError(f"level-1 output must have even sides, got {u.shape}")
    out = np.empty((2, 2) + u.shape[:-2] + (rows // 2, cols // 2),
                   dtype=u.dtype)
    for tv in (0, 1):
        for th in (0, 1):
            out[tv, th] = u[..., tv::2, th::2]
    return out


def _polyphase_merge(trees: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_polyphase_split`."""
    half_rows, half_cols = trees.shape[-2:]
    out = np.empty(trees.shape[2:-2] + (half_rows * 2, half_cols * 2),
                   dtype=trees.dtype)
    for tv in (0, 1):
        for th in (0, 1):
            out[..., tv::2, th::2] = trees[tv, th]
    return out


def _bands_from_tree_quads(lh: np.ndarray, hl: np.ndarray,
                           hh: np.ndarray) -> np.ndarray:
    """Stack the six complex subbands from per-tree high-pass quads.

    Input arrays have shape ``(2, 2, ..., H, W)``; the output is
    complex with shape ``(6, ..., H, W)`` ordered as
    :data:`ORIENTATIONS`.
    """
    bands = np.empty((6,) + lh.shape[2:], dtype=np.complex128)
    # horizontal-ish edges come from the vertical high-pass (hl), etc.
    lh_pos, lh_neg = q2c(lh[0, 0], lh[0, 1], lh[1, 0], lh[1, 1])
    hl_pos, hl_neg = q2c(hl[0, 0], hl[0, 1], hl[1, 0], hl[1, 1])
    hh_pos, hh_neg = q2c(hh[0, 0], hh[0, 1], hh[1, 0], hh[1, 1])
    bands[0] = lh_pos   # ~ +15 deg
    bands[1] = hh_pos   # ~ +45 deg
    bands[2] = hl_pos   # ~ +75 deg
    bands[3] = hl_neg   # ~ 105 deg
    bands[4] = hh_neg   # ~ 135 deg
    bands[5] = lh_neg   # ~ 165 deg
    return bands


def _tree_quads_from_bands(bands: np.ndarray, dtype: np.dtype
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`_bands_from_tree_quads`."""
    shape = (2, 2) + bands.shape[1:]
    lh = np.empty(shape, dtype=dtype)
    hl = np.empty(shape, dtype=dtype)
    hh = np.empty(shape, dtype=dtype)
    for quad, pos, neg in ((lh, bands[0], bands[5]),
                           (hh, bands[1], bands[4]),
                           (hl, bands[2], bands[3])):
        y_aa, y_ab, y_ba, y_bb = c2q(pos, neg)
        quad[0, 0] = y_aa
        quad[0, 1] = y_ab
        quad[1, 0] = y_ba
        quad[1, 1] = y_bb
    return lh, hl, hh


def forward(image: np.ndarray, levels: int = 3,
            banks: Optional[DtcwtBanks] = None,
            backend: Optional[KernelBackend] = None) -> DtcwtPyramid:
    """Convenience wrapper: one-shot forward DT-CWT."""
    return Dtcwt2D(levels=levels, banks=banks, backend=backend).forward(image)


def inverse(pyramid: DtcwtPyramid,
            banks: Optional[DtcwtBanks] = None,
            backend: Optional[KernelBackend] = None) -> np.ndarray:
    """Convenience wrapper: one-shot inverse DT-CWT."""
    return Dtcwt2D(levels=pyramid.levels, banks=banks,
                   backend=backend).inverse(pyramid)
