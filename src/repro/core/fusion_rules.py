"""Coefficient fusion rules for DT-CWT pixel-level image fusion.

After every source frame is decomposed, a fusion rule decides — per
complex high-pass coefficient and per low-pass sample — how to combine
the pyramids into one.  The paper uses the classic rule family from
Nikolov/Hill (its reference [2]):

* **maximum magnitude** selection for the high-pass bands (a larger
  ``|z|`` means more salient local structure in that band), and
* **averaging** for the final low-pass (the coarse illumination of the
  two modalities is blended).

Additional rules implemented here (window activity with consistency
checking, weighted blending) are standard variants used to study fusion
quality; they share the same interface so the pipeline can swap them.

All built-in rules are **vectorized ufunc-style operations**: the
per-level combination methods only ever address the trailing ``(H, W)``
axes (elementwise selects/blends, rolls along ``axis=-2``/``-1``), so
the very same code fuses single-frame pyramids or stacked ones —
:meth:`FusionRule.fuse` hands a stack's ``(6, B, H, W)`` operands to
the same hooks, and every frame comes out bitwise-identical to fusing
that frame alone.  Custom subclasses keep batch support for free as
long as their hooks follow the same trailing-axes discipline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..dtcwt.transform2d import DtcwtPyramid
from ..errors import FusionError


class FusionRule(ABC):
    """Combines N >= 2 same-shape DT-CWT pyramids into one.

    :meth:`fuse` is the one entry point, for single-frame and stacked
    pyramids alike.  A rule has one hook per band kind, each over all
    N sources in source order: :meth:`fuse_highpass` (abstract) and
    :meth:`fuse_lowpass` (default: the uniform mean).
    """

    name = "rule"

    def fuse(self, *pyramids: DtcwtPyramid) -> DtcwtPyramid:
        """Fuse N >= 2 pyramids with one frame axis into one (inputs
        are not modified).

        Frame ``i`` of fused stacks is bitwise-identical to fusing
        frame ``i`` of every operand alone, at the cost in NumPy calls
        of one frame.
        """
        _check_compatible(pyramids)
        first = pyramids[0]
        return DtcwtPyramid(
            lowpass=self.fuse_lowpass([p.lowpass for p in pyramids]),
            highpasses=tuple(
                self.fuse_highpass(bands)
                for bands in zip(*(p.highpasses for p in pyramids))),
            original_shape=first.original_shape,
            padded_shape=first.padded_shape,
            levels=first.levels,
        )

    @abstractmethod
    def fuse_highpass(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        """Combine one level's complex subbands ``(6, ..., H, W)``, one
        per source.

        Implementations must only address the trailing two axes so
        stacked batches fuse identically to single frames.
        """

    def fuse_lowpass(self, lows: Sequence[np.ndarray]) -> np.ndarray:
        """Default low-pass handling: the uniform mean of the sources."""
        total = lows[0] + lows[1]
        for low in lows[2:]:
            total = total + low
        return total / float(len(lows))


class MaxMagnitudeRule(FusionRule):
    """Per-coefficient selection of the larger complex magnitude.

    The paper's rule: keep the coefficient with more local energy,
    which transfers the sharpest structure from either modality.
    """

    name = "max-magnitude"

    def fuse_highpass(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        # a left fold: the earlier source wins every tie
        fused = bands[0]
        for band in bands[1:]:
            fused = np.where(np.abs(fused) >= np.abs(band), fused, band)
        return fused


class WeightedRule(FusionRule):
    """Fixed-weight linear blend of coefficients (alpha toward source 0).

    The remaining ``1 - alpha`` is shared uniformly by the other
    sources, for the high-pass and the low-pass bands alike.  Mostly
    useful as a lower bound in quality studies: blending complex
    coefficients averages away contrast that selection rules keep.
    """

    name = "weighted"

    def __init__(self, alpha: float = 0.5):
        if not 0.0 <= alpha <= 1.0:
            raise FusionError(f"alpha must be within [0, 1], got {alpha}")
        self.alpha = alpha

    def fuse_highpass(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        rest = (1.0 - self.alpha) / float(len(bands) - 1)
        fused = self.alpha * bands[0]
        for band in bands[1:]:
            fused = fused + rest * band
        return fused

    fuse_lowpass = fuse_highpass


class WindowActivityRule(FusionRule):
    """Area-based selection with an optional consistency check.

    The activity of each coefficient is the local sum of ``|z|`` over a
    ``window x window`` neighbourhood; whole neighbourhoods vote for the
    source with more energy, which suppresses the salt-and-pepper
    selection noise of the per-coefficient rule.  With
    ``consistency=True`` a majority filter flips isolated decisions —
    the standard Li/Kingsbury refinement.
    """

    name = "window-activity"

    def __init__(self, window: int = 3, consistency: bool = True):
        if window < 1 or window % 2 == 0:
            raise FusionError(f"window must be odd and >= 1, got {window}")
        self.window = window
        self.consistency = consistency

    def fuse_highpass(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        stacked = np.stack(bands)
        activity = _box_sum(np.abs(stacked), self.window)
        # first maximum wins: the earlier source takes every tie
        choice = np.argmax(activity, axis=0)
        if self.consistency:
            # each source's local vote share; re-argmax flips isolated
            # decisions toward the neighbourhood consensus
            votes = np.stack([
                _box_sum((choice == s).astype(np.float64), self.window)
                for s in range(stacked.shape[0])])
            choice = np.argmax(votes, axis=0)
        return np.take_along_axis(stacked, choice[None], axis=0)[0]


def _box_sum(stack: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window sum over the trailing two axes (edge-replicated)."""
    half = window // 2
    out = np.zeros_like(stack)
    for dy in range(-half, half + 1):
        rolled = np.roll(stack, dy, axis=-2)
        for dx in range(-half, half + 1):
            out += np.roll(rolled, dx, axis=-1)
    return out


def _check_compatible(pyramids: Sequence[DtcwtPyramid]) -> None:
    """Structural check: >= 2 operands with one level count, one
    padded shape and one frame axis."""
    if len(pyramids) < 2:
        raise FusionError(f"fuse needs >= 2 pyramids, got {len(pyramids)}")
    first = pyramids[0]
    for other in pyramids[1:]:
        if first.levels != other.levels:
            raise FusionError(
                f"pyramids disagree on levels: {first.levels} vs "
                f"{other.levels}")
        if first.padded_shape != other.padded_shape:
            raise FusionError(
                f"pyramids disagree on shape: {first.padded_shape} vs "
                f"{other.padded_shape}")
        if first.frames != other.frames:
            raise FusionError(
                f"pyramids disagree on frame axes: {first.frames} vs "
                f"{other.frames}")


#: Fusion-rule classes by :attr:`FusionRule.name` (what
#: ``FusionConfig.fusion_rule`` names).
FUSION_RULES = {rule.name: rule for rule in (
    MaxMagnitudeRule, WeightedRule, WindowActivityRule)}


def rule_by_name(name: str, **kwargs) -> FusionRule:
    """The :data:`FUSION_RULES` rule called ``name``, built with
    ``kwargs``."""
    if name not in FUSION_RULES:
        raise FusionError(
            f"unknown fusion rule {name!r}; known: {sorted(FUSION_RULES)}")
    return FUSION_RULES[name](**kwargs)
