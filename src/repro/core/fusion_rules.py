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
    pyramids alike.  Two sources combine with the pairwise
    hooks :meth:`fuse_highpass` / :meth:`fuse_lowpass`; more sources
    reduce with :meth:`fuse_highpass_many` / :meth:`fuse_lowpass_many`.
    The default N-ary reduction left-folds :meth:`fuse_highpass`
    (exact for selection rules whose pairwise comparison is
    associative, e.g. max-magnitude) and uniformly averages the
    low-pass; rules with genuinely N-ary semantics override the
    ``_many`` hooks.
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
        pair = len(pyramids) == 2
        highpasses = tuple(
            self.fuse_highpass(*bands) if pair
            else self.fuse_highpass_many(bands)
            for bands in zip(*(p.highpasses for p in pyramids)))
        lows = [p.lowpass for p in pyramids]
        lowpass = (self.fuse_lowpass(*lows) if pair
                   else self.fuse_lowpass_many(lows))
        first = pyramids[0]
        return DtcwtPyramid(
            lowpass=lowpass,
            highpasses=highpasses,
            original_shape=first.original_shape,
            padded_shape=first.padded_shape,
            levels=first.levels,
        )

    @abstractmethod
    def fuse_highpass(self, band_a: np.ndarray, band_b: np.ndarray) -> np.ndarray:
        """Combine one level's complex subbands ``(6, ..., H, W)``.

        Implementations must only address the trailing two axes so
        stacked batches fuse identically to single frames.
        """

    def fuse_lowpass(self, low_a: np.ndarray, low_b: np.ndarray) -> np.ndarray:
        """Default low-pass handling: average the two modalities."""
        return (low_a + low_b) / 2.0

    def fuse_highpass_many(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        """N-ary high-pass reduction; the default left-folds the
        pairwise rule (earlier sources win pairwise ties, matching the
        two-source convention)."""
        fused = bands[0]
        for band in bands[1:]:
            fused = self.fuse_highpass(fused, band)
        return fused

    def fuse_lowpass_many(self, lows: Sequence[np.ndarray]) -> np.ndarray:
        """N-ary low-pass reduction; the default is the uniform mean
        (the N-source generalization of the pairwise average)."""
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

    def fuse_highpass(self, band_a: np.ndarray, band_b: np.ndarray) -> np.ndarray:
        choose_a = np.abs(band_a) >= np.abs(band_b)
        return np.where(choose_a, band_a, band_b)

    def fuse_highpass_many(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        # one argmax over the source axis instead of N-1 pairwise
        # folds; argmax returns the first maximum, which is exactly
        # the fold's earliest-source tie-break
        stacked = np.stack(bands)
        choice = np.argmax(np.abs(stacked), axis=0)
        return np.take_along_axis(stacked, choice[None], axis=0)[0]


class WeightedRule(FusionRule):
    """Fixed-weight linear blend of coefficients (alpha toward input A).

    Mostly useful as a lower bound in quality studies: blending complex
    coefficients averages away contrast that selection rules keep.
    """

    name = "weighted"

    def __init__(self, alpha: float = 0.5):
        if not 0.0 <= alpha <= 1.0:
            raise FusionError(f"alpha must be within [0, 1], got {alpha}")
        self.alpha = alpha

    def fuse_highpass(self, band_a: np.ndarray, band_b: np.ndarray) -> np.ndarray:
        return self.alpha * band_a + (1.0 - self.alpha) * band_b

    def fuse_lowpass(self, low_a: np.ndarray, low_b: np.ndarray) -> np.ndarray:
        return self.alpha * low_a + (1.0 - self.alpha) * low_b

    def _blend_many(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        # alpha toward source 0; the remainder shared uniformly —
        # the N-source generalization of the pairwise blend
        rest = (1.0 - self.alpha) / float(len(operands) - 1)
        fused = self.alpha * operands[0]
        for operand in operands[1:]:
            fused = fused + rest * operand
        return fused

    def fuse_highpass_many(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        return self._blend_many(bands)

    def fuse_lowpass_many(self, lows: Sequence[np.ndarray]) -> np.ndarray:
        return self._blend_many(lows)


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

    def fuse_highpass(self, band_a: np.ndarray, band_b: np.ndarray) -> np.ndarray:
        act_a = _box_sum(np.abs(band_a), self.window)
        act_b = _box_sum(np.abs(band_b), self.window)
        choose_a = act_a >= act_b
        if self.consistency:
            votes = _box_sum(choose_a.astype(np.float64), self.window)
            majority = self.window * self.window / 2.0
            choose_a = votes > majority
        return np.where(choose_a, band_a, band_b)

    def fuse_highpass_many(self, bands: Sequence[np.ndarray]) -> np.ndarray:
        stacked = np.stack(bands)
        activity = _box_sum(np.abs(stacked), self.window)
        # first maximum wins: the earliest-source tie-break of the
        # pairwise rule, generalized
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


def rule_by_name(name: str, **kwargs) -> FusionRule:
    """Factory used by the CLI and the examples."""
    rules = {
        MaxMagnitudeRule.name: MaxMagnitudeRule,
        WeightedRule.name: WeightedRule,
        WindowActivityRule.name: WindowActivityRule,
    }
    if name not in rules:
        raise FusionError(f"unknown fusion rule {name!r}; known: {sorted(rules)}")
    return rules[name](**kwargs)
