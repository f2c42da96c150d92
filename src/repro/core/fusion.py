"""DT-CWT based image and video fusion (the paper's core algorithm).

The algorithm of Section III: apply the forward DT-CWT to every source
frame (visible and infrared in the paper, N >= 2 in general), combine
the coefficient pyramids with a fusion rule, and reconstruct the fused
frame with the inverse DT-CWT.

:class:`ImageFusion` is the reusable object (transform + rule +
engine); :func:`fuse_images` the one-shot convenience.  The class also
exposes the *staged* execution used by the profiler and the runtime so
each stage can be timed and attributed the way Fig. 2 and Fig. 9 do.
Each stage has one entry whatever the source count and batch:
:meth:`ImageFusion.decompose` takes one frame or a frame stack,
:meth:`ImageFusion.combine` N pyramids with one frame axis, and
:meth:`ImageFusion.reconstruct` returns the rank its pyramid implies.

:meth:`ImageFusion.fuse` is batch-first: ``B`` frame groups (or one)
are fused with the same number of NumPy primitive calls as one
frame.  All ``N`` sources ride the *same* stacked forward transform
(a source-major ``(N*B, H, W)`` stack, so grouping the inputs already
multiplies the batch for free), the fusion rule combines the ``N``
per-source views in vectorized calls, and one inverse reconstructs
all fused frames.  Every frame is bitwise-identical to decomposing,
combining and reconstructing that group's frames one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..dtcwt.coeffs import DtcwtBanks
from ..dtcwt.transform2d import Dtcwt2D, DtcwtPyramid
from ..errors import FusionError
from .fusion_rules import FusionRule, MaxMagnitudeRule


@dataclass
class FusionResult:
    """Fused frame (or ``(B, H, W)`` stack) plus the intermediate
    pyramids (for inspection).

    ``pyramids`` holds every source's pyramid in input order.
    For stacked sources each pyramid carries the same frame axis as
    ``fused`` (index it with ``pyramid[i]``).
    """

    fused: np.ndarray
    pyramids: Tuple[DtcwtPyramid, ...]
    pyramid_fused: DtcwtPyramid


class ImageFusion:
    """Pixel-level fusion of N >= 2 co-registered frames.

    Parameters
    ----------
    levels:
        DT-CWT decomposition depth (the paper sweeps this indirectly by
        shrinking frames; 3 is its full-frame setting).
    rule:
        Coefficient fusion rule; defaults to the paper's max-magnitude
        selection with low-pass averaging.
    transform:
        Optionally a pre-built :class:`Dtcwt2D` (e.g. wired to a
        hardware engine's backend).  Overrides ``levels``/``banks``.
    """

    def __init__(self, levels: int = 3, rule: Optional[FusionRule] = None,
                 banks: Optional[DtcwtBanks] = None,
                 transform: Optional[Dtcwt2D] = None):
        self.transform = transform if transform is not None else Dtcwt2D(
            levels=levels, banks=banks)
        self.rule = rule if rule is not None else MaxMagnitudeRule()

    @property
    def levels(self) -> int:
        return self.transform.levels

    # ------------------------------------------------------------------
    # staged execution (what the profiler instruments)
    # ------------------------------------------------------------------
    def decompose(self, image: np.ndarray) -> DtcwtPyramid:
        """Stage 1/2: forward DT-CWT of one source frame ``(H, W)`` or
        of a frame stack ``(N, H, W)``."""
        return self.transform.forward(image)

    def combine(self, *pyramids: DtcwtPyramid) -> DtcwtPyramid:
        """Stage 3: coefficient fusion of N >= 2 source pyramids with
        one frame axis, vectorized over a stack's frames."""
        return self.rule.fuse(*pyramids)

    def reconstruct(self, pyramid: DtcwtPyramid) -> np.ndarray:
        """Stage 4: inverse DT-CWT of the fused pyramid."""
        return self.transform.inverse(pyramid)

    # ------------------------------------------------------------------
    def fuse(self, *images: np.ndarray) -> FusionResult:
        """Full pipeline on N >= 2 co-registered sources.

        Each argument is one source: a 2-D frame (one group) or a
        ``(B, H, W)`` stack (or list of same-shape frames) of that
        source's frames in ``B`` groups.  All ``N`` sources ride one
        source-major ``(N*B, H, W)`` forward — the grouping itself
        multiplies the batch, so even one group divides the per-call
        overhead by ``N`` versus separate forwards — then one
        vectorized :meth:`combine` of the per-source views and one
        :meth:`reconstruct`.  Each fused frame is bitwise-identical
        to those three stages run on that group's frames one by one.
        """
        if len(images) < 2:
            raise FusionError(
                f"fuse needs >= 2 source frames, got {len(images)}")
        frames = [np.asarray(image) for image in images]
        shape = frames[0].shape
        if any(frame.shape != shape for frame in frames):
            raise FusionError(
                f"source frames must share a shape, got "
                f"{' vs '.join(str(frame.shape) for frame in frames)}"
            )
        if len(shape) not in (2, 3):
            raise FusionError(
                f"fuse expects 2-D frames or (B, H, W) stacks, got "
                f"shape {shape}")
        if not frames[0].size:
            raise FusionError(f"cannot fuse empty frames of shape {shape}")
        stacked = self.decompose(np.stack(frames).reshape((-1,) + shape[-2:]))
        if len(shape) == 2:
            pyramids = tuple(stacked[s] for s in range(len(frames)))
        else:
            count = shape[0]
            pyramids = tuple(stacked[s * count:(s + 1) * count]
                             for s in range(len(frames)))
        pyr_f = self.combine(*pyramids)
        return FusionResult(fused=self.reconstruct(pyr_f),
                            pyramids=pyramids, pyramid_fused=pyr_f)


def fuse_images(*images: np.ndarray, levels: int = 3,
                rule: Optional[FusionRule] = None) -> np.ndarray:
    """One-shot DT-CWT fusion of N >= 2 frames; returns the fused frame."""
    return ImageFusion(levels=levels, rule=rule).fuse(*images).fused
