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
:meth:`ImageFusion.combine` takes N pyramids or N pyramid stacks.

:meth:`ImageFusion.fuse_batch` is the batch-first entry point: ``B``
frame groups are fused with the same number of NumPy primitive calls
as one group.  All ``N`` sources of every group ride the *same*
stacked forward transform (a source-major ``(N*B, H, W)`` stack, so
grouping the inputs already multiplies the batch for free), the
fusion rule combines the ``N`` pyramid stacks in vectorized calls,
and one stacked inverse reconstructs all fused frames.  Every frame
is bitwise-identical to what :meth:`ImageFusion.fuse` computes for
that group alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..dtcwt.coeffs import DtcwtBanks
from ..dtcwt.transform2d import Dtcwt2D, DtcwtPyramid, DtcwtPyramidStack
from ..errors import FusionError
from .fusion_rules import FusionRule, MaxMagnitudeRule, Pyramid


@dataclass
class FusionResult:
    """Fused frame plus the intermediate pyramids (for inspection).

    ``pyramids`` holds every source's pyramid in input order; the
    historical ``pyramid_a`` / ``pyramid_b`` names read the first two.
    """

    fused: np.ndarray
    pyramids: Tuple[DtcwtPyramid, ...]
    pyramid_fused: DtcwtPyramid

    @property
    def pyramid_a(self) -> DtcwtPyramid:
        return self.pyramids[0]

    @property
    def pyramid_b(self) -> DtcwtPyramid:
        return self.pyramids[1]


@dataclass
class BatchFusionResult:
    """Fused frame stack plus the intermediate pyramid stacks.

    ``fused`` has shape ``(B, H, W)``; ``pyramids[s]`` holds source
    ``s``'s coefficients for every frame (``pyramids_a`` /
    ``pyramids_b`` read the first two).  ``result[i]`` adapts frame
    ``i`` into an ordinary :class:`FusionResult`.
    """

    fused: np.ndarray
    pyramids: Tuple[DtcwtPyramidStack, ...]
    pyramids_fused: DtcwtPyramidStack

    @property
    def pyramids_a(self) -> DtcwtPyramidStack:
        return self.pyramids[0]

    @property
    def pyramids_b(self) -> DtcwtPyramidStack:
        return self.pyramids[1]

    def __len__(self) -> int:
        return self.fused.shape[0]

    def __getitem__(self, index: int) -> FusionResult:
        return FusionResult(
            fused=self.fused[index],
            pyramids=tuple(stack[index] for stack in self.pyramids),
            pyramid_fused=self.pyramids_fused[index],
        )


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
        """Stage 1/2: forward DT-CWT of one source frame."""
        return self.transform.forward(image)

    def combine(self, *pyramids: Pyramid) -> Pyramid:
        """Stage 3: coefficient fusion of N >= 2 source pyramids, or of
        N pyramid stacks vectorized over their frames."""
        return self.rule.fuse(*pyramids)

    def reconstruct(self, pyramid: DtcwtPyramid) -> np.ndarray:
        """Stage 4: inverse DT-CWT of the fused pyramid."""
        return self.transform.inverse(pyramid)

    # ------------------------------------------------------------------
    # batched staged execution (same stages, stacked operands)
    # ------------------------------------------------------------------
    def decompose_batch(self, frames: np.ndarray) -> DtcwtPyramidStack:
        """Forward DT-CWT of a whole ``(N, H, W)`` frame stack."""
        return self.transform.forward_batch(frames)

    def reconstruct_batch(self, stack: DtcwtPyramidStack) -> np.ndarray:
        """Inverse DT-CWT of a fused pyramid stack -> ``(N, H, W)``."""
        return self.transform.inverse_batch(stack)

    # ------------------------------------------------------------------
    def fuse(self, *images: np.ndarray) -> FusionResult:
        """Full pipeline on one co-registered frame group (N >= 2)."""
        if len(images) < 2:
            raise FusionError(
                f"fuse needs >= 2 source frames, got {len(images)}")
        frames = [np.asarray(image) for image in images]
        shapes = {frame.shape for frame in frames}
        if len(shapes) != 1:
            raise FusionError(
                f"source frames must share a shape, got "
                f"{' vs '.join(str(frame.shape) for frame in frames)}"
            )
        pyramids = tuple(self.decompose(frame) for frame in frames)
        pyr_f = self.combine(*pyramids)
        fused = self.reconstruct(pyr_f)
        return FusionResult(fused=fused, pyramids=pyramids,
                            pyramid_fused=pyr_f)

    def fuse_batch(self,
                   *stacks: Union[np.ndarray, Sequence[np.ndarray]]
                   ) -> BatchFusionResult:
        """Full pipeline on ``B`` frame groups in stacked NumPy calls.

        Each positional argument is one source's ``(B, H, W)`` stack
        (or list of same-shape 2-D frames).  All ``N`` sources ride the
        *same* ``(N*B, H, W)`` forward transform — the grouping itself
        multiplies the batch — so even ``B = 1`` already divides the
        per-call overhead by ``N`` versus separate forwards.  Each
        fused frame is bitwise-identical to :meth:`fuse` on that group.
        """
        if len(stacks) < 2:
            raise FusionError(
                f"fuse_batch needs >= 2 source stacks, got {len(stacks)}")
        arrays = [np.asarray(stack) for stack in stacks]
        if any(array.ndim == 2 for array in arrays):
            raise FusionError(
                "fuse_batch expects (B, H, W) frame stacks; use fuse() "
                "for a single group"
            )
        if any(array.ndim != 3 for array in arrays):
            raise FusionError(
                f"fuse_batch expects (B, H, W) frame stacks, got shapes "
                f"{' and '.join(str(array.shape) for array in arrays)}"
            )
        if len({array.shape for array in arrays}) != 1:
            raise FusionError(
                f"source stacks must share a shape, got "
                f"{' vs '.join(str(array.shape) for array in arrays)}"
            )
        if arrays[0].shape[0] == 0:
            raise FusionError("cannot fuse an empty batch")
        return self.fuse_stack(np.concatenate(arrays, axis=0), len(arrays))

    def decompose_sources(self, stack: np.ndarray, sources: int
                          ) -> Tuple[DtcwtPyramidStack, ...]:
        """One stacked forward of a source-major ``(N*B, H, W)`` stack
        (source ``s`` owns rows ``s*B .. (s+1)*B``), sliced back into
        one ``B``-frame pyramid stack per source."""
        count = stack.shape[0] // sources
        stacked = self.decompose_batch(stack)
        return tuple(stacked.slice(s * count, (s + 1) * count)
                     for s in range(sources))

    def fuse_stack(self, stack: np.ndarray,
                   sources: int) -> BatchFusionResult:
        """The stacked core on a pre-filled source-major ``(N*B, H, W)``
        stack: one forward (:meth:`decompose_sources`), one vectorized
        coefficient fusion and one stacked inverse."""
        per_source = self.decompose_sources(stack, sources)
        stack_f = self.combine(*per_source)
        fused = self.reconstruct_batch(stack_f)
        return BatchFusionResult(fused=fused, pyramids=per_source,
                                 pyramids_fused=stack_f)


def fuse_images(*images: np.ndarray, levels: int = 3,
                rule: Optional[FusionRule] = None) -> np.ndarray:
    """One-shot DT-CWT fusion of N >= 2 frames; returns the fused frame."""
    return ImageFusion(levels=levels, rule=rule).fuse(*images).fused
