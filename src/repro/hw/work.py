"""Analytic work model of the DT-CWT fusion pipeline.

Every engine's timing estimator consumes the same description of *what
has to be computed*: a list of 1-D filtering passes (the unit of work
the paper's HLS engine executes per invocation) plus the coefficient
fusion workload.  Keeping the work model separate from the engine cost
models guarantees the three engines are compared on identical workloads
— exactly the experimental setup of Section VII.

Pass accounting matches the functional transform in
:mod:`repro.dtcwt.transform2d`:

* level 1 filters the full image undecimated (one pass per column, then
  one pass per row of each of the two intermediate arrays);
* levels >= 2 process the four trees independently, decimating by two;
* the inverse mirrors the forward structure with synthesis filters.

Each pass computes the low-pass *and* high-pass filter in one sweep,
the way the hardware engine's dual MAC datapath does (paper Fig. 4).

The analytic model uses the *true* frame geometry (with ceil-division
for odd sizes, like the authors' implementation); the functional
transform path pads instead.  See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..dtcwt.coeffs import DtcwtBanks, dtcwt_banks
from ..errors import ConfigurationError
from ..types import FrameShape


@dataclass(frozen=True)
class FilterPass:
    """One 1-D dual-filter sweep over a row or column.

    Attributes
    ----------
    level:
        Decomposition level this pass belongs to (1-based).
    direction:
        ``"forward"`` or ``"inverse"``.
    out_len:
        Number of output samples produced per filter channel.
    taps:
        Filter length used by the MAC datapath.
    macs:
        Multiply-accumulate operations executed (both channels).
    words_in / words_out:
        32-bit words moved into / out of the datapath.
    """

    level: int
    direction: str
    out_len: int
    taps: int
    macs: int
    words_in: int
    words_out: int


def _level_sizes(shape: FrameShape, levels: int) -> List[Tuple[int, int]]:
    """(height, width) seen by each level, ceil-halving like the paper."""
    sizes = []
    rows, cols = shape.height, shape.width
    for _ in range(levels):
        sizes.append((rows, cols))
        rows = (rows + 1) // 2
        cols = (cols + 1) // 2
    return sizes


class WorkModel:
    """Workload generator for one fused frame.

    Parameters
    ----------
    shape:
        Input frame geometry (both source frames share it).
    levels:
        DT-CWT decomposition depth.
    banks:
        Filter banks (tap counts feed the MAC model).
    """

    def __init__(self, shape: FrameShape, levels: int = 3,
                 banks: DtcwtBanks = None):
        if levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {levels}")
        self.shape = shape
        self.levels = levels
        self.banks = banks if banks is not None else dtcwt_banks()

    # ------------------------------------------------------------------
    # forward / inverse pass streams (single image)
    # ------------------------------------------------------------------
    def forward_passes(self) -> List[FilterPass]:
        """Passes to decompose ONE image."""
        t1 = len(self.banks.level1.h0) + len(self.banks.level1.h1)
        tq = self.banks.qshift.length
        passes: List[FilterPass] = []
        sizes = _level_sizes(self.shape, self.levels)

        rows, cols = sizes[0]
        # level 1, undecimated: one pass per column on the image, then one
        # pass per row on each of the two column-filtered arrays.
        for _ in range(cols):
            passes.append(_make_pass(1, "forward", rows, t1 // 2,
                                     macs=rows * t1,
                                     words_in=rows, words_out=2 * rows))
        for _ in range(2 * rows):
            passes.append(_make_pass(1, "forward", cols, t1 // 2,
                                     macs=cols * t1,
                                     words_in=cols, words_out=2 * cols))

        # levels >= 2: per tree, decimating dual-filter sweeps.
        for level in range(2, self.levels + 1):
            lrows, lcols = sizes[level - 1]
            out_r, out_c = (lrows + 1) // 2, (lcols + 1) // 2
            for _tree in range(4):
                for _ in range(lcols):           # column sweeps
                    passes.append(_make_pass(level, "forward", out_r, tq,
                                             macs=out_r * 2 * tq,
                                             words_in=lrows,
                                             words_out=2 * out_r))
                for _ in range(2 * out_r):       # row sweeps on lo_v and hi_v
                    passes.append(_make_pass(level, "forward", out_c, tq,
                                             macs=out_c * 2 * tq,
                                             words_in=lcols,
                                             words_out=2 * out_c))
        return passes

    def inverse_passes(self) -> List[FilterPass]:
        """Passes to reconstruct ONE image from its pyramid."""
        t1 = len(self.banks.level1.g0) + len(self.banks.level1.g1)
        tq = self.banks.qshift.length
        passes: List[FilterPass] = []
        sizes = _level_sizes(self.shape, self.levels)

        for level in range(self.levels, 1, -1):
            lrows, lcols = sizes[level - 1]
            in_r, in_c = (lrows + 1) // 2, (lcols + 1) // 2
            for _tree in range(4):
                # row synthesis: (ll,lh)->lo_v and (hl,hh)->hi_v
                for _ in range(2 * in_r):
                    passes.append(_make_pass(level, "inverse", lcols, tq,
                                             macs=lcols * tq,
                                             words_in=2 * in_c,
                                             words_out=lcols))
                # column synthesis: (lo_v,hi_v) -> tree low-pass
                for _ in range(lcols):
                    passes.append(_make_pass(level, "inverse", lrows, tq,
                                             macs=lrows * tq,
                                             words_in=2 * in_r,
                                             words_out=lrows))

        rows, cols = sizes[0]
        # level 1 synthesis: rows of the four U arrays, then columns.
        for _ in range(2 * rows):
            passes.append(_make_pass(1, "inverse", cols, t1 // 2,
                                     macs=cols * t1,
                                     words_in=2 * cols, words_out=cols))
        for _ in range(cols):
            passes.append(_make_pass(1, "inverse", rows, t1 // 2,
                                     macs=rows * t1,
                                     words_in=2 * rows, words_out=rows))
        return passes

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def fusion_coefficients(self) -> int:
        """Complex coefficients the fusion rule touches for a frame pair.

        Six complex bands per level plus the four low-pass trees.
        """
        total = 0
        rows, cols = self.shape.height, self.shape.width
        for _ in range(self.levels):
            rows_b, cols_b = (rows + 1) // 2, (cols + 1) // 2
            total += 6 * rows_b * cols_b
            rows, cols = rows_b, cols_b
        total += 4 * rows * cols  # low-pass trees
        return total

    def forward_macs(self) -> int:
        return sum(p.macs for p in self.forward_passes())

    def forward_invocations(self) -> int:
        return len(self.forward_passes())

    def inverse_invocations(self) -> int:
        return len(self.inverse_passes())


def _make_pass(level: int, direction: str, out_len: int, taps: int,
               macs: int, words_in: int, words_out: int) -> FilterPass:
    return FilterPass(level=level, direction=direction, out_len=out_len,
                      taps=taps, macs=macs, words_in=words_in,
                      words_out=words_out)


def summarize_passes(passes: Iterable[FilterPass]) -> dict:
    """Aggregate statistics used by benchmarks and tests."""
    passes = list(passes)
    return {
        "invocations": len(passes),
        "macs": sum(p.macs for p in passes),
        "words": sum(p.words_in + p.words_out for p in passes),
        "levels": sorted({p.level for p in passes}),
    }
