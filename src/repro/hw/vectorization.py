"""NEON vectorization model: manual intrinsics vs auto-vectorization.

Section IV (and Fig. 3) of the paper compares two ways of producing
NEON code for the filter loops:

* **manual** — ``float32x4_t`` intrinsics, explicit quad-register MACs,
  final lane reduction;
* **auto** — g++ ``-mfpu=neon -ftree-vectorize``, enabled by
  ``__restrict`` pointers and loop counts masked to multiples of 4.

"Both the manual and auto vectorization produced the similar
performance enhancement."  This module models each strategy's
constraints (what fraction of loops vectorize, epilogue handling,
reduction overhead) so that claim is checkable, and generates the
vectorization report a compiler would emit for the transform's loops.

:func:`strategy_seconds` is the one SIMD pass-pricing formula: the
NEON engine's :meth:`~repro.hw.neon.NeonEngine.passes_time` is this
function under a strategy with full coverage, the calibrated lane
efficiency and no loop overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import ConfigurationError
from ..types import FrameShape
from .calibration import DEFAULT_CALIBRATION, Calibration
from .work import FilterPass, WorkModel


@dataclass(frozen=True)
class VectorizationStrategy:
    """How loops are turned into SIMD, and at what cost."""

    name: str
    #: fraction of candidate loops the strategy manages to vectorize
    coverage: float
    #: sustained fraction of the 4-lane ideal inside vectorized loops
    lane_efficiency: float
    #: cycles of fixed overhead per vectorized loop (reduction, setup)
    loop_overhead_macs: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ConfigurationError("coverage must be within [0, 1]")
        if not 0.0 < self.lane_efficiency <= 1.0:
            raise ConfigurationError("lane efficiency must be in (0, 1]")


#: Manual intrinsics: every MAC loop rewritten, slightly better sustained
#: throughput, but each loop pays an explicit 4-lane reduction.
MANUAL = VectorizationStrategy(name="manual-intrinsics", coverage=1.00,
                               lane_efficiency=0.88,
                               loop_overhead_macs=12.0)

#: Auto-vectorization: the compiler proves independence for most (not
#: all) loops given __restrict and masked trip counts; no reduction
#: cost is modelled because gcc keeps partial sums in registers.
AUTO = VectorizationStrategy(name="auto-gcc", coverage=0.92,
                             lane_efficiency=0.85,
                             loop_overhead_macs=4.0)


@dataclass
class LoopReport:
    """One loop's vectorization outcome (a compiler-report line)."""

    description: str
    trip_count: int
    vectorized: bool
    reason: str


def strategy_seconds(strategy: VectorizationStrategy,
                     passes: Sequence[FilterPass], mac_rate: float,
                     vector_fraction: float, lanes: int = 4) -> float:
    """Latency of the transform passes under a vectorization strategy."""
    vec_rate = mac_rate * lanes * strategy.lane_efficiency
    total = 0.0
    for p in passes:
        aligned = (p.out_len // lanes) * lanes
        aligned_fraction = aligned / p.out_len if p.out_len else 0.0
        candidate = p.macs * vector_fraction * aligned_fraction
        vectorized = candidate * strategy.coverage
        scalar = p.macs - vectorized
        total += vectorized / vec_rate + scalar / mac_rate
        total += strategy.loop_overhead_macs / mac_rate
    return total


def compare_strategies(shape: FrameShape, levels: int = 3,
                       calibration: Calibration = DEFAULT_CALIBRATION
                       ) -> dict:
    """Forward-transform seconds for scalar, manual and auto builds."""
    work = WorkModel(shape, levels=levels)
    passes = work.forward_passes()
    rate = calibration.arm_mac_rate_fwd
    fraction = calibration.neon_vector_fraction_fwd
    scalar = sum(p.macs for p in passes) / rate
    return {
        "scalar": scalar,
        "manual": strategy_seconds(MANUAL, passes, rate, fraction),
        "auto": strategy_seconds(AUTO, passes, rate, fraction),
    }


def vectorization_report(shape: FrameShape, levels: int = 3,
                         lanes: int = 4) -> List[LoopReport]:
    """Per-loop vectorization report for the transform's filter loops.

    Mirrors what ``g++ -fopt-info-vec`` would say about the paper's
    code: loops whose trip count is masked to a lane multiple vectorize;
    ragged loops fall back to scalar epilogues.
    """
    work = WorkModel(shape, levels=levels)
    reports: List[LoopReport] = []
    seen = set()
    for p in work.forward_passes():
        key = (p.level, p.out_len)
        if key in seen:
            continue
        seen.add(key)
        aligned = p.out_len % lanes == 0
        reports.append(LoopReport(
            description=f"level {p.level} dual-MAC loop "
                        f"(len {p.out_len}, {p.taps} taps)",
            trip_count=p.out_len,
            vectorized=True,
            reason=("trip count multiple of 4" if aligned else
                    f"vectorized with scalar epilogue of "
                    f"{p.out_len % lanes}"),
        ))
    return reports
