"""Shared lightweight datatypes used across the repro package.

These types intentionally carry no behaviour beyond validation and
convenience accessors; the algorithms live in the subpackages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import ConfigurationError


@dataclass(frozen=True)
class FrameShape:
    """A frame geometry expressed the way the paper writes it: width x height.

    The paper's evaluation sweeps 32x24, 35x35, 40x40, 64x48 and 88x72
    pixel frames; :data:`PAPER_FRAME_SIZES` lists them in that order.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"frame dimensions must be positive, got {self.width}x{self.height}"
            )

    @property
    def pixels(self) -> int:
        """Total number of pixels in the frame."""
        return self.width * self.height

    @property
    def array_shape(self) -> Tuple[int, int]:
        """Numpy array shape (rows, cols) == (height, width)."""
        return (self.height, self.width)

    def scaled(self, factor: float) -> "FrameShape":
        """Return a new shape scaled by ``factor`` (rounded, at least 1 px)."""
        return FrameShape(
            max(1, int(round(self.width * factor))),
            max(1, int(round(self.height * factor))),
        )

    def __str__(self) -> str:  # e.g. "88x72"
        return f"{self.width}x{self.height}"


#: Frame sizes evaluated in the paper (Fig. 9 and Fig. 10), smallest first.
PAPER_FRAME_SIZES: Tuple[FrameShape, ...] = (
    FrameShape(32, 24),
    FrameShape(35, 35),
    FrameShape(40, 40),
    FrameShape(64, 48),
    FrameShape(88, 72),
)

#: The full input frame size used by the designed system (Section VII).
FULL_FRAME: FrameShape = FrameShape(88, 72)


@dataclass(frozen=True)
class TimingBreakdown:
    """Latency decomposition of one operation on one engine (seconds).

    Attributes mirror the cost structure the paper discusses:

    * ``compute_s``   — arithmetic (filter MACs / pipeline occupancy),
    * ``transfer_s``  — data movement (AXI bursts, user<->kernel memcpy),
    * ``command_s``   — per-invocation control cost (AXI-Lite writes,
      driver ioctl, completion polling),
    * ``overhead_s``  — everything else (loop setup, interleaving, ...).

    Frozen: the engine cost model hands out shared, memoized instances
    (see :class:`repro.hw.engine.Engine`), so a caller must build a new
    breakdown (``+``, :meth:`scaled`) rather than edit one in place.
    """

    compute_s: float = 0.0
    transfer_s: float = 0.0
    command_s: float = 0.0
    overhead_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total latency in seconds."""
        return self.compute_s + self.transfer_s + self.command_s + self.overhead_s

    def __add__(self, other: "TimingBreakdown") -> "TimingBreakdown":
        return TimingBreakdown(
            self.compute_s + other.compute_s,
            self.transfer_s + other.transfer_s,
            self.command_s + other.command_s,
            self.overhead_s + other.overhead_s,
        )

    def scaled(self, factor: float) -> "TimingBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return TimingBreakdown(
            self.compute_s * factor,
            self.transfer_s * factor,
            self.command_s * factor,
            self.overhead_s * factor,
        )


@dataclass
class EnergyReport:
    """Energy accounting for a measured interval."""

    seconds: float
    power_w: float

    @property
    def joules(self) -> float:
        return self.seconds * self.power_w

    @property
    def millijoules(self) -> float:
        return self.joules * 1e3


@dataclass
class StageProfile:
    """Per-stage timing profile of the fusion pipeline (Fig. 2).

    ``stages`` maps stage name to accumulated seconds.
    """

    stages: Dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    @property
    def total_s(self) -> float:
        return sum(self.stages.values())

    def percentages(self) -> Dict[str, float]:
        """Stage shares in percent, as plotted in the paper's Fig. 2."""
        total = self.total_s
        if total <= 0.0:
            return {name: 0.0 for name in self.stages}
        return {name: 100.0 * sec / total for name, sec in self.stages.items()}

    def ranked(self) -> List[Tuple[str, float]]:
        """Stages sorted by descending share (percent)."""
        return sorted(self.percentages().items(), key=lambda kv: -kv[1])
