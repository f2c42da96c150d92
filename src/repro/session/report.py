"""Unified per-frame results and run reports.

One result type and one report type: every consumer — CLI, examples,
tests, the serving tier — reads the same fields regardless of which
engine, scheduler or source produced the frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..video.frames import VideoFrame


@dataclass
class FusedFrameResult:
    """One fused output frame with its provenance and modelled cost."""

    frame: VideoFrame
    visible: np.ndarray
    thermal: np.ndarray
    engine: str
    action: str
    model_seconds: float
    model_millijoules: float
    index: int
    timestamp_s: float = 0.0
    applied_shift: Optional[Tuple[int, int]] = None
    quality: Dict[str, float] = field(default_factory=dict)
    #: sources beyond the (visible, thermal) pair, in input order —
    #: empty for the historical two-source pipeline
    extra_sources: Tuple[np.ndarray, ...] = ()

    @property
    def pixels(self) -> np.ndarray:
        """The fused uint8 pixel data."""
        return self.frame.pixels

    @property
    def sources(self) -> Tuple[np.ndarray, ...]:
        """All N input frames in source order."""
        return (self.visible, self.thermal) + tuple(self.extra_sources)


@dataclass
class FusionReport:
    """Aggregate outcome of a session run (or a streamed interval).

    All quantities cover the frames the report was built over; the
    telemetry / monitor blocks are session-cumulative, matching how a
    long-lived deployment reads them.
    """

    frames: int = 0
    engine_usage: Dict[str, int] = field(default_factory=dict)
    actions: Dict[str, int] = field(default_factory=dict)
    model_seconds_total: float = 0.0
    model_millijoules_total: float = 0.0
    quality: Dict[str, float] = field(default_factory=dict)
    alarms: int = 0
    mean_qabf: float = 0.0
    telemetry: Dict[str, float] = field(default_factory=dict)
    registered_shift_px: float = 0.0
    fifo_dropped: int = 0
    decode_errors: int = 0
    #: measured executor throughput (wall fps, queue depth peaks,
    #: wall per stage and busy and unattributed time per thread) —
    #: see :class:`repro.exec.ExecStats`.
    #: Scope: the most recent stream drive (batch-scoped on run()
    #: reports), unlike ``telemetry`` which is session-cumulative;
    #: empty when the frames were fused via :meth:`FusionSession.process`
    throughput: Dict[str, object] = field(default_factory=dict)
    records: List[FusedFrameResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def engine_used(self) -> str:
        """The engine that fused the most frames (sole engine if fixed)."""
        if not self.engine_usage:
            return "none"
        return max(self.engine_usage.items(), key=lambda kv: kv[1])[0]

    @property
    def model_fps(self) -> float:
        if self.model_seconds_total <= 0:
            return 0.0
        return self.frames / self.model_seconds_total

    @property
    def millijoules_per_frame(self) -> float:
        if self.frames == 0:
            return 0.0
        return self.model_millijoules_total / self.frames

    @property
    def wall_fps(self) -> float:
        """Measured end-to-end frames per wall-clock second (0.0 when
        no executor drove the batch)."""
        return float(self.throughput.get("wall_fps", 0.0))

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (records omitted)."""
        return {
            "frames": self.frames,
            "engine_used": self.engine_used,
            "engine_usage": dict(self.engine_usage),
            "actions": dict(self.actions),
            "model_fps": self.model_fps,
            "millijoules_per_frame": self.millijoules_per_frame,
            "quality": dict(self.quality),
            "alarms": self.alarms,
            "mean_qabf": self.mean_qabf,
            "telemetry": dict(self.telemetry),
            "registered_shift_px": self.registered_shift_px,
            "fifo_dropped": self.fifo_dropped,
            "decode_errors": self.decode_errors,
            "throughput": dict(self.throughput),
        }
