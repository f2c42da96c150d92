"""Runtime telemetry: latency, jitter and energy-budget tracking.

A deployed fusion system (the paper's surveillance use case) cares
about more than mean throughput: per-frame latency percentiles, jitter
against the camera period, and whether a battery budget survives the
mission.  :class:`FrameTelemetry` accumulates those from per-frame
(seconds, millijoules) observations — the model's outputs or real
measurements alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError

#: signature of a telemetry sink: (seconds, millijoules, wall_seconds)
TelemetrySink = Callable[[float, float, Optional[float]], None]


@dataclass
class TelemetrySummary:
    frames: int
    fps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_max_s: float
    jitter_rms_s: float
    deadline_misses: int
    millijoules_total: float
    #: measured wall-clock per-frame latency, where observed: from
    #: the entry of the frame's ingest to the end of its finalize
    #: (queueing between stages included); 0.0 when the caller never
    #: supplied wall timings
    wall_latency_mean_s: float = 0.0
    wall_latency_p95_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "frames": self.frames,
            "fps": self.fps,
            "latency_mean_ms": self.latency_mean_s * 1e3,
            "latency_p50_ms": self.latency_p50_s * 1e3,
            "latency_p95_ms": self.latency_p95_s * 1e3,
            "latency_max_ms": self.latency_max_s * 1e3,
            "jitter_rms_ms": self.jitter_rms_s * 1e3,
            "deadline_misses": self.deadline_misses,
            "millijoules_total": self.millijoules_total,
            "wall_latency_mean_ms": self.wall_latency_mean_s * 1e3,
            "wall_latency_p95_ms": self.wall_latency_p95_s * 1e3,
        }


class FrameTelemetry:
    """Accumulates per-frame cost observations.

    Parameters
    ----------
    target_fps:
        The camera rate; frames slower than ``1/target_fps`` count as
        deadline misses and feed the jitter statistic.
    energy_budget_mj:
        Optional mission energy budget; :meth:`frames_remaining`
        extrapolates how many more frames fit.
    sink:
        Optional per-frame observer called *after* each successful
        :meth:`record` with ``(seconds, millijoules, wall_seconds)``.
        The serving layer attaches one to feed its live metrics
        (latency histograms, energy counters) without polling; a sink
        must be fast and must not raise.
    """

    def __init__(self, target_fps: float = 25.0,
                 energy_budget_mj: Optional[float] = None,
                 sink: Optional[TelemetrySink] = None):
        if target_fps <= 0:
            raise ConfigurationError("target_fps must be positive")
        if energy_budget_mj is not None and energy_budget_mj <= 0:
            raise ConfigurationError("energy budget must be positive")
        self.target_fps = target_fps
        self.energy_budget_mj = energy_budget_mj
        self.sink = sink
        self._latencies: List[float] = []
        self._millijoules: List[float] = []
        self._wall: List[float] = []

    # ------------------------------------------------------------------
    def record(self, seconds: float, millijoules: float = 0.0,
               wall_seconds: Optional[float] = None) -> None:
        """Record one frame: modelled seconds/energy, and optionally
        the *measured* wall-clock latency the frame spent in flight
        (capture to report) under the active executor."""
        if seconds < 0 or millijoules < 0:
            raise ConfigurationError("observations cannot be negative")
        if wall_seconds is not None and wall_seconds < 0:
            raise ConfigurationError("observations cannot be negative")
        self._latencies.append(seconds)
        self._millijoules.append(millijoules)
        if wall_seconds is not None:
            self._wall.append(wall_seconds)
        if self.sink is not None:
            self.sink(seconds, millijoules, wall_seconds)

    @property
    def frames(self) -> int:
        return len(self._latencies)

    @property
    def millijoules_total(self) -> float:
        return float(sum(self._millijoules))

    def frames_remaining(self) -> Optional[int]:
        """Frames the remaining energy budget can still pay for."""
        if self.energy_budget_mj is None or not self._millijoules:
            return None
        spent = self.millijoules_total
        remaining = self.energy_budget_mj - spent
        if remaining <= 0:
            return 0
        per_frame = spent / len(self._millijoules)
        return int(remaining / per_frame) if per_frame > 0 else None

    # ------------------------------------------------------------------
    @staticmethod
    def _percentile(values: List[float], q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        position = (len(ordered) - 1) * q
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            return ordered[lower]
        fraction = position - lower
        return ordered[lower] * (1 - fraction) + ordered[upper] * fraction

    def summary(self) -> TelemetrySummary:
        if not self._latencies:
            raise ConfigurationError("no frames recorded yet")
        lat = self._latencies
        total = sum(lat)
        period = 1.0 / self.target_fps
        jitter_sq = [(v - period) ** 2 for v in lat]
        wall = self._wall
        return TelemetrySummary(
            frames=len(lat),
            fps=len(lat) / total if total > 0 else 0.0,
            latency_mean_s=total / len(lat),
            latency_p50_s=self._percentile(lat, 0.50),
            latency_p95_s=self._percentile(lat, 0.95),
            latency_max_s=max(lat),
            jitter_rms_s=math.sqrt(sum(jitter_sq) / len(jitter_sq)),
            deadline_misses=sum(1 for v in lat if v > period),
            millijoules_total=self.millijoules_total,
            wall_latency_mean_s=(sum(wall) / len(wall)) if wall else 0.0,
            wall_latency_p95_s=self._percentile(wall, 0.95) if wall else 0.0,
        )
