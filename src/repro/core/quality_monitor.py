"""Runtime fusion-quality monitoring and sensor-failure detection.

A surveillance system must notice when one of its sensors degrades —
a fogged lens, a failed microbolometer, a saturated visible camera —
because fusing a dead channel *subtracts* quality.  The monitor tracks
per-source activity and the fused result's quality with exponential
moving averages, flags anomalies, and recommends a fallback policy
(fuse normally / pass through the healthy source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import FusionError
from .metrics import check_shapes, petrovic_qabf, spatial_frequency

#: Recommended actions, in escalating order of degradation.
ACTION_FUSE = "fuse"
ACTION_PASS_VISIBLE = "pass-visible"
ACTION_PASS_THERMAL = "pass-thermal"


@dataclass
class MonitorReading:
    """One frame's health assessment."""

    frame: int
    visible_activity: float
    thermal_activity: float
    fused_qabf: float
    visible_healthy: bool
    thermal_healthy: bool
    action: str


class QualityMonitor:
    """EWMA-based health tracking over the fusion stream.

    Parameters
    ----------
    alpha:
        EWMA weight of the newest observation (0..1].
    activity_floor:
        Fraction of the running baseline below which a source is
        declared degraded (e.g. 0.25 = lost three quarters of its
        detail activity).
    warmup:
        Frames used to establish baselines before flagging anything.
    """

    def __init__(self, alpha: float = 0.2, activity_floor: float = 0.25,
                 warmup: int = 3):
        if not 0.0 < alpha <= 1.0:
            raise FusionError("alpha must be in (0, 1]")
        if not 0.0 < activity_floor < 1.0:
            raise FusionError("activity floor must be in (0, 1)")
        if warmup < 1:
            raise FusionError("warmup must be >= 1 frame")
        self.alpha = alpha
        self.activity_floor = activity_floor
        self.warmup = warmup
        self._frame = 0
        self._baseline: Dict[str, Optional[float]] = {"visible": None,
                                                      "thermal": None}
        self.history: List[MonitorReading] = []

    # ------------------------------------------------------------------
    def _update_baseline(self, key: str, value: float) -> float:
        current = self._baseline[key]
        if current is None:
            self._baseline[key] = value
        else:
            self._baseline[key] = (1 - self.alpha) * current \
                + self.alpha * value
        return self._baseline[key]

    def observe(self, visible: np.ndarray, thermal: np.ndarray,
                fused: np.ndarray,
                qabf: Optional[float] = None) -> MonitorReading:
        """Assess one frame triple; returns the reading (also stored).

        ``qabf`` is the triple's Q^AB/F when the caller has already
        graded it (the session grades each compute batch at once);
        None computes it here."""
        check_shapes("the quality monitor", visible=visible,
                     thermal=thermal, fused=fused)
        self._frame += 1
        act_v = spatial_frequency(np.asarray(visible, dtype=np.float64))
        act_t = spatial_frequency(np.asarray(thermal, dtype=np.float64))
        if qabf is None:
            qabf = petrovic_qabf(visible, thermal, fused)

        in_warmup = self._frame <= self.warmup
        if in_warmup:
            self._update_baseline("visible", act_v)
            self._update_baseline("thermal", act_t)
            healthy_v = healthy_t = True
        else:
            base_v = self._baseline["visible"] or 1e-9
            base_t = self._baseline["thermal"] or 1e-9
            healthy_v = act_v >= self.activity_floor * base_v
            healthy_t = act_t >= self.activity_floor * base_t
            # only track baselines with healthy observations so a dead
            # sensor cannot drag its own alarm threshold down
            if healthy_v:
                self._update_baseline("visible", act_v)
            if healthy_t:
                self._update_baseline("thermal", act_t)

        if healthy_v and healthy_t:
            action = ACTION_FUSE
        elif healthy_v:
            action = ACTION_PASS_VISIBLE
        elif healthy_t:
            action = ACTION_PASS_THERMAL
        else:
            action = ACTION_FUSE  # both degraded: fusion is still best

        reading = MonitorReading(
            frame=self._frame,
            visible_activity=act_v,
            thermal_activity=act_t,
            fused_qabf=qabf,
            visible_healthy=healthy_v,
            thermal_healthy=healthy_t,
            action=action,
        )
        self.history.append(reading)
        return reading

    # ------------------------------------------------------------------
    @property
    def alarms(self) -> int:
        """Frames on which at least one source was flagged."""
        return sum(1 for r in self.history
                   if not (r.visible_healthy and r.thermal_healthy))

    def mean_qabf(self) -> float:
        if not self.history:
            raise FusionError("no frames observed yet")
        return float(np.mean([r.fused_qabf for r in self.history]))
