"""Run-time engine selection (the paper's key finding, made executable).

Section VII concludes that "an adaptive system that intelligently
selects between the SIMD engine and the FPGA achieves the most energy
and performance efficiency point", and the paper's future work is a
system that chooses the resource automatically per frame size and
decomposition level.  This module implements that system three ways:

* :class:`CostModelScheduler` — picks the engine whose *analytic* cost
  model predicts the lowest latency (or energy) for the workload;
* :class:`OnlineScheduler` — measures each engine on the live workload
  (round-robin exploration, then exploitation with periodic re-probes),
  needing no model at all;
* :class:`PerLevelScheduler` — an extension beyond the paper: because
  each DT-CWT level halves the frame, the optimal engine can differ
  *within* one transform (FPGA for the large early levels, NEON for the
  small deep ones); this scheduler composes a per-level execution plan
  from the same cost models.

:func:`bind_engine` turns a session config's ``engine`` into the engine
its frames start on, for the session and its lowered plan alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..hw.energy import energy_mj
from ..hw.engine import Engine
from ..hw.power import DEFAULT_POWER_MODEL, PowerModel
from ..hw.registry import create_engine, default_engines, precision_candidates
from ..types import FrameShape

__all__ = [
    "CostModelScheduler", "Decision", "EngineBinding", "LevelPlan",
    "OnlineScheduler", "PerLevelScheduler", "bind_engine",
    "default_engines",
]


@dataclass
class Decision:
    """One scheduling decision with its predicted costs."""

    engine: Engine
    predicted_s: float
    predicted_mj: float
    alternatives: Dict[str, float] = field(default_factory=dict)


class CostModelScheduler:
    """Model-driven selection between the available engines.

    ``objective`` is ``"time"`` (Fig. 9 optimum) or ``"energy"``
    (Fig. 10 optimum); the two differ near the crossover because FPGA
    mode draws 19.2 mW more.
    """

    def __init__(self, engines: Optional[Sequence[Engine]] = None,
                 objective: str = "time",
                 power_model: PowerModel = DEFAULT_POWER_MODEL):
        if objective not in ("time", "energy"):
            raise ConfigurationError(
                f"objective must be 'time' or 'energy', got {objective!r}"
            )
        self.engines = tuple(engines) if engines is not None else default_engines()
        if not self.engines:
            raise ConfigurationError("at least one engine is required")
        self.objective = objective
        self.power_model = power_model

    def cost(self, engine: Engine, shape: FrameShape, levels: int) -> Tuple[float, float]:
        """(seconds, millijoules) for one fused frame on ``engine``."""
        seconds = engine.frame_time(shape, levels).total_s
        return seconds, energy_mj(seconds, engine.power_mode,
                                  self.power_model)

    def choose(self, shape: FrameShape, levels: int = 3) -> Decision:
        """Pick the best engine for fusing frames of ``shape``."""
        best: Optional[Decision] = None
        alternatives: Dict[str, float] = {}
        for engine in self.engines:
            seconds, mj = self.cost(engine, shape, levels)
            key = seconds if self.objective == "time" else mj
            alternatives[engine.name] = key
            if best is None or key < (best.predicted_s if self.objective == "time"
                                      else best.predicted_mj):
                best = Decision(engine=engine, predicted_s=seconds,
                                predicted_mj=mj)
        assert best is not None
        best.alternatives = alternatives
        return best


@dataclass(frozen=True)
class EngineBinding:
    """What a config's ``engine`` binds to (see :func:`bind_engine`):
    the ``engine`` frames start on, every engine they may run on (the
    online probe set, else ``(engine,)``), the cost-model ``decision``
    behind ``adaptive``, and whether the engine is re-chosen per frame
    (``dynamic``, for ``online``)."""

    engine: Engine
    engines: Tuple[Engine, ...]
    decision: Optional[Decision] = None
    dynamic: bool = False


def bind_engine(config) -> EngineBinding:
    """Resolve ``config.engine`` — a registered engine name,
    ``"adaptive"`` (the cost-model optimum for the config's shape,
    levels and objective) or ``"online"`` (measured per frame) — the
    one way a session and its lowered plan pick their engine.

    A precision-pinned config narrows the scheduler candidates to
    engines whose datapath supports that dtype."""
    if config.engine not in ("adaptive", "online"):
        engine = create_engine(config.engine)
        return EngineBinding(engine=engine, engines=(engine,))
    candidates = precision_candidates(getattr(config, "precision", None))
    if config.engine == "online":
        return EngineBinding(engine=candidates[0], engines=candidates,
                             dynamic=True)
    decision = CostModelScheduler(
        engines=candidates, objective=config.objective,
        power_model=config.power_model,
    ).choose(config.fusion_shape, config.levels)
    return EngineBinding(engine=decision.engine, engines=(decision.engine,),
                         decision=decision)


class OnlineScheduler:
    """Measurement-driven selection, no model required.

    Explores every engine for ``probe_frames`` frames, then exploits the
    best observed latency; every ``reprobe_every`` frames it re-probes
    the runner-up so a workload change (e.g. new frame size after a
    camera mode switch) is picked up.  Feed observations with
    :meth:`observe`; ask for the next engine with :meth:`next_engine`.
    """

    def __init__(self, engines: Optional[Sequence[Engine]] = None,
                 probe_frames: int = 3, reprobe_every: int = 50):
        if probe_frames < 1:
            raise ConfigurationError("probe_frames must be >= 1")
        if reprobe_every < 2:
            raise ConfigurationError("reprobe_every must be >= 2")
        self.engines = tuple(engines) if engines is not None else default_engines()
        self.probe_frames = probe_frames
        self.reprobe_every = reprobe_every
        self._observations: Dict[str, List[float]] = {e.name: [] for e in self.engines}
        self._frame_index = 0

    def next_engine(self) -> Engine:
        """Engine to use for the next frame."""
        self._frame_index += 1
        for engine in self.engines:  # exploration phase
            if len(self._observations[engine.name]) < self.probe_frames:
                return engine
        if self._frame_index % self.reprobe_every == 0:
            return self._ranked()[1] if len(self.engines) > 1 else self._ranked()[0]
        return self._ranked()[0]

    def observe(self, engine: Engine, seconds: float) -> None:
        """Record a measured frame latency for ``engine``."""
        if seconds < 0:
            raise ConfigurationError(f"negative latency observed: {seconds}")
        self._observations[engine.name].append(seconds)

    def reset(self) -> None:
        """Forget all measurements (e.g. after a frame-size change)."""
        for name in self._observations:
            self._observations[name].clear()
        self._frame_index = 0

    def _mean(self, name: str) -> float:
        obs = self._observations[name]
        recent = obs[-10:]
        return sum(recent) / len(recent)

    def _ranked(self) -> List[Engine]:
        return sorted(self.engines, key=lambda e: self._mean(e.name))


@dataclass
class LevelPlan:
    """Execution plan mapping each DT-CWT level to an engine."""

    shape: FrameShape
    levels: int
    forward_assignment: Tuple[str, ...]
    inverse_assignment: Tuple[str, ...]
    predicted_s: float


class PerLevelScheduler:
    """Assign each decomposition level to its cheapest engine.

    Level ``l`` of the transform works on a ``1/2^{l-1}``-scaled frame,
    so deep levels sit below the FPGA's profitability threshold even
    when the input frame is large.  This scheduler prices each level's
    passes on every engine (:meth:`Engine.passes_time`, the method the
    engines' own frame times use) and composes a mixed plan — the
    paper's adaptive idea taken one step further.

    A per-level engine switch costs ``switch_penalty_s`` (pipeline
    drain, first-command latency), so a mixed plan must beat the best
    single-engine plan by more than the switching cost it introduces.
    """

    def __init__(self, engines: Optional[Sequence[Engine]] = None,
                 switch_penalty_s: float = 30e-6):
        self.engines = tuple(engines) if engines is not None else default_engines()
        if switch_penalty_s < 0:
            raise ConfigurationError("switch penalty cannot be negative")
        self.switch_penalty_s = switch_penalty_s

    def _level_costs(self, engine: Engine, shape: FrameShape, levels: int,
                     direction: str) -> List[float]:
        """Seconds each level costs on ``engine`` (one image)."""
        work = engine.work_model(shape, levels)
        passes = (work.forward_passes() if direction == "forward"
                  else work.inverse_passes())
        return [engine.passes_time([p for p in passes if p.level == level],
                                   direction).total_s
                for level in range(1, levels + 1)]

    def plan(self, shape: FrameShape, levels: int = 3) -> LevelPlan:
        """Compose the cheapest per-level assignment for one fused frame."""
        fwd_costs = {e.name: self._level_costs(e, shape, levels, "forward")
                     for e in self.engines}
        inv_costs = {e.name: self._level_costs(e, shape, levels, "inverse")
                     for e in self.engines}

        fwd_pick, inv_pick = [], []
        total = 0.0
        for level in range(levels):
            name = min(fwd_costs, key=lambda n: fwd_costs[n][level])
            fwd_pick.append(name)
            total += 2.0 * fwd_costs[name][level]  # two source images
        for level in range(levels):
            name = min(inv_costs, key=lambda n: inv_costs[n][level])
            inv_pick.append(name)
            total += inv_costs[name][level]

        switches = _count_switches(fwd_pick) * 2 + _count_switches(inv_pick)
        total += switches * self.switch_penalty_s
        # fusion stage always runs on the ARM
        total += self.engines[0].fusion_time(shape, levels).total_s
        return LevelPlan(
            shape=shape,
            levels=levels,
            forward_assignment=tuple(fwd_pick),
            inverse_assignment=tuple(inv_pick),
            predicted_s=total,
        )


def _count_switches(assignment: Sequence[str]) -> int:
    return sum(1 for a, b in zip(assignment, assignment[1:]) if a != b)
