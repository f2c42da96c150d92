"""Loop-invariant hoisting: per-frame setup moves to plan time.

Profiling the serial hot path shows ~9% of wall time inside
``engine.frame_time(shape, levels)`` — the modelled whole-frame cost
the ingest stage recomputes for *every frame*, even though it depends
only on (engine, shape, levels), all fixed for a plan's lifetime.
This pass evaluates that model once per reachable engine at plan
construction and stores the table on the plan
(:attr:`~repro.graph.planner.FusionPlan.hoisted_frame_seconds`); the
session's ingest then looks the value up instead of re-deriving it.

It also flags the filter setup as hoisted: the kernel backends convert
filter taps to their working dtype on every primitive call
(``np.asarray(taps, dtype)`` — thousands of calls per frame); on an
optimized plan the session enables the backend's tap cache so each
bank is converted exactly once per backend.  Both rewrites reproduce
the identical values the per-frame path computed (the cost model is a
pure function; the cached taps are the same converted array), so
modelled accounting and output frames stay bitwise-identical.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from ...hw.registry import create_engine
from ..planner import HOST, FusionPlan
from .base import PassReport, PlanPass


class LoopInvariantHoistPass(PlanPass):
    """Precompute shape/engine-derived per-frame setup at plan time."""

    name = "hoist-invariants"

    def run(self, plan: FusionPlan, config) -> Tuple[FusionPlan,
                                                     PassReport]:
        if plan.hoisted_frame_seconds:
            return plan, self.skip("frame-cost table already hoisted")
        names = self._reachable_engines(plan)
        if not names:
            return plan, self.skip(
                "no engine-placed stage to hoist setup for")
        shape, levels = config.fusion_shape, config.levels
        hoisted: Dict[str, float] = {
            name: create_engine(name).frame_time(shape, levels).total_s
            for name in sorted(names)
        }
        actions = [
            f"ingest: engine.frame_time({plan.shape}, levels="
            f"{levels}) evaluated once per engine at plan time "
            f"({', '.join(f'{n}={s * 1e3:.3f}ms' for n, s in hoisted.items())}) "
            f"instead of once per frame",
            "backends: filter taps converted to the working dtype once "
            "per backend (tap cache) instead of once per primitive "
            "call",
        ]
        return (replace(plan, hoisted_frame_seconds=hoisted),
                PassReport(name=self.name, changed=True, actions=actions))

    # ------------------------------------------------------------------
    @staticmethod
    def _reachable_engines(plan: FusionPlan) -> set:
        """Engine names the session may select a frame onto: every
        resolved placement in the plan, plus the whole probe set when
        the online scheduler re-decides per frame."""
        names = set()
        for node in plan.nodes.values():
            label = node.engine
            if label != HOST:
                names.add(label)
        if plan.dynamic_engine:
            from ...core.adaptive import default_engines
            names.update(engine.name for engine in default_engines())
        return names


__all__ = ["LoopInvariantHoistPass"]
