"""Optimization-pass contracts: rewrite a lowered plan, keep parity.

A :class:`PlanPass` takes one lowered
:class:`~repro.graph.planner.FusionPlan` plus the session config it was
lowered against and returns a rewritten plan together with a
:class:`PassReport` of what changed.  The contract every pass must
honour is the package-wide determinism invariant extended to
optimization: **an optimized plan produces bitwise-identical frames and
identical modelled time/energy to the unoptimized plan** on any fixed
seed, under every executor.  Passes therefore change *how* the same
arithmetic is dispatched (fused units, pooled buffers),
never *what* is computed.

:class:`PassPipeline` composes passes in order — each pass sees its
predecessors' rewrites, exactly like a compiler pass manager — and
stamps the final plan ``optimized=True`` with the per-pass reports
attached, which is what ``repro plan --optimize --explain`` prints.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..planner import FusionPlan


@dataclass
class PassReport:
    """What one pass did to one plan (shown by ``--explain``)."""

    name: str
    changed: bool = False
    #: human-readable rewrite descriptions, one per action
    actions: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {"pass": self.name, "changed": self.changed,
                "actions": list(self.actions)}


class PlanPass(ABC):
    """One plan-to-plan rewrite preserving bitwise frame parity."""

    #: registry/report name of the pass
    name: str = "pass"

    @abstractmethod
    def run(self, plan: FusionPlan, config) -> Tuple[FusionPlan,
                                                     PassReport]:
        """Rewrite ``plan`` (lowered against ``config``); return the
        new plan and a report of the rewrites applied."""

    def skip(self, reason: str) -> PassReport:
        """A no-change report recording why the pass stood down."""
        return PassReport(name=self.name, changed=False,
                          actions=[f"skipped: {reason}"])


class PassPipeline:
    """Run passes in order and stamp the result as optimized."""

    def __init__(self, passes: Tuple[PlanPass, ...]):
        self.passes = tuple(passes)

    def run(self, plan: FusionPlan, config) -> FusionPlan:
        reports = list(plan.pass_reports)
        for plan_pass in self.passes:
            plan, report = plan_pass.run(plan, config)
            reports.append(report.as_dict())
        return replace(plan, optimized=True, pass_reports=tuple(reports))


def default_pipeline() -> PassPipeline:
    """The standard pipeline: fuse stateless chains, then eliminate
    steady-state materializations.  (The per-frame cost model needs no
    pass: :class:`~repro.hw.engine.Engine` memoizes it per
    configuration.)"""
    from .fuse_stages import StatelessFusionPass
    from .materialize import MaterializationEliminationPass
    return PassPipeline((
        StatelessFusionPass(),
        MaterializationEliminationPass(),
    ))


def optimize_plan(plan: FusionPlan, config) -> FusionPlan:
    """Convenience: ``default_pipeline().run(plan, config)``."""
    return default_pipeline().run(plan, config)
