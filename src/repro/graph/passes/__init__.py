"""Composable optimization passes over the lowered FusionPlan IR.

The pipeline turns the plan from a *description* of the dataflow into
a *speedup* while preserving the package's determinism contract: an
optimized plan yields bitwise-identical frames and identical modelled
time/energy to the unoptimized plan, under every executor.

* :class:`StatelessFusionPass` — chains of adjacent stateless,
  same-placement stages collapse into one fused dispatch unit (the
  canonical ``visible+thermal+fuse`` chain rides a single stacked
  transform invocation);
* :class:`MaterializationEliminationPass` — steady-state intermediate
  buffers ride a per-worker :class:`repro.dtcwt.backend.ScratchPool`,
  so the per-frame path allocates nothing on the stacked core.

The modelled per-frame cost needs no pass: the engines memoize it per
configuration (:class:`repro.hw.engine.Engine`), so every plan reads it
at the cost of a table lookup.

``optimize_plan(plan, config)`` runs the default pipeline;
``FusionConfig(optimize=True)`` and ``repro plan --optimize`` apply it
for a whole session.  The :class:`~repro.graph.autotune.PlanAutotuner`
searches over these decisions and caches winners on disk.
"""

from .base import (PassPipeline, PassReport, PlanPass, default_pipeline,
                   optimize_plan)
from .fuse_stages import StatelessFusionPass
from .materialize import MaterializationEliminationPass

__all__ = [
    "PassPipeline", "PassReport", "PlanPass",
    "StatelessFusionPass", "MaterializationEliminationPass",
    "default_pipeline", "optimize_plan",
]
