"""Stateless-stage fusion: chains of adjacent stages -> one dispatch.

The paper's HLS datapath streams the whole forward->fuse->inverse chain
through fixed-function hardware without returning to the host between
stages; the Python analogue is collapsing a chain of adjacent
*stateless, placement-compatible* stages into one **fused dispatch
unit**, executed by a single ``run_stage`` call.  For the canonical
graph that generalizes the stacked two-forward dispatch: the
``visible + thermal + fuse`` chain becomes one unit the session
processor drives through a single stacked ``(2, H, W)`` transform
invocation (one forward call instead of two, vectorized coefficient
fusion, one inverse) — the same arithmetic
:meth:`repro.core.fusion.ImageFusion.fuse_batch` pins bitwise-equal to
the per-stage path.

Fusion region depends on the executor interpreting the plan: the
thread executor (``pipeline``) overlaps the parallel wave with the mid
chain, so only wave stages are merged (keeping the capture/wave/mid
overlap intact); the single-threaded executors
(``serial``/``batch``) gain nothing from that split, so the whole
compute region is eligible and the full core fuses.

A chain breaks (and the pass stands down entirely) wherever fusing
could change behaviour:

* an ordered stage in the compute region (``sequential_mid`` plans);
* placement changes mid-chain — members must either all be ``auto``
  (bound to the frame's engine) or all be forced onto one engine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from ..planner import FusionPlan
from .base import PassReport, PlanPass

#: executors that overlap the parallel wave with the mid chain; fusion
#: stays inside the wave for them so the overlap survives
_OVERLAPPING = ("pipeline",)

#: a unit must replace at least this many dispatches to exist
_MIN_CHAIN = 2


class StatelessFusionPass(PlanPass):
    """Collapse adjacent stateless same-placement stages into units."""

    name = "fuse-stages"

    def run(self, plan: FusionPlan, config) -> Tuple[FusionPlan,
                                                     PassReport]:
        if plan.sequential_mid:
            return plan, self.skip(
                "an ordered stage sits in the compute region")
        if plan.units:
            return plan, self.skip("plan already carries fused units")

        region = (plan.parallel if plan.executor in _OVERLAPPING
                  else plan.compute)
        chains = self._chains(plan, region)
        if not chains:
            return plan, self.skip(
                "no adjacent stateless same-placement chain of length "
                f">= {_MIN_CHAIN}")

        units = {}
        for members in chains:
            unit = "+".join(members)
            while unit in plan.nodes or unit in units:
                unit = f"fused:{unit}"  # pragma: no cover - name clash
            units[unit] = members

        absorbed = {name for members in units.values()
                    for name in members}
        parallel_set = set(plan.parallel)

        compute: List[str] = []
        for name in plan.compute:
            owner = next((u for u, m in units.items() if name in m), None)
            if owner is None:
                compute.append(name)
            elif owner not in compute:
                compute.append(owner)
        # a unit joins the parallel wave only when every member was in
        # it — one member from the mid chain pins the whole unit there
        parallel = tuple(
            n for n in compute
            if (set(units[n]) <= parallel_set if n in units
                else n in parallel_set))
        mid = tuple(n for n in compute if n not in parallel)

        actions = [f"fused [{' '.join(members)}] -> one dispatch unit "
                   f"{unit!r}" for unit, members in units.items()]
        rewritten = replace(plan, compute=tuple(compute),
                            parallel=parallel, mid=mid, units=units)
        return rewritten, PassReport(name=self.name, changed=True,
                                     actions=actions)

    # ------------------------------------------------------------------
    def _chains(self, plan: FusionPlan,
                region: Tuple[str, ...]) -> List[Tuple[str, ...]]:
        """Maximal contiguous runs of fusable stages in ``region``
        (schedule order), split wherever the placement key changes."""
        chains: List[Tuple[str, ...]] = []
        run: List[str] = []
        run_key = None
        for name in region:
            stage = plan.stage(name)
            key = stage.placement  # AUTO fuses with AUTO, forced with
            if stage.ordered:      # its own engine only
                key = None
            if key is None or (run and key != run_key):
                if len(run) >= _MIN_CHAIN:
                    chains.append(tuple(run))
                run = []
            if key is not None:
                run.append(name)
                run_key = key
        if len(run) >= _MIN_CHAIN:
            chains.append(tuple(run))
        return chains


__all__ = ["StatelessFusionPass"]
