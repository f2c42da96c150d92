"""The declarative plan API: frame processing as a dataflow IR.

The paper's system *is* a dataflow — capture, two forward DT-CWTs,
coefficient fusion, inverse, display — mapped onto heterogeneous
CPU/NEON/FPGA engines.  This package reifies that graph so it can be
inspected, extended and re-placed instead of living implicitly inside
the session:

* :class:`Stage` — one node: name, kind or ``fn(task)``, dataflow
  edges, state discipline (ordered/stateless), placement
  (engine/``auto``), batchability;
* :class:`FusionGraph` — the builder + validator (acyclicity, single
  ingest/finalize, no dangling stages), with
  :meth:`FusionGraph.canonical` producing the paper's own pipeline;
* :class:`Planner` — lowers a graph + session config into a
  :class:`FusionPlan`: stage schedule, engine placement via the
  session's cost models, fused dispatch units, modelled per-stage
  cost;
* :class:`FusionPlan` — what every executor in :mod:`repro.exec`
  interprets, and what ``repro-fusion plan`` prints.

Typical customization::

    from repro.graph import Stage

    graph = session.canonical_graph()
    graph.insert_after("fuse", Stage(
        name="denoise", fn=lambda task: task.__setattr__(
            "fused", smooth(task.fused))))
    report = session.run(32, graph=graph)   # any executor, same result
"""

from .graph import FusionGraph
from .planner import FusionPlan, PlannedStage, Planner
from .stage import AUTO, ORDERED, STAGE_KINDS, STATELESS, Stage

__all__ = [
    "AUTO", "ORDERED", "STAGE_KINDS", "STATELESS",
    "Stage", "FusionGraph", "FusionPlan", "PlannedStage", "Planner",
]
