"""Pluggable frame-execution layer: how the fusion dataflow is driven.

The paper's throughput wins come from *overlap* — double buffering
hides AXI transfers under compute (Section IV, Fig. 5) — and from
amortizing per-call overhead across many lines per invocation.  This
package makes those schedules a first-class, swappable layer: the
capture → forward ×2 → fuse → inverse → report dataflow is described
once — declaratively, as a :class:`repro.graph.FusionGraph` lowered to
a :class:`repro.graph.FusionPlan` that the :class:`FrameProcessor`
carries — and driven by an :class:`Executor`, which schedules whole
frames through the processor and never sees a stage order.

Executor ↔ paper map
--------------------

``serial`` — :class:`SerialExecutor`
    The unoverlapped baseline: one frame at a time, every stage on one
    thread.  This is the single-engine measurement loop behind the
    paper's Fig. 9/Fig. 10 numbers; it is the ``batch`` executor at
    ``batch_size=1``.

``pipeline`` — :class:`PipelineExecutor`
    Frame-parallel streaming: a capture thread ingests frames in
    order, a pool of ``workers`` threads computes whole frames (one
    :meth:`FrameProcessor.compute` call per frame, each on its own
    worker context), and the caller's thread finalizes them in order.
    This is the software analogue of Section IV's double-buffered
    driver, where memcpys into one kernel buffer area overlap the
    hardware crunching the other.  A sequential plan (temporal
    fusion) gets one pool thread, which takes frames in capture order.

``batch`` — :class:`BatchExecutor`
    Micro-batched NumPy vectorization on one thread: every
    ``batch_size`` frame groups go to one
    :meth:`FrameProcessor.compute` call, where each fused unit of the
    plan stacks them through *one* forward transform per lane (every
    modality in the same stack), fuses them with vectorized rules and
    reconstructs them with one stacked inverse, while ingest/finalize
    stay per-frame and ordered.  This is the paper's
    many-lines-per-invocation amortization applied at frame
    granularity — the right choice on single-core hosts where the
    thread executor cannot overlap.

Every executor drives the one plan the planner lowered, through the
same three calls — ``ingest``, ``compute`` and ``finalize``.  Which
stages stack is the planner's decision (its units), never the
executor's: an executor only chooses how many frames one ``compute``
call receives and on which thread it runs.

Which engine computes a stage is not an executor concern: the paper's
adaptive system makes a static per-workload choice, and a stage is
pinned to a named engine by forced placement in the plan
(``FusionConfig(graph_overrides={"place": ...})``), which every
executor honours and bills per stage.

Every executor drives identical arithmetic: with a fixed seed they
produce bitwise-identical fused frames and identical modelled
time/energy; only the *wall-clock* schedule (reported in
:class:`ExecStats`) differs.  Out-of-tree strategies register with
:func:`register_executor` and become selectable by name everywhere —
``FusionConfig(executor=...)``, the CLI's ``--executor``, benchmarks.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..errors import ConfigurationError
from .base import ExecStats, Executor, FrameProcessor
from .batch import BatchExecutor
from .pipelined import PipelineExecutor
from .serial import SerialExecutor

#: Name -> factory taking the shared tuning keywords (workers,
#: queue_depth, batch_size).
_REGISTRY: Dict[str, Callable[..., Executor]] = {}


def register_executor(name: str, factory: Callable[..., Executor],
                      replace: bool = False) -> None:
    """Make ``factory`` selectable as ``name`` throughout the package."""
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"executor name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"executor {name!r} is already registered; pass replace=True "
            f"to override it")
    _REGISTRY[name] = factory


def executor_names() -> Tuple[str, ...]:
    """Registered executor names, in registration order."""
    return tuple(_REGISTRY)


def make_executor(name: str, **kwargs) -> Executor:
    """Instantiate the executor registered as ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


register_executor("serial", SerialExecutor)
register_executor("pipeline", PipelineExecutor)
register_executor("batch", BatchExecutor)

__all__ = [
    "ExecStats", "Executor", "FrameProcessor",
    "SerialExecutor", "PipelineExecutor", "BatchExecutor",
    "executor_names", "make_executor", "register_executor",
]
