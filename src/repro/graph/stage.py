"""The dataflow IR's node type: one named stage of frame processing.

A :class:`Stage` declares *what* a piece of per-frame work is — never
*how* or *where* it runs.  The how/where live in the lowered
:class:`~repro.graph.planner.FusionPlan`: executors interpret the plan,
and the same graph can therefore be driven serially, pipelined across
threads, or micro-batched, without the stage knowing.

Three declarations matter to the planner:

``state``
    ``"ordered"`` stages carry state across frames (calibration
    consensus, temporal masks, telemetry) and must execute in frame
    order on a single thread; ``"stateless"`` stages are pure per-task
    functions and may run concurrently — with other stages of the same
    frame and with other frames entirely.

``placement``
    ``"auto"`` binds the stage's arithmetic to the frame's selected
    engine (fixed, cost-model ``adaptive`` or per-frame ``online`` —
    the session's policy); a registered engine name pins it.

``batchable``
    The stage tolerates stack-major execution: a micro-batching
    executor may run it for a whole batch of frames before the next
    stage runs for any of them.  Arrays must follow the package-wide
    trailing-axes contract (frames stack on *leading* axes, every
    kernel indexes ``(..., H, W)``) for a vectorized implementation to
    be substitutable.  ``batchable=False`` keeps per-frame cadence:
    under the batch executor, contiguous runs of non-batchable stages
    execute frame-major (each frame passes through the whole run
    before the next frame enters it) — though stages *upstream* that
    are batchable, such as the canonical transform core, still
    compute their whole micro-batch first.  Ordered stages can never
    be batchable.

Custom stages use ``kind="map"`` and supply ``fn(task)``, a mutator of
the in-flight frame task (``frames`` and ``pyramids``, one entry per
source, with ``visible``/``thermal`` naming sources 0 and 1, and
``fused``).  The built-in kinds
(``ingest``/``register``/``forward``/``fuse``/``temporal``/
``finalize``) carry no ``fn`` — the session binds its own
implementations to them when it interprets the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Tuple

from ..errors import ConfigurationError

#: State disciplines a stage may declare.
ORDERED = "ordered"
STATELESS = "stateless"

#: Stage kinds the session knows how to execute.  ``map`` is the only
#: user-facing kind; the rest name the canonical pipeline's own work.
STAGE_KINDS = ("ingest", "register", "forward", "fuse", "temporal",
               "finalize", "map")

#: Placement value meaning "bind to the frame's selected engine".
AUTO = "auto"


@dataclass(frozen=True)
class Stage:
    """One node of a :class:`~repro.graph.FusionGraph`.

    Parameters
    ----------
    name:
        Unique identifier; also the ``graph_overrides["place"]`` key
        and the key placements, costs and per-stage billing
        (``metadata["stages"]``) are reported under.
    kind:
        One of :data:`STAGE_KINDS`.  ``map`` requires ``fn``.
    fn:
        ``fn(task)`` mutating the in-flight frame task (``map`` only).
    after:
        Names of the stages this one consumes — the dataflow edges.
    state:
        ``"ordered"`` or ``"stateless"`` (see module docstring).
    placement:
        ``"auto"`` or a registered engine name.
    batchable:
        Stage tolerates stack-major micro-batched execution.
    """

    name: str
    kind: str = "map"
    fn: Optional[Callable[[Any], None]] = field(default=None, compare=False)
    after: Tuple[str, ...] = ()
    state: str = STATELESS
    placement: str = AUTO
    batchable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"stage name must be a non-empty string, got {self.name!r}")
        if self.kind not in STAGE_KINDS:
            raise ConfigurationError(
                f"unknown stage kind {self.kind!r} for stage "
                f"{self.name!r}; expected one of {STAGE_KINDS}")
        if self.state not in (ORDERED, STATELESS):
            raise ConfigurationError(
                f"stage {self.name!r} state must be {ORDERED!r} or "
                f"{STATELESS!r}, got {self.state!r}")
        if self.kind == "map" and not callable(self.fn):
            raise ConfigurationError(
                f"custom stage {self.name!r} needs a callable fn(task)")
        if self.kind != "map" and self.fn is not None:
            raise ConfigurationError(
                f"stage {self.name!r} of kind {self.kind!r} binds the "
                f"session's own implementation; fn is only for kind='map'")
        if not isinstance(self.placement, str) or not self.placement:
            raise ConfigurationError(
                f"stage {self.name!r} placement must be 'auto' or an "
                f"engine name, got {self.placement!r}")
        if self.ordered and self.batchable:
            raise ConfigurationError(
                f"stage {self.name!r} is ordered (stateful across "
                f"frames) and cannot be batchable: stack-major "
                f"execution would reorder its state updates")
        if isinstance(self.after, str):
            raise ConfigurationError(
                f"stage {self.name!r} 'after' must be a tuple of stage "
                f"names, not the bare string {self.after!r}")
        object.__setattr__(self, "after", tuple(self.after))
        for dep in self.after:
            if not dep or not isinstance(dep, str):
                raise ConfigurationError(
                    f"stage {self.name!r} has a non-string dependency "
                    f"{dep!r}")

    @property
    def ordered(self) -> bool:
        return self.state == ORDERED

    def with_after(self, after: Tuple[str, ...]) -> "Stage":
        """A copy of this stage with rewritten dependencies."""
        return replace(self, after=tuple(after))

    def with_placement(self, placement: str) -> "Stage":
        """A copy of this stage pinned to ``placement``."""
        return replace(self, placement=placement)

    def describe(self) -> str:
        flags = [self.state]
        if self.batchable:
            flags.append("batchable")
        deps = ", ".join(self.after) if self.after else "-"
        return (f"{self.name:<12} kind={self.kind:<8} "
                f"[{' '.join(flags)}] placement={self.placement} "
                f"<- {deps}")
