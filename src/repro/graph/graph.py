"""The declarative frame-processing dataflow: stages and their edges.

:class:`FusionGraph` is the builder half of the plan API: users (and
the session itself) describe frame processing as named
:class:`~repro.graph.stage.Stage` nodes joined by dataflow edges, then
hand the graph to the :class:`~repro.graph.planner.Planner`, which
lowers it into an executable :class:`~repro.graph.planner.FusionPlan`.
The graph validates *structure* (acyclicity, a single ingest and a
single finalize, dangling edges, ordered-stage constraints); the
planner validates *meaning* against a session configuration.

The canonical pipeline the paper runs — capture/ingest, rig
registration, the two forward DT-CWTs, coefficient fusion + inverse
(or stateful temporal fusion), then monitoring/telemetry — is itself
built here by :meth:`FusionGraph.canonical`, so "the default system"
and "a user's customized system" go through exactly one code path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .stage import AUTO, ORDERED, STATELESS, Stage


class FusionGraph:
    """A small DAG of :class:`Stage` nodes with builder conveniences.

    Stages keep insertion order, which the topological sort uses as a
    deterministic tie-break — two lowerings of the same graph always
    produce the same schedule.
    """

    def __init__(self, stages: Iterable[Stage] = ()):
        self._stages: Dict[str, Stage] = {}
        #: names removed via drop() — records that an absence is an
        #: explicit decision, which the planner's consistency checks
        #: distinguish from a forgotten stage
        self._dropped: set = set()
        for stage in stages:
            self.add(stage)

    # -- construction ---------------------------------------------------
    def add(self, stage: Stage) -> "FusionGraph":
        """Add ``stage``; duplicate names are a hard error."""
        if not isinstance(stage, Stage):
            raise ConfigurationError(
                f"FusionGraph.add expects a Stage, got {stage!r}")
        if stage.name in self._stages:
            raise ConfigurationError(
                f"duplicate stage name {stage.name!r} in graph")
        self._stages[stage.name] = stage
        return self

    def add_stage(self, name: str, fn: Callable[[Any], None],
                  after: Tuple[str, ...], state: str = STATELESS,
                  placement: str = AUTO,
                  batchable: bool = False) -> "FusionGraph":
        """Add a custom (``kind="map"``) stage in one call."""
        return self.add(Stage(name=name, fn=fn, after=tuple(after),
                              state=state, placement=placement,
                              batchable=batchable))

    def insert_after(self, anchor: str, stage: Stage) -> "FusionGraph":
        """Splice ``stage`` into the chain right after ``anchor``.

        The new stage consumes ``anchor`` (plus any deps it already
        declares), and every stage that consumed ``anchor`` is rewired
        to consume the new stage instead — the linear insertion a
        denoise-after-fuse or overlay-before-finalize node wants.
        """
        if anchor not in self._stages:
            raise ConfigurationError(
                f"cannot insert after unknown stage {anchor!r}")
        deps = tuple(dict.fromkeys((anchor,) + stage.after))
        self.add(stage.with_after(deps))
        for name, existing in list(self._stages.items()):
            if name == stage.name or anchor not in existing.after:
                continue
            rewired = tuple(stage.name if dep == anchor else dep
                            for dep in existing.after)
            self._stages[name] = existing.with_after(rewired)
        return self

    def drop(self, name: str) -> "FusionGraph":
        """Remove a stage; its consumers inherit its dependencies."""
        if name not in self._stages:
            raise ConfigurationError(
                f"cannot drop unknown stage {name!r}")
        self._dropped.add(name)
        dropped = self._stages.pop(name)
        for other, existing in list(self._stages.items()):
            if name not in existing.after:
                continue
            rewired: List[str] = []
            for dep in existing.after:
                rewired.extend(dropped.after if dep == name else (dep,))
            self._stages[other] = existing.with_after(
                tuple(dict.fromkeys(rewired)))
        return self

    def connect(self, downstream: str, upstream: str) -> "FusionGraph":
        """Add the dataflow edge ``downstream`` <- ``upstream`` — for
        non-linear shapes :meth:`insert_after` cannot express (e.g.
        feeding finalize from a side branch, or making fuse consume a
        custom pyramid stage)."""
        down = self.stage(downstream)
        self.stage(upstream)  # must exist
        if upstream not in down.after:
            self._stages[downstream] = down.with_after(
                down.after + (upstream,))
        return self

    def disconnect(self, downstream: str, upstream: str) -> "FusionGraph":
        """Remove the dataflow edge ``downstream`` <- ``upstream``."""
        down = self.stage(downstream)
        if upstream not in down.after:
            raise ConfigurationError(
                f"stage {downstream!r} does not depend on {upstream!r}")
        self._stages[downstream] = down.with_after(
            tuple(dep for dep in down.after if dep != upstream))
        return self

    def place(self, name: str, engine: str) -> "FusionGraph":
        """Pin ``name``'s arithmetic (and scheduling affinity) to
        ``engine`` — the force-placement override of the plan API."""
        if name not in self._stages:
            raise ConfigurationError(
                f"cannot place unknown stage {name!r}")
        self._stages[name] = self._stages[name].with_placement(engine)
        return self

    def copy(self) -> "FusionGraph":
        """An independent builder with the same stages (stages are
        immutable, so a shallow copy is a real fork)."""
        fork = FusionGraph()
        fork._stages = dict(self._stages)
        fork._dropped = set(self._dropped)
        return fork

    @property
    def dropped(self) -> frozenset:
        """Names explicitly removed from this graph via :meth:`drop`."""
        return frozenset(self._dropped)

    # -- queries --------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._stages)

    def stage(self, name: str) -> Stage:
        try:
            return self._stages[name]
        except KeyError:
            raise ConfigurationError(
                f"graph has no stage named {name!r}") from None

    def stages(self) -> Tuple[Stage, ...]:
        return tuple(self._stages.values())

    def consumers(self, name: str) -> Tuple[str, ...]:
        return tuple(s.name for s in self._stages.values()
                     if name in s.after)

    def _of_kind(self, *kinds: str) -> Tuple[Stage, ...]:
        return tuple(s for s in self._stages.values() if s.kind in kinds)

    # -- validation -----------------------------------------------------
    def topo_order(self) -> Tuple[str, ...]:
        """Kahn's algorithm with insertion-order tie-break; raises
        :class:`ConfigurationError` naming the cycle members if the
        graph is not a DAG."""
        remaining: Dict[str, set] = {
            name: set(stage.after) for name, stage in self._stages.items()
        }
        order: List[str] = []
        while remaining:
            ready = [name for name, deps in remaining.items() if not deps]
            if not ready:
                raise ConfigurationError(
                    f"fusion graph contains a dependency cycle among "
                    f"{sorted(remaining)}")
            for name in ready:
                order.append(name)
                del remaining[name]
            for deps in remaining.values():
                deps.difference_update(ready)
        return tuple(order)

    def ancestors(self, name: str) -> set:
        """Transitive dependency closure of ``name`` (exclusive)."""
        seen: set = set()
        frontier = list(self.stage(name).after)
        while frontier:
            dep = frontier.pop()
            if dep in seen:
                continue
            seen.add(dep)
            frontier.extend(self.stage(dep).after)
        return seen

    def validate(self) -> None:
        """Structural checks; raises :class:`ConfigurationError`.

        * every dependency names an existing stage;
        * exactly one ``ingest`` and one ``finalize`` stage;
        * ingest has no dependencies and every other stage has some
          (nothing is unreachable);
        * no stage consumes finalize, and finalize transitively
          consumes every other stage (nothing dangles);
        * the graph is acyclic;
        * (per-stage, enforced at construction) ordered stages are
          never batchable.
        """
        for stage in self._stages.values():
            for dep in stage.after:
                if dep not in self._stages:
                    raise ConfigurationError(
                        f"stage {stage.name!r} depends on unknown stage "
                        f"{dep!r}")
                if dep == stage.name:
                    raise ConfigurationError(
                        f"stage {stage.name!r} depends on itself")

        ingests = self._of_kind("ingest")
        if len(ingests) != 1:
            raise ConfigurationError(
                f"graph needs exactly one ingest stage, found "
                f"{[s.name for s in ingests] or 'none'}")
        finalizes = self._of_kind("finalize")
        if len(finalizes) != 1:
            raise ConfigurationError(
                f"graph needs exactly one finalize stage, found "
                f"{[s.name for s in finalizes] or 'none'}")
        ingest, finalize = ingests[0], finalizes[0]

        if ingest.after:
            raise ConfigurationError(
                f"ingest stage {ingest.name!r} cannot depend on other "
                f"stages, got {ingest.after}")
        if not ingest.ordered or not finalize.ordered:
            raise ConfigurationError(
                "ingest and finalize are stateful by construction "
                "(frame indices, telemetry) and must be ordered")
        for stage in self._stages.values():
            if stage.name != ingest.name and not stage.after:
                raise ConfigurationError(
                    f"stage {stage.name!r} has no dependencies; only "
                    f"the ingest stage may be a source")
        if self.consumers(finalize.name):
            raise ConfigurationError(
                f"finalize stage {finalize.name!r} must be the sink; "
                f"{self.consumers(finalize.name)} depend on it")

        self.topo_order()  # acyclicity

        dangling = (set(self._stages) - {finalize.name}
                    - self.ancestors(finalize.name))
        if dangling:
            raise ConfigurationError(
                f"stage(s) {sorted(dangling)} never reach the finalize "
                f"stage; every stage must feed the frame's result")

    # -- presentation ---------------------------------------------------
    def describe(self) -> str:
        """Human-readable node listing in topological order."""
        try:
            order = self.topo_order()
        except ConfigurationError:
            order = self.names()
        lines = [f"FusionGraph ({len(self)} stages)"]
        lines += [f"  {self.stage(name).describe()}" for name in order]
        return "\n".join(lines)

    # -- the canonical pipeline ----------------------------------------
    @classmethod
    def canonical(cls, registration: bool = False,
                  temporal: bool = False,
                  n_sources: int = 2) -> "FusionGraph":
        """The paper's pipeline as a graph.

        ``ingest -> [register ->] visible+thermal -> fuse -> finalize``
        by default; with ``n_sources > 2`` further forward stages
        (``source2``, ``source3``, ...) join the forwards and the fuse
        node reduces all of them.  With ``temporal`` the forwards
        and the fuse node are replaced by one ordered ``temporal``
        stage, because flicker-suppressing temporal fusion decomposes
        internally and carries smoothed masks across frames — that
        path is pairwise only.
        """
        if n_sources < 2:
            raise ConfigurationError(
                f"the canonical graph needs >= 2 sources, got "
                f"{n_sources}")
        if temporal and n_sources != 2:
            raise ConfigurationError(
                "temporal fusion is pairwise (visible + thermal); "
                f"n_sources={n_sources} is not supported with "
                f"temporal=True")
        graph = cls()
        graph.add(Stage(name="ingest", kind="ingest", state=ORDERED))
        prev = "ingest"
        if registration:
            graph.add(Stage(name="register", kind="register",
                            state=ORDERED, after=(prev,)))
            prev = "register"
        if temporal:
            graph.add(Stage(name="temporal", kind="temporal",
                            state=ORDERED, after=(prev,)))
            last = "temporal"
        else:
            forwards = forward_stage_names(n_sources)
            for name in forwards:
                graph.add(Stage(name=name, kind="forward",
                                after=(prev,), batchable=True))
            graph.add(Stage(name="fuse", kind="fuse",
                            after=forwards, batchable=True))
            last = "fuse"
        graph.add(Stage(name="finalize", kind="finalize", state=ORDERED,
                        after=(last,)))
        return graph


def forward_stage_names(n_sources: int) -> tuple:
    """Canonical names of the N forward stages: the historical
    ``visible``/``thermal`` pair, then ``source2``, ``source3``, ...
    so every existing two-source plan, test and report is untouched."""
    extra = tuple(f"source{i}" for i in range(2, n_sources))
    return ("visible", "thermal") + extra
