"""Lowering: a :class:`FusionGraph` + session config -> executable plan.

The planner is the seam between *describing* the dataflow and
*driving* it.  It validates a graph against a
:class:`~repro.session.FusionConfig`-shaped object, then emits a
:class:`FusionPlan` that every executor drives unchanged:

* a deterministic **schedule** (topological order, insertion-order
  tie-break);
* a partition into the **head** (ordered stages run on the capture
  thread, frame by frame), the **compute** region (every stage the
  processor's ``compute`` call runs) and the **tail** (the ordered
  finalize);
* **placement** per stage — ``auto`` takes the engine binding the
  session resolved once and passes in (fixed engine, the cost-model
  optimum for ``adaptive``, dynamic per-frame for ``online``) and
  forced placements pass through (a mixed placement runs a frame's
  stages on different engines under every executor).  The plan owns
  the instance behind every placement (``engines``): the binding's,
  plus one per forced engine the binding lacks;
* a modelled **per-stage cost** (:func:`stage_seconds`, which the
  session's accounting bills with too) so ``repro-fusion plan`` can
  show where the frame time goes before anything runs;
* **fused dispatch units** — chains of two or more adjacent stateless
  stages with the same placement key collapse into one unit.  The
  canonical ``visible+thermal+fuse`` chain rides one stacked
  ``(N, H, W)`` forward, vectorized coefficient fusion and one stacked
  inverse, from a pooled per-worker input stack (the paper's HLS
  datapath likewise streams forward -> fuse -> inverse without
  returning to the host).  A placement change breaks a chain: members
  are either all ``auto`` or all forced onto one engine.  Units are
  the only stacking rule: the session's ``compute`` runs a unit's
  transform chain as one stacked call per lane over however many
  frames a driver hands it (one for ``serial``, ``pipeline`` and
  ``process()``, ``batch_size`` for ``batch``, a grant under serving).

Lowering reads no executor: every executor drives the same plan.  If
any stage between head and tail is ordered, the plan is
``sequential``: every executor then computes frames in frame order on
one lane, which is exactly how stateful temporal fusion has always
been driven, and no stage fuses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.adaptive import EngineBinding
from ..errors import ConfigurationError
from ..hw.engine import Engine
from ..hw.registry import create_engine, engine_names
from ..types import FrameShape
from .graph import FusionGraph, forward_stage_names
from .stage import AUTO, Stage

#: Canonical names the session's built-in stage kinds must keep, so
#: placement keys, per-stage attribution and reports stay stable.
CANONICAL_NAMES = {
    "ingest": "ingest",
    "register": "register",
    "fuse": "fuse",
    "temporal": "temporal",
    "finalize": "finalize",
}

#: Placement label for host-side (unmodelled, CPU-ordered) stages.
HOST = "host"


def stage_seconds(kind: str, engine: Engine, shape: FrameShape,
                  levels: int) -> float:
    """Modelled seconds of one frame's stage of ``kind`` on ``engine``:
    a forward is one image's forward transform, ``fuse`` the fusion
    rule plus the inverse, ``temporal`` (which decomposes every
    modality itself) a whole frame; other kinds are unmodelled."""
    if kind == "forward":
        return engine.forward_time(shape, levels).total_s
    if kind == "fuse":
        return (engine.fusion_time(shape, levels).total_s
                + engine.inverse_time(shape, levels).total_s)
    if kind == "temporal":
        return engine.frame_time(shape, levels).total_s
    return 0.0


@dataclass(frozen=True)
class PlannedStage:
    """One stage with everything the executors and reports need."""

    stage: Stage
    role: str            # "head" | "compute" | "tail"
    engine: str          # resolved placement (engine name or "host")
    model_seconds: float  # modelled compute cost on that engine
    #: kernel driving the stage's arithmetic, named by its engine
    #: ("arm", "neon", "fpga", ...; "" for host-side stages that never
    #: touch an engine)
    kernel: str = ""
    #: working dtype of that backend ("float32"/"float64"; "" for host)
    precision: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.stage.name,
            "kind": self.stage.kind,
            "state": self.stage.state,
            "after": list(self.stage.after),
            "batchable": self.stage.batchable,
            "role": self.role,
            "placement": self.engine,
            "forced": self.stage.placement != AUTO,
            "model_seconds": self.model_seconds,
            "kernel": self.kernel,
            "precision": self.precision,
        }


@dataclass(frozen=True)
class FusionPlan:
    """A lowered, executable description of one session's dataflow."""

    graph: FusionGraph
    schedule: Tuple[str, ...]
    head: Tuple[str, ...]
    tail: Tuple[str, ...]
    compute: Tuple[str, ...]          # between head and tail, in order
    sequential: bool
    nodes: Dict[str, PlannedStage] = field(repr=False)
    #: engine name -> the instance every placement computes and bills
    #: on (not serialized)
    engines: Dict[str, Engine] = field(repr=False)
    dynamic_engine: bool = False
    engine: str = "adaptive"
    shape: str = ""
    levels: int = 3
    #: fused dispatch units (unit name -> ordered member stage names;
    #: the unit name appears in ``compute`` while
    #: ``schedule``/``nodes`` keep every original stage)
    units: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def node(self, name: str) -> PlannedStage:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(
                f"plan has no stage named {name!r}") from None

    def stage(self, name: str) -> Stage:
        return self.node(name).stage

    def is_unit(self, name: str) -> bool:
        """True when ``name`` is a fused dispatch unit, not a stage."""
        return name in self.units

    def members(self, name: str) -> Tuple[str, ...]:
        """The original stage names ``name`` executes, in order (a
        plain stage is its own single member)."""
        return self.units.get(name, (name,))

    @property
    def model_seconds_per_frame(self) -> float:
        return sum(node.model_seconds for node in self.nodes.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "shape": self.shape,
            "levels": self.levels,
            "schedule": list(self.schedule),
            "head": list(self.head),
            "compute": list(self.compute),
            "tail": list(self.tail),
            "sequential": self.sequential,
            "dynamic_engine": self.dynamic_engine,
            "stages": [self.nodes[name].as_dict()
                       for name in self.schedule],
            "model_seconds_per_frame": self.model_seconds_per_frame,
            "units": {name: list(members)
                      for name, members in self.units.items()},
        }

    def describe(self) -> str:
        lines = [
            f"FusionPlan: engine={self.engine} "
            f"({self.shape}, levels={self.levels})",
            f"  {'stage':<12} {'role':<9} {'placement':<10} "
            f"{'state':<10} {'cost/frame':>12}",
        ]
        for name in self.schedule:
            node = self.nodes[name]
            cost = (f"{node.model_seconds * 1e3:.3f} ms"
                    if node.model_seconds else "-")
            placement = node.engine
            if (node.stage.placement == AUTO and self.dynamic_engine
                    and node.role == "compute"):
                placement = f"{node.engine}*"
            lines.append(f"  {name:<12} {node.role:<9} {placement:<10} "
                         f"{node.stage.state:<10} {cost:>12}")
        if self.dynamic_engine:
            lines.append("  (* online scheduler: engine re-selected "
                         "per frame; cost shown for the probe engine)")
        lines.append(f"  compute      : "
                     f"{'sequential (ordered stage present)' if self.sequential else 'concurrent-eligible'}")
        kernels = ", ".join(
            f"{name}={self.nodes[name].kernel}/{self.nodes[name].precision}"
            for name in self.schedule if self.nodes[name].kernel)
        lines.append(f"  kernels      : {kernels or 'host-only'}")
        lines.append(f"  modelled cost: "
                     f"{self.model_seconds_per_frame * 1e3:.3f} ms/frame")
        units = (", ".join(f"{name} = [{' '.join(members)}]"
                           for name, members in self.units.items())
                 or "none")
        lines.append(f"  fused units  : {units}")
        return "\n".join(lines)


class Planner:
    """Lower a :class:`FusionGraph` against a session configuration."""

    #: Stage kinds allowed to ride the capture thread with ingest.
    _HEAD_KINDS = ("ingest", "register", "map")

    def lower(self, graph: FusionGraph, config,
              binding: EngineBinding) -> FusionPlan:
        graph.validate()
        self._check_consistency(graph, config)
        order = graph.topo_order()

        head: List[str] = []
        for name in order[:-1]:  # finalize (the topo sink) never joins
            stage = graph.stage(name)
            if (stage.ordered and stage.kind in self._HEAD_KINDS
                    and set(stage.after) <= set(head)):
                head.append(name)
            else:
                break
        tail = (order[-1],)
        compute = tuple(n for n in order if n not in head and n not in tail)
        sequential = any(graph.stage(n).ordered for n in compute)
        head_set = set(head)

        placements = self._resolve_placements(graph, order, head_set,
                                              tail[0], binding.engine.name)
        bound = {engine.name: engine for engine in binding.engines}
        engines = {name: bound.get(name) or create_engine(name)
                   for name in dict.fromkeys(placements.values())
                   if name != HOST}
        kernels = self._kernel_info(placements, engines, config)
        units = {} if sequential else self._fuse_units(graph, compute)

        nodes = {}
        for name in order:
            role = ("head" if name in head_set
                    else "tail" if name in tail
                    else "compute")
            kernel, precision = kernels[name]
            placement = placements[name]
            seconds = (0.0 if placement == HOST else stage_seconds(
                graph.stage(name).kind, engines[placement],
                config.fusion_shape, config.levels))
            nodes[name] = PlannedStage(stage=graph.stage(name), role=role,
                                       engine=placement,
                                       model_seconds=seconds,
                                       kernel=kernel, precision=precision)
        owner = {member: unit for unit, members in units.items()
                 for member in members}
        return FusionPlan(
            graph=graph, schedule=order, head=tuple(head), tail=tail,
            compute=tuple(dict.fromkeys(owner.get(n, n) for n in compute)),
            sequential=sequential, nodes=nodes, engines=engines,
            dynamic_engine=binding.dynamic,
            engine=config.engine, shape=str(config.fusion_shape),
            levels=config.levels, units=units,
        )

    @staticmethod
    def _fuse_units(graph: FusionGraph, region: Tuple[str, ...]
                    ) -> Dict[str, Tuple[str, ...]]:
        """Fused dispatch units over ``region`` (schedule order): every
        maximal run of two or more adjacent stages sharing one
        placement key (``auto``, or one forced engine)."""
        runs: List[List[str]] = []
        key: Optional[str] = None
        for name in region:
            placement = graph.stage(name).placement
            if not runs or placement != key:
                runs.append([])
                key = placement
            runs[-1].append(name)
        units: Dict[str, Tuple[str, ...]] = {}
        for members in runs:
            if len(members) < 2:
                continue
            unit = "+".join(members)
            while unit in graph or unit in units:
                unit = f"fused:{unit}"  # pragma: no cover - name clash
            units[unit] = tuple(members)
        return units

    # ------------------------------------------------------------------
    def _check_consistency(self, graph: FusionGraph, config) -> None:
        fuse_like = [s for s in graph.stages()
                     if s.kind in ("fuse", "temporal")]
        if len(fuse_like) != 1:
            raise ConfigurationError(
                f"graph needs exactly one fuse or temporal stage, found "
                f"{[s.name for s in fuse_like] or 'none'}")
        forwards = [s for s in graph.stages() if s.kind == "forward"]
        if "fuse" in graph:
            # the fuse stage consumes every source pyramid; a graph
            # missing a forward (or not feeding it into fuse) must
            # fail here, not as an AttributeError deep inside an
            # executor thread
            missing = [n for n in ("visible", "thermal")
                       if n not in graph]
            if missing:
                raise ConfigurationError(
                    f"the fuse stage needs both forward stages; "
                    f"{missing} are missing from the graph (use a "
                    f"temporal stage instead to fuse without explicit "
                    f"forwards)")
            unfed = ({s.name for s in forwards}
                     - graph.ancestors("fuse"))
            if unfed:
                raise ConfigurationError(
                    f"the fuse stage must (transitively) depend on "
                    f"every forward stage; {sorted(unfed)} never reach "
                    f"it")
        if forwards:
            expected = set(forward_stage_names(len(forwards)))
            actual = {s.name for s in forwards}
            if actual != expected:
                raise ConfigurationError(
                    f"the {len(forwards)} forward stages must carry "
                    f"the canonical source names "
                    f"{sorted(expected)}, got {sorted(actual)} "
                    f"(placement keys, reports and the session's "
                    f"source indexing depend on them)")
        for stage in graph.stages():
            want = CANONICAL_NAMES.get(stage.kind)
            if want is not None and stage.name != want:
                raise ConfigurationError(
                    f"built-in stage kind {stage.kind!r} must keep its "
                    f"canonical name {want!r}, got {stage.name!r} "
                    f"(placement keys and reports depend on it)")
            if (stage.kind == "forward"
                    and stage.name not in ("visible", "thermal")
                    and not re.fullmatch(r"source[2-9]\d*", stage.name)):
                raise ConfigurationError(
                    f"forward stages are named 'visible', 'thermal' or "
                    f"'source<i>' (i >= 2), got {stage.name!r}")
            if stage.placement != AUTO:
                if stage.placement not in engine_names():
                    raise ConfigurationError(
                        f"stage {stage.name!r} placement "
                        f"{stage.placement!r} is not a registered "
                        f"engine; expected one of "
                        f"{sorted(engine_names())} or 'auto'")
                if stage.kind not in ("forward", "fuse"):
                    raise ConfigurationError(
                        f"stage {stage.name!r} (kind {stage.kind!r}) "
                        f"cannot be placed on an engine; only the "
                        f"forward and fuse stages compute through "
                        f"engine arithmetic (custom map stages run "
                        f"host-side NumPy)")
        if "temporal" in graph and not config.temporal:
            raise ConfigurationError(
                "graph contains a temporal stage but the config has "
                "temporal=False; enable FusionConfig(temporal=True)")
        if config.temporal and "temporal" not in graph:
            raise ConfigurationError(
                "config has temporal=True but the graph has no temporal "
                "stage; build it with FusionGraph.canonical(temporal=True)")
        if "register" in graph and not config.registration:
            raise ConfigurationError(
                "graph contains a register stage but the config has "
                "registration=False; enable FusionConfig(registration=True)")
        if (config.registration and "register" not in graph
                and "register" not in graph.dropped):
            raise ConfigurationError(
                "config has registration=True but the graph has no "
                "register stage; build it with "
                "FusionGraph.canonical(registration=True), or remove "
                "the stage explicitly with FusionGraph.drop('register') "
                "/ graph_overrides={'drop': ('register',)} to run this "
                "session without rig calibration")

    @staticmethod
    def _resolve_placements(graph, order, head_set, tail_name,
                            engine_label) -> Dict[str, str]:
        placements: Dict[str, str] = {}
        for name in order:
            stage = graph.stage(name)
            if (name in head_set or name == tail_name
                    or stage.kind == "map"):
                # host-side work: ordered session state and custom
                # NumPy stages never touch engine arithmetic
                placements[name] = HOST
            elif stage.placement != AUTO:
                placements[name] = stage.placement
            else:
                placements[name] = engine_label
        return placements

    @staticmethod
    def _kernel_info(placements, engines,
                     config) -> Dict[str, Tuple[str, str]]:
        """Per-stage (kernel label, working dtype) pairs.

        The label is the engine's name: host engines share one kernel
        formulation and differ only in their cost models.  The dtype
        is resolved through the same :meth:`Engine.working_dtype`
        check the session's backends bind, so a forced placement whose
        datapath cannot run the config's precision (FPGA under
        ``float64``) fails here, at plan time, with the engine's own
        error — not mid-stream."""
        precision = getattr(config, "precision", None)
        info = {HOST: ("", "")}
        for name, engine in engines.items():
            info[name] = (engine.name,
                          str(engine.working_dtype(precision)))
        return {stage_name: info[placement]
                for stage_name, placement in placements.items()}
