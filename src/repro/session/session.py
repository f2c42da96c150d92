"""The fusion session facade: one object, every way to run the system.

:class:`FusionSession` runs the whole system — batch runs over the
modelled capture chain, online scheduling, registration, temporal
fusion, monitoring, telemetry — behind one configured object with
three entry points:

* :meth:`process` — fuse one (visible, thermal) pair;
* :meth:`stream` — iterate any :class:`FrameSource`, yielding a
  :class:`FusedFrameResult` per frame (the continuous loop the paper's
  system runs);
* :meth:`run` — fuse ``n`` frames from the built-in capture chain and
  return an aggregate :class:`FusionReport`.

Everything optional — registration, temporal fusion, quality
monitoring, per-frame metrics — is switched by the
:class:`FusionConfig`, so ablations change a flag, not a class.

*How* frames are driven is equally pluggable — and *what* is driven is
declarative: the session constructs its pipeline as a
:class:`repro.graph.FusionGraph` (ingest → register → forward ×2 →
fuse/temporal → finalize), lowers it once through the
:class:`repro.graph.Planner`, and :meth:`stream`/:meth:`run` route
every frame through the :mod:`repro.exec` executor the config names —
the serial reference loop, the double-buffered thread pipeline, or
micro-batched NumPy vectorization.  Every executor (and the serving
layer) drives the same lowered plan through the
:class:`_SessionProcessor` below, with the same three calls: ingest,
compute and finalize.  Users extend the dataflow with
custom stages (``session.canonical_graph()`` + ``run(graph=...)``, or
``FusionConfig.graph_overrides``) and inspect it
(``session.plan.describe()``, the CLI's ``plan`` subcommand).  The
stateful stages (ingest: engine selection; register: rig calibration;
finalize: monitoring + telemetry) always run in frame order on one
thread, so every executor yields bitwise-identical results for a
fixed seed (for bounded or fully consumed drives; see
:meth:`FusionSession.stream` on the read-ahead of abandoned
concurrent streams).
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.adaptive import Decision, OnlineScheduler, bind_engine
from ..core.fusion import ImageFusion
from ..core.metrics import fusion_report, petrovic_qabf
from ..core.quality_monitor import ACTION_FUSE, QualityMonitor
from ..core.registration import DtcwtRegistration
from ..core.video_fusion import TemporalFusion
from ..dtcwt.backend import ScratchPool
from ..errors import ConfigurationError, FusionError
from ..exec import Executor, FrameProcessor, make_executor
from ..graph import FusionGraph, FusionPlan, Planner, Stage
from ..graph.graph import forward_stage_names
from ..graph.planner import stage_seconds
from ..hw.energy import energy_mj
from ..hw.engine import Engine
from ..video.frames import VideoFrame
from ..video.scaler import resize_to
from .config import FusionConfig
from .report import FusedFrameResult, FusionReport
from .sources import (CaptureChainSource, ClosedAwareIterator, FrameGroup,
                      FrameSource, as_frame_source, float_frame)
from .telemetry import FrameTelemetry


class _RigCalibrator:
    """Static-rig calibration: apply the median shift once it is stable.

    A co-located camera pair has one fixed offset; per-frame estimates
    that saturate the search bound or disagree with the consensus are
    measurement noise, not motion, and applying them would misalign a
    well-aligned rig.
    """

    def __init__(self, levels: int):
        self.registration = DtcwtRegistration(levels=max(2, levels),
                                              max_shift=6)
        self._estimates: List[Tuple[float, float]] = []

    def offset(self, visible: np.ndarray,
               thermal: np.ndarray) -> Optional[Tuple[int, int]]:
        result = self.registration.estimate(visible, thermal)
        bound = self.registration.max_shift
        if abs(result.dy) < bound and abs(result.dx) < bound:
            self._estimates.append((result.dy, result.dx))
        if len(self._estimates) < 3:
            return None
        recent = self._estimates[-5:]
        dy = float(np.median([e[0] for e in recent]))
        dx = float(np.median([e[1] for e in recent]))
        spread = max(abs(e[0] - dy) + abs(e[1] - dx) for e in recent)
        if spread > 2.0:
            return None  # estimates disagree: no confident calibration
        if round(dy) == 0 and round(dx) == 0:
            return None  # rig already aligned
        return int(round(dy)), int(round(dx))


@dataclass
class _FrameTask:
    """One frame group in flight between the processor's stages.

    ``frames[s]`` / ``pyramids[s]`` hold source ``s``'s normalized
    frame and forward pyramid; the ``visible`` / ``thermal`` accessors
    name sources 0 and 1 for ``finalize`` and for custom ``map``
    stages.
    """

    index: int
    timestamp_s: float
    frames: List[np.ndarray]
    engine: Engine
    model_seconds: float
    applied_shift: Optional[Tuple[int, int]] = None
    started: float = 0.0
    pyramids: List[object] = dataclass_field(default_factory=list)
    fused: Optional[np.ndarray] = None
    #: the frame's fusion report and Q^AB/F, graded at the end of
    #: ``compute`` (None: not graded)
    quality: Optional[Dict[str, float]] = None
    qabf: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.pyramids:
            self.pyramids = [None] * len(self.frames)

    @property
    def visible(self) -> np.ndarray:
        return self.frames[0]

    @visible.setter
    def visible(self, value: np.ndarray) -> None:
        self.frames[0] = value

    @property
    def thermal(self) -> np.ndarray:
        return self.frames[1]

    @thermal.setter
    def thermal(self, value: np.ndarray) -> None:
        self.frames[1] = value


class _WorkerContext:
    """Per-worker compute state handed to each compute call.

    Engines carry non-thread-safe backend state (the FPGA driver's
    buffers, coefficient caches), so each worker gets its own
    :class:`ImageFusion` lane per engine *name*, built from that
    engine's own transform factory, and its own scratch pool.  The
    session's serial lane is one more context (``session._serial``).
    Every lane of an engine computes identically, which is what keeps
    concurrent schedules bitwise-equal to the serial loop.
    """

    def __init__(self, session: "FusionSession"):
        self._session = session
        self._lanes: Dict[str, ImageFusion] = {}
        #: per-worker scratch buffers (single-threaded, like the lanes)
        self.scratch = ScratchPool()

    def lane(self, engine: Engine) -> ImageFusion:
        fuser = self._lanes.get(engine.name)
        if fuser is None:
            fuser = self._session._new_fuser(engine)
            self._lanes[engine.name] = fuser
        return fuser


class _SessionProcessor(FrameProcessor):
    """The session's fusion dataflow: an interpreter for one lowered
    :class:`~repro.graph.FusionPlan`.

    The processor binds the plan's built-in stage kinds to the
    session's own implementations (normalisation + scheduling for
    ``ingest``, rig calibration for ``register``, the DT-CWT forwards,
    coefficient fusion + inverse, stateful temporal fusion, and
    monitoring/telemetry for ``finalize``) and calls custom ``map``
    stages' ``fn(task)`` directly.  Executors never see stage
    semantics or stage names — they hand ingested tasks to
    :meth:`compute`.
    """

    def __init__(self, session: "FusionSession", plan: "FusionPlan"):
        self._session = session
        self.plan = plan
        self._head_rest = plan.head[1:]
        # ordered stages may never execute concurrently; a violated
        # guard is an executor bug (or a user driving compute by hand
        # from several threads) and raises instead of corrupting
        # cross-frame state.  Built over the schedule (every original
        # stage name), because the plan's compute tuple may carry fused
        # dispatch units instead of raw stage names.
        head_tail = set(plan.head) | set(plan.tail)
        self._guards: Dict[str, threading.Lock] = {
            name: threading.Lock() for name in plan.schedule
            if name not in head_tail and plan.stage(name).ordered
        }
        # the program's one stage timer: measured seconds keyed by
        # (stage or unit name, thread name).  Executors of every kind
        # and the serving layer funnel through ingest, compute and
        # finalize, so one record covers them all
        self._stage_wall: Dict[Tuple[str, str], float] = {}
        self._wall_lock = threading.Lock()
        # the plan's forward stages in schedule order: ("visible",
        # "thermal") for the paper pair, plus "source2", ... for N-way
        # graphs; empty on temporal plans (which decompose internally)
        self._forward_names: Tuple[str, ...] = tuple(
            name for name in plan.schedule
            if name in plan and plan.stage(name).kind == "forward")
        self._forward_index: Dict[str, int] = {
            name: i for i, name in enumerate(self._forward_names)}
        self._modelled_stages: Tuple[str, ...] = \
            self._forward_names + ("fuse",)
        # unit name -> how many leading members its stacked core covers
        # (every forward plus fuse, or the forwards alone); the
        # planner pins the built-in kinds to their canonical names, so
        # these names are the forward and fuse stages themselves
        # (units exist only on non-sequential plans, which always carry
        # the forwards)
        forwards = self._forward_names
        k = len(forwards)
        self._cores: Dict[str, int] = {}
        for unit, members in plan.units.items():
            if members[:k + 1] == forwards + ("fuse",):
                self._cores[unit] = k + 1
            elif members[:k] == forwards:
                self._cores[unit] = k
        # modelled stages with a forced placement: their time/energy is
        # billed to the plan's instance of the forced engine, not to
        # the frame's selected engine
        self._forced_engines: Dict[str, Engine] = {
            name: plan.engines[plan.stage(name).placement]
            for name in self._modelled_stages
            if name in plan and plan.stage(name).placement != "auto"
        }

    @property
    def sequential(self) -> bool:
        return self.plan.sequential

    # -- measured per-stage wall time ----------------------------------
    def _record_wall(self, name: str, seconds: float) -> None:
        key = (name, threading.current_thread().name)
        with self._wall_lock:
            self._stage_wall[key] = self._stage_wall.get(key, 0.0) + seconds

    def stage_wall_snapshot(self) -> Dict[Tuple[str, str], float]:
        """Cumulative measured seconds per (stage or unit, thread)
        since this processor was built (copy; safe to keep as a
        mark)."""
        with self._wall_lock:
            return dict(self._stage_wall)

    def stage_wall_since(
            self, mark: Optional[Dict[Tuple[str, str], float]] = None
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """The record since ``mark`` (an earlier
        :meth:`stage_wall_snapshot`; None: since the processor was
        built), summed per stage or unit and per thread."""
        mark = mark or {}
        per_stage: Dict[str, float] = {}
        per_thread: Dict[str, float] = {}
        for key, seconds in self.stage_wall_snapshot().items():
            seconds -= mark.get(key, 0.0)
            if seconds > 0.0:
                stage, thread = key
                per_stage[stage] = per_stage.get(stage, 0.0) + seconds
                per_thread[thread] = per_thread.get(thread, 0.0) + seconds
        return per_stage, per_thread

    def make_contexts(self, n):
        return [_WorkerContext(self._session) for _ in range(n)]

    # -- stages ---------------------------------------------------------
    def ingest(self, pair: FrameGroup, index: int) -> _FrameTask:
        """The plan's head: the ingest stage plus every ordered stage
        glued to it (canonically rig registration), run inline on the
        capturing thread so frame order is inherent."""
        started = time.perf_counter()
        session = self._session
        expected = len(self._forward_names) or 2
        incoming = getattr(pair, "frames", None)
        if incoming is None:  # a bare (visible, thermal, ...) tuple
            incoming = tuple(pair)
        if len(incoming) != expected:
            raise FusionError(
                f"this session's plan fuses {expected} sources per "
                f"frame, but the source delivered {len(incoming)} "
                f"(configure FusionConfig(n_sources={len(incoming)}) "
                f"to match the stream)")
        frames = [session._normalize(frame, session._next_index, source)
                  for frame, source in zip(incoming,
                                           forward_stage_names(expected))]

        engine = session._select_engine()
        # one forward per source: an N-way frame pays N transforms
        seconds = engine.frame_time(session.config.fusion_shape,
                                    session.config.levels,
                                    sources=expected).total_s
        if session.scheduler is not None:
            # the observation is the modelled cost, known at selection
            # time; feeding it here keeps the probe/exploit sequence
            # identical no matter how far an executor reads ahead
            session.scheduler.observe(engine, seconds)

        task = _FrameTask(
            index=session._next_index,
            timestamp_s=getattr(pair, "timestamp_s", 0.0),
            frames=frames,
            engine=engine,
            model_seconds=seconds,
            started=started,
        )
        session._next_index += 1
        self._record_wall("ingest", time.perf_counter() - started)
        for name in self._head_rest:
            self._stage(name, task, None)
        return task

    def _register(self, task: _FrameTask) -> None:
        """Apply each rig calibrator's consensus shift to its source
        (ordered: every consensus accumulates across frames).  Source
        0 is the reference; sources 1..N-1 are aligned onto it.
        ``applied_shift`` keeps reporting the thermal (source 1)
        shift, as the pairwise reports always did."""
        session = self._session
        if session.calibrators is None:
            return
        for s, calibrator in enumerate(session.calibrators, start=1):
            if s >= len(task.frames):
                break
            offset = calibrator.offset(task.frames[0], task.frames[s])
            if offset is not None:
                task.frames[s] = np.roll(
                    np.roll(task.frames[s], offset[0], axis=0),
                    offset[1], axis=1)
                session._shift_total += float(np.hypot(*offset))
                if s == 1:
                    task.applied_shift = offset

    def _stage(self, name: str, task: _FrameTask,
               ctx: Optional[_WorkerContext]) -> None:
        """One plan stage on one frame, timed under the stage's name."""
        started = time.perf_counter()
        try:
            self._run_single(name, task, ctx)
        finally:
            self._record_wall(name, time.perf_counter() - started)

    def _run_single(self, name: str, task: _FrameTask,
                    ctx: Optional[_WorkerContext]) -> None:
        stage = self.plan.stage(name)
        guard = self._guards.get(name)
        if guard is not None and not guard.acquire(blocking=False):
            raise FusionError(
                f"ordered stage {name!r} was driven from two threads "
                f"concurrently; ordered stages carry cross-frame state "
                f"and must run on a single ordered lane")
        try:
            kind = stage.kind
            if kind == "forward":
                fuser = self._stage_lane(task, stage, ctx)
                idx = self._forward_index[name]
                task.pyramids[idx] = fuser.decompose(task.frames[idx])
            elif kind == "fuse":
                fuser = self._stage_lane(task, stage, ctx)
                task.fused = fuser.reconstruct(fuser.combine(*task.pyramids))
            elif kind == "temporal":
                session = self._session
                session.temporal.fusion = ctx.lane(task.engine)
                task.fused = session.temporal.fuse(task.visible,
                                                   task.thermal)
            elif kind == "register":
                self._register(task)
            else:  # "map": a user stage mutating the in-flight task
                stage.fn(task)
        finally:
            if guard is not None:
                guard.release()

    # -- fused dispatch units and the stacked core ----------------------
    def _run_core(self, name: str, tasks: List[_FrameTask],
                  ctx: _WorkerContext) -> None:
        """Unit ``name``'s transform chain (``visible+thermal+fuse``,
        or the forwards alone) over ``tasks``: one :meth:`_stacked_core`
        call per lane, each lane's tasks in frame order.  Members of a
        unit share one placement key, so the lane is the forced engine,
        or each frame's engine for ``auto`` (an online schedule that
        mixes engines splits by lane)."""
        stage = self.plan.stage(self.plan.units[name][0])
        with_fuse = self._cores[name] > len(self._forward_names)
        lanes: Dict[int, Tuple[ImageFusion, List[_FrameTask]]] = {}
        for task in tasks:
            fuser = self._stage_lane(task, stage, ctx)
            lanes.setdefault(id(fuser), (fuser, []))[1].append(task)
        for fuser, group in lanes.values():
            self._stacked_core(group, fuser, ctx, with_fuse)

    def _stacked_core(self, tasks: List[_FrameTask], fuser: ImageFusion,
                      ctx: _WorkerContext, with_fuse: bool = True) -> None:
        """Every source of ``tasks`` (B frames on one lane) through one
        stacked :meth:`ImageFusion.decompose`, sliced back into one
        ``B``-frame pyramid per source, then — with ``with_fuse`` —
        one vectorized :meth:`ImageFusion.combine` and one stacked
        :meth:`ImageFusion.reconstruct`.

        The ``(k*B, H, W)`` input stack is source-major and pooled in
        the lane's working dtype in ``ctx.scratch``.  Assigning the
        float64 host frames into it rounds exactly once, as the
        backend's cast of a float64 stack would, so the output is
        bitwise-identical to the stage-by-stage path.  The kernels
        never return a view of their input, so the pyramids outlive
        the next write into the pool.
        """
        count = len(tasks)
        k = len(tasks[0].frames)
        shape = (k * count,) + tasks[0].frames[0].shape
        stack = ctx.scratch.take(shape, shape,
                                 dtype=fuser.transform.backend.dtype)
        for i, task in enumerate(tasks):
            for s, frame in enumerate(task.frames):
                stack[s * count + i] = frame
        stacked = fuser.decompose(stack)
        slices = [stacked[s * count:(s + 1) * count] for s in range(k)]
        if with_fuse:
            fused = fuser.reconstruct(fuser.combine(*slices))
            for i, task in enumerate(tasks):
                task.fused = fused[i]
        for i, task in enumerate(tasks):
            for s in range(k):
                task.pyramids[s] = slices[s][i]

    def _stage_lane(self, task: _FrameTask, stage,
                    ctx: _WorkerContext) -> ImageFusion:
        """The :class:`ImageFusion` lane ``stage`` must compute with
        for ``task`` on ``ctx`` — forced placement first, then the
        frame's selected engine."""
        if stage.placement != "auto":
            return ctx.lane(self.plan.engines[stage.placement])
        return ctx.lane(task.engine)

    def compute(self, tasks, ctx: Optional[_WorkerContext] = None) -> None:
        """Compute B >= 1 ingested frames on ``ctx`` (None: the
        session's serial lane): the one compute entry of every
        executor, of serving grants and of :meth:`FusionSession.process`.

        A sequential plan (stateful temporal fusion, or a custom
        ordered stage) keeps the strict per-frame order: the whole
        compute region runs frame-major.  Otherwise the plan's units
        decide stacking: a unit's transform chain runs through
        :meth:`_run_core` — one stacked call per lane over all of
        ``tasks``.  The unit's remaining members and the plain stages
        follow in schedule order with their declared granularity:
        *batchable* stages go stage-major (every task through one
        stage before the next), while contiguous runs of non-batchable
        stages go frame-major — each frame passes through the whole
        run before the next frame enters it, so a latency-sensitive
        sink declared ``batchable=False`` keeps its per-frame cadence.
        Either way each stage sees frames in index order and its
        arithmetic is bound to the frame's engine (or its forced
        placement), so the frames are bitwise-identical at every B.
        The computed batch is then graded as a whole
        (:meth:`_grade`).
        """
        if ctx is None:
            ctx = self._session._serial
        plan = self.plan
        if plan.sequential:
            for task in tasks:
                for name in plan.compute:
                    self._stage(name, task, ctx)
            self._grade(tasks)
            return
        frame_run: List[str] = []

        def flush() -> None:
            for task in tasks:
                for member in frame_run:
                    self._stage(member, task, ctx)
            frame_run.clear()

        for name in plan.compute:
            prefix = self._cores.get(name, 0)
            if prefix:
                flush()
                started = time.perf_counter()
                self._run_core(name, tasks, ctx)
                self._record_wall(name, time.perf_counter() - started)
            for member in plan.members(name)[prefix:]:
                if not plan.stage(member).batchable:
                    frame_run.append(member)
                    continue
                flush()
                for task in tasks:
                    self._stage(member, task, ctx)
        flush()
        self._grade(tasks)

    def _grade(self, tasks) -> None:
        """The quality metrics of the computed batch, graded at once:
        one :func:`fusion_report` over the batch's visible, thermal
        and fused frames (or, with the metrics off and the
        monitor on, the Q^AB/F the monitor reads), timed under the
        ``metrics`` record key.  The metrics are pure, so any driver's
        batch grades every frame exactly as it would grade alone; the
        quality sums and the stateful monitor stay in ordered
        :meth:`finalize`."""
        session = self._session
        report = session.config.quality_metrics
        if not tasks or not (report or session.monitor is not None):
            return
        started = time.perf_counter()
        frames = ([task.visible for task in tasks],
                  [task.thermal for task in tasks],
                  [task.fused for task in tasks])
        if report:
            for task, quality in zip(tasks, fusion_report(*frames)):
                task.quality = quality
                task.qabf = quality["qabf"]
        else:
            for task, qabf in zip(tasks, petrovic_qabf(*frames)):
                task.qabf = qabf
        self._record_wall("metrics", time.perf_counter() - started)

    # -- accounting -----------------------------------------------------
    def _frame_cost(self, task: _FrameTask
                    ) -> Tuple[float, float, str, Optional[Dict[str, str]]]:
        """(modelled seconds, millijoules, engine label, billed stages)
        of one frame.

        Default: the selected engine's whole-frame model — exactly the
        serial session accounting — and no per-stage breakdown (None).
        When the plan forces a modelled stage onto a named engine, each
        modelled stage is billed to the engine that computes it (the
        forced one, else the frame's), so the run report always agrees
        with the lowered plan, and the breakdown names that engine per
        stage.  Custom map stages have no hardware model and are never
        billed.
        """
        session = self._session
        power = session.config.power_model
        if not self._forced_engines:
            seconds = task.model_seconds
            mj = energy_mj(seconds, task.engine.power_mode, power)
            return seconds, mj, task.engine.name, None
        shape = session.config.fusion_shape
        levels = session.config.levels
        billed = {stage: self._forced_engines.get(stage, task.engine)
                  for stage in self._modelled_stages if stage in self.plan}
        seconds = 0.0
        mj = 0.0
        for stage, engine in billed.items():
            stage_s = stage_seconds(self.plan.stage(stage).kind, engine,
                                    shape, levels)
            seconds += stage_s
            mj += energy_mj(stage_s, engine.power_mode, power)
        label = billed["fuse"].name if "fuse" in billed else task.engine.name
        return seconds, mj, label, {stage: engine.name
                                    for stage, engine in billed.items()}

    def finalize(self, task: _FrameTask) -> FusedFrameResult:
        started = time.perf_counter()
        session = self._session
        fused = task.fused

        action = ACTION_FUSE
        if session.monitor is not None:
            action = session.monitor.observe(task.visible, task.thermal,
                                             fused, qabf=task.qabf).action

        seconds, mj, engine_label, stages = self._frame_cost(task)

        quality: Dict[str, float] = {}
        if session.config.quality_metrics:
            quality = task.quality
            for key, value in quality.items():
                session._quality_sums[key] = \
                    session._quality_sums.get(key, 0.0) + value
            session._quality_frames += 1

        metadata = {"engine": engine_label, "action": action}
        if stages is not None:
            metadata["stages"] = stages
        result = FusedFrameResult(
            frame=VideoFrame(
                pixels=np.clip(np.round(fused), 0, 255).astype(np.uint8),
                timestamp_s=task.timestamp_s,
                frame_id=task.index,
                source="fused",
                metadata=metadata,
            ),
            visible=task.visible,
            thermal=task.thermal,
            engine=engine_label,
            action=action,
            model_seconds=seconds,
            model_millijoules=mj,
            index=task.index,
            timestamp_s=task.timestamp_s,
            applied_shift=task.applied_shift,
            quality=quality,
            extra_sources=tuple(task.frames[2:]),
        )

        session._frames += 1
        session._engine_usage[engine_label] = \
            session._engine_usage.get(engine_label, 0) + 1
        session._actions[action] = session._actions.get(action, 0) + 1
        session._seconds_total += seconds
        session._millijoules_total += mj
        # records are retained only for the run() batch in flight:
        # stream() already hands each result to the caller, and a
        # session-lifetime list would grow without bound
        if session._batch_records is not None:
            session._batch_records.append(result)
        # last, so the frame's wall latency spans ingest to report
        ended = time.perf_counter()
        session.telemetry.record(seconds, mj,
                                 wall_seconds=ended - task.started)
        self._record_wall("finalize", ended - started)
        return result


def build_session_graph(config: FusionConfig) -> FusionGraph:
    """The canonical session dataflow for ``config``, with its
    ``graph_overrides`` applied — the exact graph a
    :class:`FusionSession` on this config lowers."""
    graph = FusionGraph.canonical(
        registration=config.registration,
        temporal=config.temporal,
        n_sources=config.n_sources,
    )
    overrides = config.graph_overrides or {}
    for name in overrides.get("drop", ()):
        graph.drop(name)
    for name, engine in (overrides.get("place") or {}).items():
        graph.place(name, engine)
    for anchor, stages in (overrides.get("insert_after") or {}).items():
        if isinstance(stages, Stage):
            stages = (stages,)
        for stage in stages:
            graph.insert_after(anchor, stage)
            anchor = stage.name
    return graph


class FusionSession:
    """A configured capture->register->fuse->monitor loop.

    Parameters
    ----------
    config:
        The session description; defaults to ``FusionConfig()``.
    **overrides:
        Convenience: field overrides applied on top of ``config`` (so
        ``FusionSession(engine="fpga")`` works without building a
        config by hand).  An unknown field name raises
        :class:`~repro.errors.ConfigurationError`.

    The session is a context manager: ``with FusionSession(...) as s``
    guarantees :meth:`close` runs, releasing the built-in capture
    source.  Executor worker threads never outlive a single
    :meth:`stream`/:meth:`run` call either way.
    """

    def __init__(self, config: Optional[FusionConfig] = None, **overrides):
        config = FusionConfig() if config is None else config
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config

        self._binding = binding = bind_engine(config)
        self.decision: Optional[Decision] = binding.decision
        self.scheduler: Optional[OnlineScheduler] = None
        if binding.dynamic:
            self.scheduler = OnlineScheduler(
                binding.engines, probe_frames=config.probe_frames,
                reprobe_every=config.reprobe_every)
        self._engine = binding.engine

        # the serial lane: the compute context of every call that
        # brings none (serial, batch, serving grants, process())
        self._serial = _WorkerContext(self)
        for engine in binding.engines:
            self._serial.lane(engine)

        # one calibrator per non-reference source: each consensus is
        # its own cross-frame state (source s is aligned onto source 0)
        self.calibrators = ([_RigCalibrator(config.levels)
                             for _ in range(config.n_sources - 1)]
                            if config.registration else None)
        self.temporal = (TemporalFusion(fusion=self._serial.lane(self._engine))
                         if config.temporal else None)
        self.monitor = QualityMonitor() if config.monitor else None
        self.telemetry = FrameTelemetry(
            target_fps=config.target_fps,
            energy_budget_mj=config.energy_budget_mj)

        self._planner = Planner()
        self._graph = self._build_graph()
        self.plan = self._planner.lower(self._graph, config, binding)
        self._processor = _SessionProcessor(self, self.plan)
        self._default_source: Optional[CaptureChainSource] = None
        self._frames = 0
        self._next_index = 0
        self._engine_usage: Dict[str, int] = {}
        self._actions: Dict[str, int] = {}
        self._seconds_total = 0.0
        self._millijoules_total = 0.0
        self._shift_total = 0.0
        self._quality_sums: Dict[str, float] = {}
        self._quality_frames = 0
        self._fifo_dropped = 0
        self._decode_errors = 0
        self._batch_records: Optional[List[FusedFrameResult]] = None
        self._last_throughput: Dict[str, object] = {}
        self._concurrent_drive = False
        self._closed = False

    # -- the declarative plan ------------------------------------------
    def _build_graph(self) -> FusionGraph:
        """The canonical pipeline for this config, with the config's
        ``graph_overrides`` applied."""
        return build_session_graph(self.config)

    @property
    def graph(self) -> FusionGraph:
        """The session's standing dataflow, as a *defensive copy*: the
        plan was lowered at construction, so edits here would be
        silently dead — customize via :meth:`canonical_graph` plus
        ``run(graph=...)``/``stream(graph=...)``, or carry edits in
        :attr:`FusionConfig.graph_overrides`."""
        return self._graph.copy()

    def canonical_graph(self) -> FusionGraph:
        """A fresh copy of this session's graph for customization:
        extend it (:meth:`FusionGraph.insert_after`,
        :meth:`FusionGraph.add`), drop or re-place stages, then pass
        it to :meth:`run`/:meth:`stream` as ``graph=``."""
        return self._graph.copy()

    def _processor_for(self, graph: Optional[FusionGraph]
                       ) -> "_SessionProcessor":
        """The session's standing processor, or a one-drive processor
        interpreting ``graph`` lowered against this config."""
        if graph is None:
            return self._processor
        return _SessionProcessor(self, self._planner.lower(
            graph, self.config, self._binding))

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        """The engine in use (most recently selected, if scheduled)."""
        return self._engine

    def _new_fuser(self, engine: Engine) -> ImageFusion:
        """A fresh fusion lane on ``engine`` (every worker context,
        the serial one included, builds its lanes here)."""
        return ImageFusion(
            transform=engine.transform(self.config.levels,
                                       precision=self.config.precision),
            rule=self.config.make_rule())

    @property
    def frames_processed(self) -> int:
        return self._frames

    def capture_source(self) -> CaptureChainSource:
        """The built-in capture chain :meth:`run` consumes (created
        lazily, persisted so repeated runs continue the same stream).

        It is built for ``config.fusion_shape``, so its pairs arrive
        already at the fusion shape: bit for bit what this session's
        resize makes of an unhinted :class:`CaptureChainSource`'s
        full frames, computed from only the pixels that resize reads.
        """
        if self._default_source is None:
            self._default_source = self._new_capture_source()
        return self._default_source

    def _new_capture_source(self) -> CaptureChainSource:
        return CaptureChainSource(
            scene=self.config.make_scene(),
            frame_shape=self.config.fusion_shape.array_shape)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release session-owned resources (idempotent).

        Executor workers are joined at the end of each stream; this
        closes what outlives streams — the persistent capture source.
        """
        if self._closed:
            return
        self._closed = True
        if self._default_source is not None:
            self._default_source.close()

    def __enter__(self) -> "FusionSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _normalize(self, image: np.ndarray, index: int,
                   source: str) -> np.ndarray:
        """Register one modality onto the fusion geometry; mis-typed,
        mis-shaped and non-finite frames are rejected here, before any
        kernel or metric sees them."""
        data = float_frame(image, index, source)
        if data.ndim != 2:
            raise ConfigurationError(
                f"frame {index}, source {source!r}: session input frames "
                f"must be 2-D grayscale, got shape {data.shape}"
            )
        if not np.isfinite(data).all():
            raise FusionError(
                f"frame {index}, source {source!r}: "
                f"{np.count_nonzero(np.isnan(data))} NaN and "
                f"{np.count_nonzero(np.isinf(data))} infinite pixel(s); "
                "fusion needs finite intensities"
            )
        target = self.config.fusion_shape.array_shape
        if data.shape != target:
            data = resize_to(data, target)
        return data

    def _select_engine(self) -> Engine:
        if self.scheduler is not None:
            self._engine = self.scheduler.next_engine()
        return self._engine

    @staticmethod
    def _validate_drive(executor: str, config: FusionConfig) -> None:
        """Reject conflicting executor/tuning combinations loudly.

        Field-level validity is checked eagerly by
        :class:`FusionConfig`; this guards the *combinations* a drive
        is about to run with — which a mutated config or a per-call
        ``executor=`` override can put into conflict — so the failure
        is a clear :class:`FusionError` here instead of a stack trace
        deep inside an executor thread.
        """
        if executor == "batch" and config.batch_size < 1:
            raise FusionError(
                f"executor='batch' conflicts with "
                f"batch_size={config.batch_size}: the batch executor "
                f"needs batch_size >= 1")
        if executor == "pipeline" and config.workers < 1:
            raise FusionError(
                f"executor={executor!r} conflicts with "
                f"workers={config.workers}: concurrent executors need "
                f"workers >= 1")
        if executor != "serial" and config.queue_depth < 1:
            raise FusionError(
                f"executor={executor!r} conflicts with "
                f"queue_depth={config.queue_depth}: frames in flight "
                f"must be bounded by at least 1")

    def _make_executor(self, name: Optional[str] = None) -> Executor:
        """Build the configured executor for one stream drive.

        ``name`` overrides the config's executor for this drive only
        (the config's ``workers``/``queue_depth`` tuning still applies).
        """
        executor = name or self.config.executor
        config = self.config
        self._validate_drive(executor, config)
        return make_executor(executor, workers=config.workers,
                             queue_depth=config.queue_depth,
                             batch_size=config.batch_size)

    def process(self, *frames: np.ndarray,
                timestamp_s: float = 0.0,
                index: Optional[int] = None) -> FusedFrameResult:
        """Fuse one frame group under the configured policies.

        Positional arguments are the source frames in source order —
        the historical ``process(visible, thermal)`` pair, or N frames
        matching ``FusionConfig(n_sources=N)``.  Always executes
        inline on the calling thread, as one ``compute([task])`` call
        on the serial lane, whatever executor the config names for
        streams.  It cannot run while a
        *concurrent* stream is driving this session: the executor's
        capture thread mutates the same ordered state (frame indices,
        scheduler, calibration), so the call is rejected rather than
        racing it.
        """
        if self._concurrent_drive:
            raise ConfigurationError(
                "process() cannot run while a concurrent executor is "
                "driving a stream on this session; finish or abandon "
                "the stream first"
            )
        processor = self._processor
        task = processor.ingest(
            FrameGroup(frames=frames, timestamp_s=timestamp_s), index=0)
        if index is not None:
            task.index = index
        processor.compute([task])
        return processor.finalize(task)

    # ------------------------------------------------------------------
    def stream(self, source, limit: Optional[int] = None,
               executor: Optional[str] = None,
               graph: Optional[FusionGraph] = None
               ) -> Iterator[FusedFrameResult]:
        """Fuse every pair ``source`` yields, as a lazy stream.

        ``source`` may be any :class:`FrameSource` or a plain iterable
        of ``(visible, thermal)`` pairs; ``limit`` stops after that
        many fused frames (needed for infinite sources).  Frames are
        driven by the configured executor (or the ``executor`` named
        here, for this stream only); results arrive in frame order
        regardless of executor.  ``graph`` swaps in a customized
        :class:`~repro.graph.FusionGraph` (usually built from
        :meth:`canonical_graph`) for this stream only — it is lowered
        through the planner against this session's config, and every
        executor interprets the same lowered plan.  The source and any
        executor worker threads are released when the stream ends —
        normally, on error, or when the caller abandons the iterator.

        The stream owns its source for cleanup: ``source.close()``
        runs when the stream ends.  :class:`FrameSource` objects
        default to a no-op close, so the built-in sources (synthetic,
        cameras, capture chain) stay reusable across streams; a plain
        generator passed directly is *closed with the stream* — wrap
        it in a :class:`FrameSource` whose ``close`` you control to
        keep it alive for a later stream.

        A concurrent executor also reads ahead: abandoning its stream
        mid-way (without ``limit``) leaves the source and the
        session's ordered policies (frame indices, scheduler
        observations, calibration) advanced by up to ``queue_depth``
        ingested-but-undelivered frames.  Pass ``limit`` when the
        session continues afterwards — a bounded drive never reads
        past its last delivered frame.
        """
        if limit is not None and limit < 1:
            raise ConfigurationError(
                f"limit must be >= 1 or None, got {limit}"
            )
        src = as_frame_source(source)
        fifo_start = getattr(src, "fifo_dropped", None)
        decode_start = getattr(src, "decode_errors", None)
        driver: Optional[Executor] = None
        try:
            processor = self._processor_for(graph)
            stage_mark = processor.stage_wall_snapshot()
            driver = self._make_executor(executor)
            self._concurrent_drive = driver.concurrent
            # a closed-aware iterator keeps the executor contract
            # (pairs is a real Iterator) while letting the drive see a
            # mid-stream close() and fail loudly instead of pulling
            # from a dead source
            yield from driver.run(processor, ClosedAwareIterator(src),
                                  limit=limit)
        finally:
            self._concurrent_drive = False
            if driver is not None:
                driver.close()
                # every drive overwrites the block, a zero-frame drive
                # included — a batch report must never carry the
                # previous batch's wall-clock numbers
                driver.stats.stage_wall_s, driver.stats.thread_busy_s = \
                    processor.stage_wall_since(stage_mark)
                self._last_throughput = driver.stats.as_dict()
            # fold the transport health of whichever source fed this
            # stream into the session's counters
            if fifo_start is not None:
                self._fifo_dropped += src.fifo_dropped - fifo_start
            if decode_start is not None:
                self._decode_errors += src.decode_errors - decode_start
            src.close()

    def run(self, n_frames: int = 10,
            source: Optional[FrameSource] = None,
            executor: Optional[str] = None,
            graph: Optional[FusionGraph] = None) -> FusionReport:
        """Fuse ``n_frames`` from ``source`` (default: the built-in
        capture chain) and report aggregates for exactly that batch.

        ``executor`` names an execution strategy for this batch only
        (e.g. ``run(64, executor="pipeline")``), otherwise the config's
        executor drives.  ``graph`` swaps in a customized dataflow for
        this batch (see :meth:`stream`).  A finite ``source`` may be
        exhausted before ``n_frames`` are fused; the report's
        ``frames`` then tells the truth and a :class:`RuntimeWarning`
        flags the shortfall.
        """
        if n_frames < 1:
            raise ConfigurationError(
                f"n_frames must be >= 1, got {n_frames}"
            )
        mark = self._snapshot()
        stream_source = source if source is not None else self.capture_source()
        self._batch_records = [] if self.config.keep_records else None
        try:
            for _ in self.stream(stream_source, limit=n_frames,
                                 executor=executor, graph=graph):
                pass
            report = self._report_since(mark)
            report.records = self._batch_records or []
        finally:
            self._batch_records = None
        if report.frames < n_frames:
            warnings.warn(
                f"source exhausted after {report.frames} of the "
                f"{n_frames} requested frames",
                RuntimeWarning, stacklevel=2,
            )
        return report

    def serve(self, source: Optional[FrameSource] = None,
              frames: int = 10,
              pool: Optional[object] = None,
              priority: float = 1.0,
              **service_kwargs) -> FusionReport:
        """Drive this session's *configuration* through the serving
        layer as a single-tenant :class:`repro.serve.FusionService`.

        The N=1 interop with multi-stream serving: the same config,
        graph and plan are served over an engine pool (default: one
        instance of every engine this session may select), and the
        stream's :class:`FusionReport` comes back — bitwise-identical
        frames to :meth:`run` on the same seeded source.  The service
        builds its own private session from the config, so this
        session's accumulated counters stay untouched; ``pool`` and
        ``service_kwargs`` (``max_in_flight``, ``stream_queue_depth``,
        ``workers``) expose the serving knobs for experimentation.
        """
        from ..serve import FusionService

        if source is None:
            source = self._new_capture_source()
        if pool is None:
            if self.scheduler is not None:
                names = [engine.name for engine in self.scheduler.engines]
            else:
                names = [self._engine.name]
            pool = {name: 1 for name in names}
        with FusionService(pool=pool, **service_kwargs) as service:
            service.add_stream("session", config=self.config,
                               source=source, frames=frames,
                               priority=priority)
            report = service.serve()
        return report.streams["session"]

    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, object]:
        return {
            "frames": self._frames,
            "engine_usage": dict(self._engine_usage),
            "actions": dict(self._actions),
            "seconds": self._seconds_total,
            "millijoules": self._millijoules_total,
            "shift": self._shift_total,
            "quality_sums": dict(self._quality_sums),
            "quality_frames": self._quality_frames,
            "fifo": self._fifo_dropped,
            "decode": self._decode_errors,
        }

    def _report_since(self, mark: Dict[str, object]) -> FusionReport:
        frames = self._frames - mark["frames"]
        usage = {
            name: count - mark["engine_usage"].get(name, 0)
            for name, count in self._engine_usage.items()
            if count - mark["engine_usage"].get(name, 0) > 0
        }
        actions = {
            name: count - mark["actions"].get(name, 0)
            for name, count in self._actions.items()
            if count - mark["actions"].get(name, 0) > 0
        }
        quality_frames = self._quality_frames - mark["quality_frames"]
        quality: Dict[str, float] = {}
        if quality_frames:
            quality = {
                key: (total - mark["quality_sums"].get(key, 0.0))
                / quality_frames
                for key, total in self._quality_sums.items()
            }
        return FusionReport(
            frames=frames,
            engine_usage=usage,
            actions=actions,
            model_seconds_total=self._seconds_total - mark["seconds"],
            model_millijoules_total=(self._millijoules_total
                                     - mark["millijoules"]),
            quality=quality,
            alarms=self.monitor.alarms if self.monitor else 0,
            mean_qabf=(self.monitor.mean_qabf()
                       if self.monitor and self.monitor.history else 0.0),
            telemetry=(self.telemetry.summary().as_dict()
                       if self.telemetry.frames else {}),
            registered_shift_px=((self._shift_total - mark["shift"]) / frames
                                 if frames else 0.0),
            fifo_dropped=self._fifo_dropped - mark["fifo"],
            decode_errors=self._decode_errors - mark["decode"],
            # wall-clock stats describe the most recent executor drive
            # (they are measured, not additive across intervals)
            throughput=dict(self._last_throughput),
        )

    def report(self) -> FusionReport:
        """Aggregate report over every frame this session has fused.

        Per-frame records live on each :meth:`run` report (and with
        the consumer of each :meth:`stream`), not here — a lifetime
        list would grow without bound on long-running sessions.
        """
        return self._report_since({
            "frames": 0, "engine_usage": {}, "actions": {},
            "seconds": 0.0, "millijoules": 0.0, "shift": 0.0,
            "quality_sums": {}, "quality_frames": 0,
            "fifo": 0, "decode": 0,
        })
