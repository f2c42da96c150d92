"""The multi-stream fusion service: N sessions over one engine pool.

The paper fuses one video pair on a CPU–FPGA device, picking the SIMD
engine or the FPGA per workload size; the serving question — many
independent streams contending for the same silicon — is where several
engines genuinely run at once (Nunez-Yanez et al., arXiv:1802.03316)
and where per-kernel engine choice shifts with contention (Qasaimeh et
al., arXiv:1906.11879).  :class:`FusionService`
answers it with the pieces the package already has: each stream is a
full :class:`~repro.session.FusionSession` (its own config, graph,
lowered plan, scheduler, calibrator, telemetry), and the service
multiplexes their *plan interpreters* over a shared
:class:`~repro.serve.EnginePool`.

Execution model
---------------
* One **capture thread per stream** pulls pairs from the stream's
  source and runs the plan's ordered head (ingest + registration) in
  frame order — after passing :class:`~repro.serve.AdmissionController`
  (global ``max_in_flight`` cap, bounded per-stream pending queues, so
  backpressure reaches the source instead of growing a buffer).
* A team of **service workers** repeatedly picks the next grant under
  one condition variable.  Streams that declared a
  :class:`~repro.serve.ops.StreamSLO` are ordered by *normalized SLO
  deficit* — seconds behind their target frame schedule, largest
  first — then by the energy-fair key ``charged_mj / weight`` (pool
  energy, modelled J/frame from the planner's cost model, divided in
  proportion to weight), so a best-effort stream never starves a
  tenant with a rate to keep, and equally-behind tenants split energy
  by class.  The worker leases the engine, computes the grant with
  one :meth:`~repro.exec.FrameProcessor.compute` call (one frame or a
  micro-batch; the plan's units decide what stacks),
  finalizes in frame order, then releases the lease — on success,
  error and cancellation alike.

Live operations
---------------
Constructed with ``live=True`` the service becomes an always-on
system: :meth:`attach` admits a new stream against the pool's modelled
capacity *while serving* (infeasible SLOs are rejected with
:class:`~repro.serve.ops.SLORejection` before any resource is bound),
:meth:`detach` retires one tenant without disturbing the others, a
finished stream auto-retires (its report parked for :meth:`reap`),
and a failing stream is *isolated* — its error is recorded, its leases
and admission tickets are returned, healthy tenants keep running.
Under overload a :class:`~repro.serve.ops.ShedPolicy` drops whole
frames of the lowest priority class present (bounded, hysteretic,
never a stream).  Everything is accounted in a per-stream ledger
(``offered == admitted + shed``, ``admitted == finalized + errored +
in-flight`` at every instant) and exported through a
:class:`~repro.serve.ops.MetricsRegistry` (Prometheus text via
:meth:`metrics_text`) and a structured :class:`~repro.serve.ops.EventLog`.

Determinism contract
--------------------
Per-stream compute is serialized (one grant at a time per stream) and
runs through the stream's own session processor, the same
``compute`` a solo session drives; every stage's arithmetic is
bound to the frame's assigned engine — the stream's lanes come from
the same registry factory as the pool's instances — so **with a fixed
seed and any worker count, each stream's output frames are
bitwise-identical to running that stream alone on its leased
engines**.  Concurrency only changes wall-clock
interleaving across streams, never a single output bit; shedding only
ever removes whole frames before ingest, so the frames that *are*
produced keep the contract and the ledger reconciles exactly.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError, FusionError, ReproError
from ..exec.base import ensure_source_open
from ..hw.energy import energy_mj
from ..session.config import FusionConfig
from ..session.report import FusedFrameResult, FusionReport
from ..session.session import FusionSession
from ..session.sources import FrameSource, as_frame_source
from .admission import AdmissionController
from .ops import (BEST_EFFORT, EventLog, MetricsRegistry, ShedPolicy,
                  Shedder, SLORejection, StreamSLO, check_feasible)
from .pool import EngineLease, EnginePool
from .report import ServiceReport

#: placement label the planner gives host-side stages (no engine cost)
_HOST = "host"

#: the empty ledger shape (per stream and for the running totals)
_LEDGER_KEYS = ("offered", "admitted", "shed", "finalized", "errored")


class StreamSpec:
    """One tenant of the service: a named fusion workload.

    Parameters
    ----------
    name:
        Unique stream identity, the key of every per-stream report.
    config:
        The stream's :class:`~repro.session.FusionConfig` — geometry,
        engine/scheduler, features.  ``executor`` is ignored: the
        service *is* the executor (the pool owns the hardware).
    source:
        The stream's :class:`~repro.session.FrameSource` (or plain
        iterable of pairs).
    frames:
        Stop after this many source frames (``None``: run until the
        source is exhausted — never for infinite sources unless the
        stream will be detached).  Shed frames count against the
        limit: they were consumed from the source.
    priority:
        Legacy energy-fair weight (> 0) for streams without an SLO.
        Mutually exclusive with ``slo`` — a declared SLO carries its
        own class weight.
    batch_frames:
        Dispatch granularity: how many pending frames one engine
        grant may drain under a single lease — its units ride stacked
        transforms over the grant, a sequential plan runs the grant
        frame-major in frame order.  Default: the config's
        ``batch_size``.  Set 1 to force per-frame cadence (lowest
        latency); granularity never changes output bits, only
        wall-clock.
    on_result:
        Optional callback invoked with each
        :class:`~repro.session.FusedFrameResult` in frame order.
    slo:
        Optional :class:`~repro.serve.ops.StreamSLO`.  Declaring one
        replaces the static priority weight: admission models whether
        the pool can meet it (else :class:`SLORejection`), and the
        scheduler runs the largest normalized SLO deficit first.
    """

    def __init__(self, name: str, config: FusionConfig,
                 source: FrameSource, frames: Optional[int] = None,
                 priority: float = 1.0,
                 batch_frames: Optional[int] = None,
                 on_result: Optional[Callable[[FusedFrameResult], None]]
                 = None,
                 slo: Optional[StreamSLO] = None):
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"stream name must be a non-empty string, got {name!r}")
        if frames is not None and frames < 1:
            raise ConfigurationError(
                f"stream {name!r}: frames must be >= 1 or None, got "
                f"{frames}")
        if not (priority > 0):
            raise ConfigurationError(
                f"stream {name!r}: priority must be > 0, got {priority}")
        if batch_frames is not None and batch_frames < 1:
            raise ConfigurationError(
                f"stream {name!r}: batch_frames must be >= 1 or None, "
                f"got {batch_frames}")
        if slo is not None and not isinstance(slo, StreamSLO):
            raise ConfigurationError(
                f"stream {name!r}: slo must be a StreamSLO, got "
                f"{type(slo).__name__}")
        if slo is not None and priority != 1.0:
            raise ConfigurationError(
                f"stream {name!r}: give either a priority weight or an "
                f"SLO, not both — the SLO's priority class carries the "
                f"weight")
        self.name = name
        self.config = config
        self.source = source
        self.frames = frames
        self.priority = float(priority)
        self.batch_frames = batch_frames
        self.on_result = on_result
        self.slo = slo

    @property
    def weight(self) -> float:
        """Energy-fair weight: the SLO's class weight, else the
        legacy priority knob."""
        return self.slo.weight if self.slo is not None else self.priority


class _StreamState:
    """Service-side runtime of one stream."""

    def __init__(self, spec: StreamSpec):
        self.spec = spec
        self.name = spec.name
        self.index = 0  # attach order, the scheduling tie-break
        # a private session per tenant: all ordered policies (frame
        # indices, scheduler observations, calibration, telemetry)
        # live here, untouched by other streams
        self.session = FusionSession(spec.config)
        self.processor = self.session._processor
        self.plan = self.session.plan
        self.source = as_frame_source(spec.source)
        self.slo = spec.slo if spec.slo is not None else BEST_EFFORT
        self.pending: Deque[object] = deque()
        self.busy = False
        self.capture_done = False
        self.detach_requested = False
        self.error: Optional[str] = None
        self.dispatched = 0
        self.grants = 0
        self.charged_mj = 0.0
        # the stream ledger (offered == admitted + shed at all times;
        # admitted == finalized + errored once drained)
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.finalized = 0
        self.errored = 0
        self.started_s: Optional[float] = None
        self.ended_s: Optional[float] = None
        self.t_attach: Optional[float] = None  # monotonic; the SLO clock
        self.slo_demand: Dict[str, float] = {}
        self.mark = self.session._snapshot()
        if spec.config.keep_records:
            self.session._batch_records = []
        # sequential plans still take multi-frame grants (the frames
        # run frame-major, in order, under one lease), so a temporal
        # stream does not pay per-frame dispatch overhead either
        self.batch_frames = (spec.batch_frames
                             if spec.batch_frames is not None
                             else spec.config.batch_size)
        self.seconds_by_engine, self.est_mj_per_frame = \
            self._estimate_costs()

    def required_engines(self) -> Tuple[str, ...]:
        """Engine names frames of this stream may be assigned to or
        compute on: the scheduler's whole probe set (online) or the
        session's engine, plus every engine the plan places a stage
        on (a forced ``place`` override)."""
        session = self.session
        if session.scheduler is not None:  # online: the whole probe set
            names = [e.name for e in session.scheduler.engines]
        else:
            names = [session._engine.name]
        return tuple(dict.fromkeys(names + list(self.plan.engines)))

    def _estimate_costs(self) -> Tuple[Dict[str, float], float]:
        """Modelled per-frame cost from the planner's cost model:
        compute seconds split by engine (the SLO feasibility input)
        and total mJ (the energy-fair scheduler's charge per granted
        frame)."""
        power = self.spec.config.power_model
        seconds_by: Dict[str, float] = {}
        mj = 0.0
        for node in self.plan.nodes.values():
            label = node.engine
            if label == _HOST or node.model_seconds <= 0:
                continue
            seconds_by[label] = seconds_by.get(label, 0.0) \
                + node.model_seconds
            mj += energy_mj(node.model_seconds,
                            self.plan.engines[label].power_mode, power)
        return seconds_by, mj

    def deficit_s(self, now: float) -> float:
        """Seconds behind the SLO's target frame schedule (0 for
        best-effort streams; negative when ahead of schedule)."""
        fps = self.slo.target_fps
        if fps <= 0 or self.t_attach is None:
            return 0.0
        return (now - self.t_attach) - self.dispatched / fps

    def ledger(self) -> Dict[str, int]:
        return {"offered": self.offered, "admitted": self.admitted,
                "shed": self.shed, "finalized": self.finalized,
                "errored": self.errored}

    def done(self) -> bool:
        return self.capture_done and not self.pending and not self.busy

    def close(self) -> None:
        """Release the stream's source and session (both idempotent)."""
        self.source.close()
        self.session.close()


@dataclass
class Retirement:
    """One retired stream: how it ended and what it left behind.

    Both service fronts keep one record per retired stream until
    ``reap()``; a shard process sends its records to the parent over
    the control pipe (the report's frame records travel through the
    results ring instead).  ``outcome`` is ``completed``, ``detached``,
    ``errored`` or ``cancelled``; ``ledger`` is the stream's final
    frame ledger and ``violations`` the SLO misses judged at
    retirement.
    """

    name: str
    outcome: str
    report: FusionReport = field(default_factory=FusionReport)
    scheduler: Dict[str, object] = field(default_factory=dict)
    ledger: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_LEDGER_KEYS, 0))
    violations: List[Dict[str, object]] = field(default_factory=list)
    error: Optional[str] = None


class ServiceFront:
    """The stream lifecycle every service front shares.

    :class:`FusionService` runs its streams' grants in this process,
    :class:`~repro.serve.ShardedFusionService` in shard processes; both
    take streams through this one front.  It owns the attach guard and
    :class:`StreamSpec` construction (``add_stream`` is an alias of
    :meth:`attach`), the one-drive rule (``start``, then ``wait`` or
    ``serve``), ``close`` and the context manager, one
    :class:`Retirement` per retired stream, the frame ledger and the
    :class:`ServiceReport` assembly.

    A subclass says where streams run: ``_attached_locked`` (is a name
    taken), ``_admit`` (bind a validated spec and return it),
    ``start``, ``_drain`` (the drive's end, returning the report
    sections only it knows), ``cancel``, ``_close_unstarted`` and
    ``_live_ledger_locked`` (the frames it holds outside any
    retirement).
    """

    #: seconds between stop-flag checks while blocked on the condition
    TICK_S = 0.05
    #: seconds to wait for each service thread to join at shutdown
    JOIN_TIMEOUT_S = 10.0

    def __init__(self, live: bool, slo_headroom: float,
                 metrics: Optional[MetricsRegistry],
                 events: Optional[EventLog], event_capacity: int):
        if not (slo_headroom > 0):
            raise ConfigurationError(
                f"slo_headroom must be > 0, got {slo_headroom}")
        self.live = live
        self.slo_headroom = float(slo_headroom)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None \
            else EventLog(capacity=event_capacity)
        self._cond = threading.Condition()
        self._retired: Dict[str, Retirement] = {}
        self._totals: Dict[str, int] = {k: 0 for k in _LEDGER_KEYS}
        self._started = False
        self._finished = False
        self._cancelled = False
        self._draining = False
        self._t0 = 0.0
        self._t1 = 0.0
        self._report: Optional[ServiceReport] = None
        # report-derived (set when a drive's report is built)
        self._g_fps = self.metrics.gauge(
            "repro_serve_aggregate_fps",
            "Aggregate finalized frames per wall second (end of drive)")
        self._g_occupancy = self.metrics.gauge(
            "repro_serve_engine_occupancy_ratio",
            "Per-instance busy fraction of the drive wall interval")
        self._g_stream_energy = self.metrics.gauge(
            "repro_serve_stream_energy_millijoules",
            "Modelled energy by stream (end of drive)")

    # -- registration -----------------------------------------------------
    def attach(self, name: str, config: Optional[FusionConfig] = None,
               source: Optional[FrameSource] = None,
               frames: Optional[int] = None, priority: float = 1.0,
               batch_frames: Optional[int] = None,
               on_result: Optional[Callable] = None,
               slo: Optional[StreamSLO] = None,
               **config_overrides) -> StreamSpec:
        """Admit one stream: registration before :meth:`start`, runtime
        attach on a running ``live=True`` service.  Returns the
        admitted :class:`StreamSpec` on every front.

        ``config_overrides`` are convenience field overrides applied on
        top of ``config`` (or a default config), mirroring
        :class:`~repro.session.FusionSession`'s constructor.  The
        stream's :class:`StreamSpec` is validated before any resource
        is bound.  Raises :class:`FusionError` once the service is
        draining or closed, and :class:`ConfigurationError` for an
        unknown config field, a duplicate name or on a running
        fixed-workload service (the fixed-workload contract: construct
        with ``live=True`` for runtime attach).
        """
        with self._cond:
            self._check_attachable_locked(name)
        config = FusionConfig() if config is None else config
        if config_overrides:
            config = config.with_overrides(**config_overrides)
        if source is None:
            raise ConfigurationError(
                f"stream {name!r} needs a frame source")
        return self._admit(StreamSpec(
            name=name, config=config, source=source, frames=frames,
            priority=priority, batch_frames=batch_frames,
            on_result=on_result, slo=slo))

    add_stream = attach

    def _check_attachable_locked(self, name: str) -> None:
        if self._finished:
            raise FusionError(
                f"service is closed; create a new {type(self).__name__}")
        if self._draining:
            raise FusionError(
                "service is draining; no further streams may attach")
        if self._started and not self.live:
            raise ConfigurationError(
                "cannot add streams to a service that already started; "
                "construct with live=True for runtime attach")
        if self._attached_locked(name):
            raise ConfigurationError(f"duplicate stream name {name!r}")

    def _check_detachable(self) -> None:
        if self._started and not self.live:
            raise ConfigurationError(
                "detach requires a live service (live=True); a "
                "fixed-workload drive runs its streams to completion")

    # -- lifecycle --------------------------------------------------------
    def _check_startable(self, has_streams: bool) -> None:
        kind = type(self).__name__
        if self._finished:
            raise FusionError(
                f"service is closed; {kind} instances drive exactly "
                f"one serve() — create a new service")
        if self._started:
            raise FusionError(
                f"service already started; {kind} instances drive "
                f"exactly one serve() — create a new service for the "
                f"next drive")
        if not has_streams and not self.live:
            raise ConfigurationError(
                "service has no streams; add_stream() first (or "
                "construct with live=True to attach at runtime)")

    def wait(self) -> ServiceReport:
        """Block until every stream finishes (or the drive stops),
        then return the :class:`ServiceReport`.

        On a live service this *drains*: no further attach is
        admitted, currently attached streams run to completion (an
        endless stream must be detached or the service cancelled
        first).  Re-raises the first service error after releasing
        every resource; live-mode per-stream errors do not raise —
        they are isolated in the report's ``errors``.
        """
        if not self._started:
            raise ConfigurationError("service was never started")
        if self._report is None:
            self._report = self._build_report(**self._drain())
            self.events.emit("service", phase="finish",
                             cancelled=self._cancelled)
        return self._report

    def serve(self) -> ServiceReport:
        """Run every stream to completion and report (blocking)."""
        return self.start().wait()

    def close(self) -> None:
        """Cancel and join (idempotent; never raises stream errors —
        :meth:`wait` is the raising path).  A service that never
        started still releases every added stream here."""
        if self._started and not self._finished:
            self.cancel()
            try:
                self.wait()
            except BaseException:  # noqa: BLE001 - close() must not raise
                pass
        elif not self._started and not self._finished:
            self._finished = True
            self._close_unstarted()
            self.events.emit("service", phase="close")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ledger and report ------------------------------------------------
    def ledger(self) -> Dict[str, object]:
        """The frame-accounting ledger, live at any instant.

        ``totals`` spans the service's whole life (retired streams
        included, reaped ones too); ``balanced`` asserts the
        conservation laws: every offered frame was admitted or shed,
        and every admitted frame is finalized, errored, or still in
        flight.
        """
        with self._cond:
            return self._ledger_locked()

    def _ledger_locked(self) -> Dict[str, object]:
        in_flight, active = self._live_ledger_locked()
        totals = dict(self._totals)
        for entry in active.values():
            for key in _LEDGER_KEYS:
                totals[key] += entry[key]
        balanced = (
            totals["offered"] == totals["admitted"] + totals["shed"]
            and totals["admitted"] == (totals["finalized"]
                                       + totals["errored"] + in_flight))
        streams = {name: dict(record.ledger)
                   for name, record in self._retired.items()}
        streams.update(active)
        return {"totals": totals, "in_flight": in_flight,
                "balanced": balanced, "streams": streams}

    def _metrics_snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot()

    def _build_report(self, admission: Dict[str, object],
                      committed: Dict[str, float],
                      shedding: Dict[str, object],
                      events: Dict[str, object],
                      front_errors: Optional[Dict[str, str]] = None
                      ) -> ServiceReport:
        """One report from the retirements plus the sections only the
        subclass knows; ``front_errors`` are failures seen outside any
        stream's retirement (a stream's own error wins its key)."""
        wall = self._t1 - self._t0
        with self._cond:
            retired = dict(self._retired)
            ledger = self._ledger_locked()
        streams = {name: record.report for name, record in retired.items()}
        energy = {name: report.model_millijoules_total
                  for name, report in streams.items()}
        occupancy = self.pool.occupancy(wall)
        errors = dict(front_errors or {})
        errors.update((name, record.error) for name, record
                      in retired.items() if record.error is not None)
        report = ServiceReport(
            streams=streams,
            wall_seconds=wall,
            frames_total=sum(r.frames for r in streams.values()),
            energy_mj_by_stream=energy,
            energy_mj_total=sum(energy.values()),
            engine_occupancy=occupancy,
            pool=self.pool.stats(),
            admission=admission,
            scheduler={name: dict(record.scheduler)
                       for name, record in retired.items()},
            cancelled=self._cancelled,
            ledger=ledger,
            slo={
                "headroom": self.slo_headroom,
                "committed": committed,
                "violations": {name: list(record.violations)
                               for name, record in retired.items()
                               if record.violations},
            },
            shedding=shedding,
            metrics={},
            events=events,
            errors=errors,
        )
        # report-derived gauges, set before the metrics snapshot: the
        # scrape and the report's own metrics agree with the report's
        # aggregates by construction
        self._g_fps.set(report.aggregate_fps)
        for label, frac in occupancy.items():
            self._g_occupancy.labels(instance=label).set(frac)
        for name, millijoules in energy.items():
            self._g_stream_energy.labels(stream=name).set(millijoules)
        report.metrics = self._metrics_snapshot()
        return report


class FusionService(ServiceFront):
    """Serve many named fusion streams over one shared engine pool.

    Usage::

        service = FusionService(pool={"arm": 1, "neon": 1, "fpga": 2},
                                max_in_flight=8, stream_queue_depth=4)
        service.add_stream("gate-cam", config=FusionConfig(engine="fpga"),
                           source=SyntheticSource(seed=1), frames=64)
        service.add_stream("tower-cam", config=FusionConfig(temporal=True),
                           source=SyntheticSource(seed=2), frames=64,
                           slo=StreamSLO(target_fps=10.0,
                                         priority_class="critical"))
        report = service.serve()          # blocking; or start()/wait()
        report.streams["gate-cam"].model_millijoules_total

    ``workers`` (the service's worker threads) defaults to one per
    engine instance, capped at the CPU count.

    With ``live=True`` the service stays up between streams:
    :meth:`attach`/:meth:`detach` churn tenants at runtime, finished
    streams auto-retire (collect them with :meth:`reap`), and
    :meth:`wait` drains whatever is still attached.  A service
    instance drives exactly one serve/start–wait cycle (mirroring the
    one-shot executors); it is a context manager, and :meth:`cancel`
    ends a drive early with every lease released and every thread
    joined.
    """

    def __init__(self, pool: Union[EnginePool, Dict[str, int], tuple,
                                   list],
                 max_in_flight: int = 8, stream_queue_depth: int = 4,
                 workers: Optional[int] = None, live: bool = False,
                 shedding: Optional[ShedPolicy] = None,
                 slo_headroom: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None,
                 events: Optional[EventLog] = None,
                 event_capacity: int = 4096):
        super().__init__(live=live, slo_headroom=slo_headroom,
                         metrics=metrics, events=events,
                         event_capacity=event_capacity)
        # an EnginePool, anything lease-protocol-compatible (the
        # sharded tier's BrokeredEnginePool duck-types the surface),
        # or a spec to build a pool from
        if isinstance(pool, EnginePool) \
                or callable(getattr(pool, "try_lease", None)):
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = EnginePool(pool)
            self._owns_pool = True
        if workers is None:
            # a worker per engine instance, but no more threads than
            # CPUs: past that they only contend for the interpreter
            workers = min(self.pool.size, os.cpu_count() or 1)
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.admission = AdmissionController(
            self._cond, max_in_flight=max_in_flight,
            stream_queue_depth=stream_queue_depth)
        self.shedder = (Shedder(shedding, max_in_flight)
                        if shedding is not None else None)
        self._streams: Dict[str, _StreamState] = {}
        self._committed: Dict[str, float] = {}
        self._attach_seq = 0
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._error_lock = threading.Lock()
        self._init_metrics()

    def _init_metrics(self) -> None:
        # hot-path series are labelled by engine / priority class only
        # (bounded sets); per-stream series appear exclusively as
        # report-derived gauges, so churn cannot grow the registry
        m = self.metrics
        self._c_frames = m.counter(
            "repro_serve_frames_finalized_total",
            "Fused frames finalized, by priority class")
        self._c_shed = m.counter(
            "repro_serve_frames_shed_total",
            "Frames dropped whole under overload, by priority class")
        self._c_energy = m.counter(
            "repro_serve_energy_millijoules_total",
            "Modelled energy spent, by priority class")
        self._c_leases = m.counter(
            "repro_serve_leases_granted_total",
            "Engine leases granted, by engine")
        self._c_attached = m.counter(
            "repro_serve_streams_attached_total",
            "Streams admitted over the service's life")
        self._c_retired = m.counter(
            "repro_serve_streams_retired_total",
            "Streams retired, by outcome")
        self._c_rejected = m.counter(
            "repro_serve_streams_rejected_total",
            "Streams refused admission (SLO infeasible)")
        self._c_violations = m.counter(
            "repro_serve_slo_violations_total",
            "SLO violations observed at stream retirement, by kind")
        self._g_active = m.gauge(
            "repro_serve_active_streams", "Streams currently attached")
        self._g_inflight = m.gauge(
            "repro_serve_in_flight_frames",
            "Admitted frames not yet finalized")
        self._g_shed_engaged = m.gauge(
            "repro_serve_shedding_engaged",
            "1 while the overload shedder is engaged")
        self._g_committed = m.gauge(
            "repro_serve_slo_committed_utilization",
            "Modelled utilization reserved by admitted SLOs, by engine")
        self._h_latency = m.histogram(
            "repro_serve_frame_seconds",
            "Modelled per-frame compute seconds, by priority class")
        self._h_wall = m.histogram(
            "repro_serve_frame_wall_seconds",
            "Measured per-frame wall latency, by priority class")

    def _telemetry_sink(self, priority_class: str):
        frames = self._c_frames.labels(priority_class=priority_class)
        energy = self._c_energy.labels(priority_class=priority_class)
        latency = self._h_latency.labels(priority_class=priority_class)
        wall_h = self._h_wall.labels(priority_class=priority_class)

        def sink(seconds: float, millijoules: float,
                 wall: Optional[float]) -> None:
            frames.inc()
            energy.inc(millijoules)
            latency.observe(seconds)
            if wall is not None:
                wall_h.observe(wall)
        return sink

    # -- registration / churn ---------------------------------------------
    def _attached_locked(self, name: str) -> bool:
        return name in self._streams

    def _admit(self, spec: StreamSpec) -> StreamSpec:
        """Bind a validated stream to the service.

        The stream's session is built, validated against the pool's
        inventory, and — when it declares an SLO — checked for
        feasibility against the pool's modelled capacity *after* every
        already-admitted SLO is charged (else :class:`SLORejection`).
        On a running live service the capture thread starts
        immediately; other tenants are never paused.
        """
        name = spec.name
        # session construction is heavy: do it outside the condition,
        # then re-validate registration under it
        state = _StreamState(spec)
        missing = [engine for engine in state.required_engines()
                   if self.pool.count(engine) == 0]
        if missing:
            state.close()
            raise ConfigurationError(
                f"stream {name!r} may select engine(s) {missing} but "
                f"the pool only holds {dict(self.pool.stats()['inventory'])}; "
                f"add instances or pin the stream to a pooled engine")
        # a grant can never need more frames than admission allows to
        # accumulate, or batch-ready dispatch would deadlock against
        # the very bounds that protect the service
        state.batch_frames = min(state.batch_frames,
                                 self.admission.stream_queue_depth,
                                 self.admission.max_in_flight)
        state.session.telemetry.sink = \
            self._telemetry_sink(state.slo.priority_class)
        with self._cond:
            try:
                self._check_attachable_locked(name)
                pool_counts = {engine: self.pool.count(engine)
                               for engine in state.seconds_by_engine}
                state.slo_demand = check_feasible(
                    name, state.slo, state.seconds_by_engine,
                    state.est_mj_per_frame, pool_counts,
                    self._committed, headroom=self.slo_headroom)
            except (SLORejection, ConfigurationError, FusionError) as exc:
                state.close()
                self._c_rejected.inc()
                self.events.emit("reject", name, reason=str(exc))
                raise
            for engine, demand in state.slo_demand.items():
                self._committed[engine] = \
                    self._committed.get(engine, 0.0) + demand
            state.index = self._attach_seq
            self._attach_seq += 1
            self.admission.register(name)
            self._streams[name] = state
            state.t_attach = time.monotonic()
            self._c_attached.inc()
            self._g_active.set(len(self._streams))
            self.events.emit(
                "attach", name, index=state.index,
                priority_class=state.slo.priority_class,
                target_fps=state.slo.target_fps, weight=spec.weight)
            if self._started:
                self._threads = [t for t in self._threads if t.is_alive()]
                thread = threading.Thread(
                    target=self._capture, args=(state,),
                    name=f"serve-capture-{name}", daemon=True)
                self._threads.append(thread)
                thread.start()
            self._cond.notify_all()
        return spec

    def detach(self, name: str,
               timeout: Optional[float] = None) -> FusionReport:
        """Retire one stream from a running live service and return
        its :class:`~repro.session.FusionReport`.

        Frames already admitted drain first (nothing is torn down
        mid-flight); the stream's capture stops, its leases return,
        its SLO reservation is released, and every other tenant keeps
        running undisturbed.  Blocks until the stream retired (or
        ``timeout`` seconds elapsed — then :class:`FusionError`).
        """
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        with self._cond:
            st = self._streams.get(name)
            if st is None:
                if name in self._retired:
                    return self._retired[name].report
                raise ConfigurationError(
                    f"no stream named {name!r} is attached")
            self._check_detachable()
            st.detach_requested = True
            self._cond.notify_all()
            if not self._started:
                # never ran: retire synchronously, report is empty
                return self._retire_locked(st, outcome="detached").report
            while name in self._streams:
                if self._error is not None:
                    raise self._error
                self._cond.wait(timeout=self.TICK_S)
                if deadline is not None and time.monotonic() > deadline:
                    raise FusionError(
                        f"stream {name!r} did not retire within "
                        f"{timeout:g}s")
            return self._retired[name].report

    def reap(self) -> Dict[str, FusionReport]:
        """Collect and forget retired streams' reports.

        The live-churn memory contract: everything per-stream — the
        :class:`Retirement` record, kept queue peaks — is handed to the
        caller or dropped from the service, so a service churning
        thousands of streams stays flat.  Aggregate totals (ledger,
        counters, event counts) survive.
        """
        with self._cond:
            retired, self._retired = self._retired, {}
            for name in retired:
                self.admission.forget(name)
        return {name: record.report for name, record in retired.items()}

    def stream_names(self) -> List[str]:
        """Names of currently attached (not yet retired) streams."""
        with self._cond:
            return list(self._streams)

    # -- error/stop plumbing ----------------------------------------------
    def _fail(self, exc: BaseException) -> None:
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self._stop.set()
        with self._cond:
            self._cond.notify_all()

    def _stream_failed_locked(self, st: _StreamState, exc: BaseException,
                              where: str) -> None:
        """Live-mode isolation: record the stream's error, stop its
        capture, discard its undispatched frames (tickets returned),
        and let it retire — without touching any other tenant."""
        if st.error is None:
            st.error = f"{type(exc).__name__}: {exc}"
            self.events.emit("error", st.name, where=where,
                             error=st.error)
        st.detach_requested = True
        self._return_pending_locked(st)
        self._cond.notify_all()

    # -- capture (one thread per stream) ----------------------------------
    def _capture(self, st: _StreamState) -> None:
        produced = 0
        limit = st.spec.frames

        def stop() -> bool:
            return self._stop.is_set() or st.detach_requested

        try:
            iterator = iter(st.source)
            while not stop() and (limit is None or produced < limit):
                if self.shedder is not None:
                    with self._cond:
                        shed_now = self.shedder.should_shed(
                            st.name, st.slo.rank,
                            self._lowest_rank_locked(),
                            st.offered, st.shed,
                            self.admission.in_flight)
                        self._g_shed_engaged.set(
                            1.0 if self.shedder.engaged else 0.0)
                else:
                    shed_now = False
                if shed_now:
                    # drop the next frame whole, before ingest: it is
                    # simply absent from the output, never partial
                    try:
                        ensure_source_open(st.source)
                    except FusionError as exc:
                        raise FusionError(
                            f"stream {st.name!r}: {exc}") from None
                    try:
                        next(iterator)
                    except StopIteration:
                        return
                    with self._cond:
                        st.offered += 1
                        st.shed += 1
                        self.shedder.record(st.name)
                    self._c_shed.labels(
                        priority_class=st.slo.priority_class).inc()
                    self.events.emit("shed", st.name, index=produced)
                    produced += 1
                    continue
                if not self.admission.admit(st.name, stop):
                    return  # cancelled/detached while backpressured
                try:
                    try:
                        ensure_source_open(st.source)
                    except FusionError as exc:
                        raise FusionError(
                            f"stream {st.name!r}: {exc}") from None
                    pair = next(iterator)
                    try:
                        task = st.processor.ingest(pair, produced)
                    except ReproError as exc:
                        # name the tenant, as a closed source does
                        raise type(exc)(
                            f"stream {st.name!r}: {exc}") from exc
                except StopIteration:
                    # the admission ticket was never attached to a frame
                    with self._cond:
                        self.admission.retract(st.name)
                    return
                except BaseException:
                    # a failing source/ingest must return its ticket
                    # too, or the budget leaks one admission forever
                    with self._cond:
                        self.admission.retract(st.name)
                    raise
                now = time.perf_counter()
                with self._cond:
                    if stop():
                        # detached/cancelled between admit and append:
                        # the ticket never becomes a frame
                        self.admission.retract(st.name)
                        return
                    if st.started_s is None:
                        st.started_s = now
                    st.offered += 1
                    st.admitted += 1
                    st.pending.append(task)
                    self._cond.notify_all()
                produced += 1
        except BaseException as exc:  # noqa: BLE001 - crosses threads
            if self.live:
                with self._cond:
                    self._stream_failed_locked(st, exc, where="capture")
            else:
                self._fail(exc)
        finally:
            with self._cond:
                st.capture_done = True
                self._cond.notify_all()

    # -- dispatch ---------------------------------------------------------
    def _all_done_locked(self) -> bool:
        return all(st.done() for st in self._streams.values())

    def _lowest_rank_locked(self) -> int:
        """Rank of the least important priority class attached
        (larger = less important) — only that class may shed."""
        return max((st.slo.rank for st in self._streams.values()),
                   default=0)

    def _select_locked(self) -> Optional[Tuple[_StreamState, List[object],
                                               EngineLease]]:
        """The SLO-deficit pick: among dispatchable streams, the one
        furthest behind its target frame schedule; ties (and all
        best-effort streams, whose deficit is zero) fall back to the
        energy-fair key — lowest charged-energy-per-weight, charged
        at the planner's modelled cost.  Grants drain up to
        ``batch_frames`` same-engine frames.  Caller holds the
        service condition.

        A batchable stream is preferred once *batch-ready* (a full
        micro-batch pending, or its capture finished), so the stacked
        transforms actually see full stacks; but when the global
        admission budget is saturated the best partial batch runs
        instead — waiting for frames that admission will never admit
        would deadlock the service against its own backpressure.
        """
        now = time.monotonic()
        best: Optional[_StreamState] = None
        best_key = None
        partial: Optional[_StreamState] = None
        partial_key = None
        for st in self._streams.values():
            if st.busy or not st.pending:
                continue
            engine_name = st.pending[0].engine.name
            if self.pool.idle_count(engine_name) == 0:
                continue  # contended: revisit when a lease returns
            key = (-st.deficit_s(now),
                   st.charged_mj / st.spec.weight, st.dispatched,
                   st.index)
            if st.capture_done or len(st.pending) >= st.batch_frames:
                if best is None or key < best_key:
                    best, best_key = st, key
            elif partial is None or key < partial_key:
                partial, partial_key = st, key
        if best is None:
            saturated = (self.admission.in_flight
                         >= self.admission.max_in_flight)
            best = partial if saturated else None
        if best is None:
            return None
        engine_name = best.pending[0].engine.name
        take = 1
        while (take < best.batch_frames and take < len(best.pending)
               and best.pending[take].engine.name == engine_name):
            take += 1
        lease = self.pool.try_lease(engine_name)
        if lease is None:  # pragma: no cover - guarded by idle_count
            return None
        tasks = [best.pending.popleft() for _ in range(take)]
        best.busy = True
        best.dispatched += take
        best.grants += 1
        best.charged_mj += take * best.est_mj_per_frame
        self.admission.on_dispatch(best.name, take)
        self._c_leases.labels(engine=engine_name).inc()
        self.events.emit("lease", best.name, engine=engine_name,
                         frames=take)
        return best, tasks, lease

    def _compute(self, st: _StreamState, tasks: List[object],
                 progress: List[int]) -> None:
        """Drive one grant: one ``compute`` over its frames, then
        ordered finalize — the per-stream batch interpretation of its
        plan, held under the engine lease.  The grant computes on the
        stream's private lanes (per-stream compute is serialized, so
        nothing else touches them); the lease accounts the engine's
        capacity and occupancy for as long as the grant holds it.
        ``progress[0]`` counts frames actually finalized, so an error
        mid-grant is charged to exactly the frames it lost."""
        processor = st.processor
        processor.compute(tasks)
        for task in tasks:
            result = processor.finalize(task)
            progress[0] += 1
            if st.spec.on_result is not None:
                st.spec.on_result(result)

    def _worker(self, slot: int) -> None:
        try:
            while True:
                grant = None
                with self._cond:
                    while grant is None:
                        if self._stop.is_set():
                            return
                        self._reap_done_locked()
                        if self._drained_locked():
                            return
                        grant = self._select_locked()
                        if grant is None:
                            self._cond.wait(timeout=self.TICK_S)
                st, tasks, lease = grant
                progress = [0]
                error: Optional[BaseException] = None
                try:
                    self._compute(st, tasks, progress)
                except BaseException as exc:  # noqa: BLE001
                    if not self.live:
                        raise
                    error = exc
                finally:
                    lease.release()
                    now = time.perf_counter()
                    with self._cond:
                        st.busy = False
                        st.finalized += progress[0]
                        st.errored += len(tasks) - progress[0]
                        st.ended_s = now
                        self.admission.on_done(st.name, len(tasks))
                        if error is not None:
                            self._stream_failed_locked(st, error,
                                                       where="compute")
                        self._reap_done_locked()
                        self._cond.notify_all()
        except BaseException as exc:  # noqa: BLE001 - crosses threads
            self._fail(exc)

    def _drained_locked(self) -> bool:
        """May a worker exit?  A live service idles between streams
        until :meth:`wait` starts the drain; a fixed drive exits when
        every stream retired."""
        if self.live and not self._draining:
            return False
        return self._all_done_locked()

    # -- retirement -------------------------------------------------------
    def _reap_done_locked(self) -> None:
        if self._error is not None:
            return  # the failing drive tears down in wait()
        for name in [n for n, s in self._streams.items() if s.done()]:
            st = self._streams[name]
            if st.error is not None:
                outcome = "errored"
            elif st.detach_requested:
                outcome = "detached"
            else:
                outcome = "completed"
            self._retire_locked(st, outcome)

    def _retire_locked(self, st: _StreamState,
                       outcome: str) -> Retirement:
        """Move one stream from active to retired: fold its ledger
        into the totals, release its SLO reservation, deregister it
        from admission, close its session/source, park its
        :class:`Retirement`.  Caller holds the service condition."""
        peak_queue = self.admission.deregister(st.name)
        for engine, demand in st.slo_demand.items():
            left = self._committed.get(engine, 0.0) - demand
            if left > 1e-12:
                self._committed[engine] = left
            else:
                self._committed.pop(engine, None)
        if self.shedder is not None:
            self.shedder.forget(st.name)
        entry = st.ledger()
        for key in _LEDGER_KEYS:
            self._totals[key] += entry[key]
        record = Retirement(
            name=st.name, outcome=outcome,
            report=self._stream_report(st, peak_queue),
            scheduler={
                "grants": st.grants,
                "dispatched": st.dispatched,
                "charged_mj": st.charged_mj,
                "est_mj_per_frame": st.est_mj_per_frame,
                "priority": st.spec.priority,
                "weight": st.spec.weight,
                "priority_class": st.slo.priority_class,
                "target_fps": st.slo.target_fps,
                "outcome": outcome,
            },
            ledger=entry, violations=self._check_slo_locked(st),
            error=st.error)
        self._retired[st.name] = record
        del self._streams[st.name]
        st.close()
        self._c_retired.labels(outcome=outcome).inc()
        self._g_active.set(len(self._streams))
        self.events.emit("detach", st.name, outcome=outcome,
                         finalized=entry["finalized"],
                         shed=entry["shed"], errored=entry["errored"],
                         violations=len(record.violations))
        self._cond.notify_all()
        return record

    def _check_slo_locked(self, st: _StreamState) \
            -> List[Dict[str, object]]:
        """Judge a retiring stream against its declared SLO; counts,
        logs and returns any violations (informational — the stream
        still retires normally)."""
        violations: List[Dict[str, object]] = []
        slo = st.slo
        wall = ((st.ended_s - st.started_s)
                if st.started_s is not None and st.ended_s is not None
                else 0.0)
        if slo.target_fps > 0 and wall > 0 and st.finalized > 0:
            achieved = st.finalized / wall
            if achieved + 1e-9 < slo.target_fps:
                violations.append({"kind": "fps",
                                   "target": slo.target_fps,
                                   "achieved": achieved})
        if slo.latency_budget_s is not None \
                and st.session.telemetry._wall:
            p95 = st.session.telemetry._percentile(
                st.session.telemetry._wall, 0.95)
            if p95 > slo.latency_budget_s:
                violations.append({"kind": "latency",
                                   "budget_s": slo.latency_budget_s,
                                   "wall_p95_s": p95})
        for violation in violations:
            self._c_violations.labels(kind=violation["kind"]).inc()
            payload = {("violation" if key == "kind" else key): v
                       for key, v in violation.items()}
            self.events.emit("slo_violation", st.name, **payload)
        return violations

    def _return_pending_locked(self, st: _StreamState) -> None:
        """Give a stream's undispatched frames back to the admission
        budget; they retire as errored (never finalized)."""
        discarded = len(st.pending)
        if discarded:
            st.pending.clear()
            st.errored += discarded
            self.admission.on_dispatch(st.name, discarded)
            self.admission.on_done(st.name, discarded)

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "FusionService":
        """Launch capture threads and the worker team (non-blocking)."""
        self._check_startable(has_streams=bool(self._streams))
        self._started = True
        self._t0 = time.perf_counter()
        with self._cond:
            now = time.monotonic()
            for st in self._streams.values():
                st.t_attach = now  # the SLO clock starts at serve time
            self._threads = [
                threading.Thread(target=self._capture, args=(st,),
                                 name=f"serve-capture-{st.name}",
                                 daemon=True)
                for st in self._streams.values()
            ] + [
                threading.Thread(target=self._worker, args=(slot,),
                                 name=f"serve-worker-{slot}", daemon=True)
                for slot in range(self.workers)
            ]
            for thread in self._threads:
                thread.start()
        self.events.emit("service", phase="start", live=self.live,
                         workers=self.workers)
        return self

    def cancel(self) -> None:
        """End the drive early; leases are released and threads join
        in :meth:`wait`/:meth:`close`."""
        self._cancelled = True
        self._stop.set()
        self.events.emit("service", phase="cancel")
        with self._cond:
            self._cond.notify_all()

    def _drain(self) -> Dict[str, object]:
        with self._cond:
            if not self._draining:
                self._draining = True
                self.events.emit("service", phase="drain")
            self._cond.notify_all()
        try:
            # workers exit on their own when all streams are done;
            # nudge them awake in case a notify was missed
            while (any(t.is_alive() for t in self._threads)
                   and not self._stop.is_set()):
                with self._cond:
                    self._cond.notify_all()
                for thread in self._threads:
                    thread.join(timeout=self.TICK_S)
            for thread in self._threads:
                thread.join(timeout=self.JOIN_TIMEOUT_S)
        finally:
            self._t1 = time.perf_counter()
            self._finished = True
            with self._cond:
                if self._error is None:
                    # cancelled drives retire leftovers here, with
                    # their undispatched tickets returned, so the
                    # ledger and admission balance exactly
                    for st in list(self._streams.values()):
                        self._return_pending_locked(st)
                        outcome = ("cancelled" if self._cancelled
                                   else "completed")
                        self._retire_locked(st, outcome)
                else:
                    for st in self._streams.values():
                        st.close()
            if self._owns_pool:
                self.pool.close()
        if self._error is not None:
            raise self._error
        return {"admission": self.admission.snapshot(),
                "committed": dict(self._committed),
                "shedding": (self.shedder.snapshot()
                             if self.shedder is not None else {}),
                "events": self.events.snapshot()}

    def _close_unstarted(self) -> None:
        for st in self._streams.values():
            st.close()
        if self._owns_pool:
            self.pool.close()

    # -- observability ----------------------------------------------------
    def _live_ledger_locked(self) -> Tuple[int, Dict[str, Dict[str, int]]]:
        return (self.admission.in_flight,
                {name: st.ledger() for name, st in self._streams.items()})

    def metrics_text(self) -> str:
        """The registry as Prometheus text exposition, with the
        point-in-time gauges refreshed first — the scrape endpoint's
        body (and ``repro serve --metrics-out``)."""
        with self._cond:
            self._g_active.set(len(self._streams))
            self._g_inflight.set(self.admission.in_flight)
            if self.shedder is not None:
                self._g_shed_engaged.set(
                    1.0 if self.shedder.engaged else 0.0)
            for engine, demand in self._committed.items():
                self._g_committed.labels(engine=engine).set(demand)
        return self.metrics.render_prometheus()

    # -- reporting --------------------------------------------------------
    def _stream_report(self, st: _StreamState,
                       peak_queue: int) -> FusionReport:
        report = st.session._report_since(st.mark)
        report.records = st.session._batch_records or []
        wall = ((st.ended_s - st.started_s)
                if st.started_s is not None and st.ended_s is not None
                else 0.0)
        report.throughput = {
            "executor": "serve",
            "frames": st.finalized,
            "wall_seconds": wall,
            "wall_fps": st.finalized / wall if wall > 0 else 0.0,
            "grants": st.grants,
            "batch_frames": st.batch_frames,
            "queue_peak": {"pending": peak_queue},
            "charged_mj": st.charged_mj,
            "priority": st.spec.priority,
            "priority_class": st.slo.priority_class,
            "shed": st.shed,
            "errored": st.errored,
            "stage_wall_s": st.processor.stage_wall_since()[0],
        }
        return report
