"""Execution-layer contracts: the frame processor and executor interface.

The paper's system is a dataflow per fused frame — capture, two
forward DT-CWTs, coefficient fusion, inverse DT-CWT — followed by
reporting.  This module names that work once, as the
:class:`FrameProcessor` contract, so *how* it is driven (serially,
pipelined across threads, micro-batched) becomes a
swappable :class:`Executor` instead of a loop baked into the session.

Every executor talks to a processor through three calls:
:meth:`FrameProcessor.ingest` (ordered, one frame),
:meth:`FrameProcessor.compute` (every stage between ingest and
finalize, over one or more ingested frames, on one worker context) and
:meth:`FrameProcessor.finalize` (ordered, one frame).  Which stages
run and how they stack is the processor's lowered plan, the same for
every executor; an executor only chooses how many frames one
``compute`` call receives and on which thread it runs.

Determinism is a design invariant, not an accident: every stage's
arithmetic is bound to the frame's selected engine (or the stage's
forced placement), never to the thread that happens to execute it, so
a pipelined or batched schedule produces bitwise-identical frames to
the serial loop.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..errors import ConfigurationError, FusionError


def ensure_source_open(pairs: Any) -> None:
    """Refuse to pull from a source closed mid-drive.

    Sources that really release resources advertise it through a
    ``closed`` attribute (see :class:`repro.session.FrameSource`);
    pulling from one would at best replay garbage and at worst block a
    capture thread forever against the bounded queues, so the drive
    fails loudly with :class:`FusionError` instead.  Plain iterators
    (no ``closed``) are unaffected.  Shared by every executor and by
    the serving layer's capture threads.
    """
    if getattr(pairs, "closed", False):
        raise FusionError(
            "frame source was closed while a stream was still "
            "being driven; close the stream (or exhaust it) "
            "before closing its source")


@dataclass
class ExecStats:
    """Wall-clock throughput of one executor drive.

    These are *measured* quantities — they live alongside, and never
    replace, the modelled time/energy the session accounts per frame.
    An executor times only its drive (``wall_seconds``); the stage
    tables come from the session processor's one record of measured
    stage time, summed two ways: ``stage_wall_s`` per plan stage (or
    fused unit, plus ``ingest`` and ``finalize``) and
    ``thread_busy_s`` per thread.  A processor driven directly by an
    executor, outside a session, leaves both empty.
    """

    executor: str = "serial"
    frames: int = 0
    wall_seconds: float = 0.0
    queue_peak: Dict[str, int] = field(default_factory=dict)
    #: frames each pool thread computed, keyed by thread name (the
    #: same keys as ``thread_busy_s``)
    worker_frames: Dict[str, int] = field(default_factory=dict)
    #: measured seconds per plan stage or fused unit, summed over
    #: frames and threads
    stage_wall_s: Dict[str, float] = field(default_factory=dict)
    #: the same record summed per thread (``MainThread``,
    #: ``exec-capture``, ``exec-compute-0``, ...): how long each
    #: thread spent inside a stage
    thread_busy_s: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_fps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.frames / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        """The stats, plus ``unattributed_s``: per thread, the drive's
        wall time spent outside any stage (pulling the source, waiting
        on a queue, running the executor's loop)."""
        return {
            "executor": self.executor,
            "frames": self.frames,
            "wall_seconds": self.wall_seconds,
            "wall_fps": self.wall_fps,
            "queue_peak": dict(self.queue_peak),
            "worker_frames": dict(self.worker_frames),
            "stage_wall_s": dict(self.stage_wall_s),
            "thread_busy_s": dict(self.thread_busy_s),
            "unattributed_s": {thread: self.wall_seconds - busy
                               for thread, busy
                               in self.thread_busy_s.items()},
        }


class FrameProcessor(ABC):
    """The work of fusing frames, independent of scheduling.

    An executor calls, for every frame: :meth:`ingest` (ordered,
    stateful: normalisation, rig calibration, engine selection), then
    :meth:`compute` on a list of ingested tasks, then :meth:`finalize`
    (ordered, stateful: monitoring, telemetry, aggregation).  Compute
    calls on different contexts may run concurrently unless
    :attr:`sequential` is set; a sequential processor must see every
    task through one lane, in frame order.

    ``ctx`` arguments are opaque worker contexts from
    :meth:`make_contexts`; a context is only ever used by one thread
    at a time, so processors can keep non-thread-safe compute state
    (e.g. the FPGA driver's buffers) per context.
    """

    @property
    def sequential(self) -> bool:
        """True when compute must run in frame order on a single lane
        (a stateful stage sits between ingest and finalize)."""
        return False

    def make_contexts(self, n: int) -> List[Optional[object]]:
        """``n`` opaque per-worker contexts (default: none needed)."""
        return [None] * n

    @abstractmethod
    def ingest(self, pair: Any, index: int) -> Any:
        """Turn a raw frame group into a task (ordered, stateful)."""

    @abstractmethod
    def compute(self, tasks: Sequence[Any],
                ctx: Optional[object] = None) -> None:
        """Run every stage between ingest and finalize on ``tasks``
        (ingested, in frame order) using context ``ctx`` (None: the
        processor's own serial lane).  Implementations must leave each
        task bitwise as one-frame calls would."""

    @abstractmethod
    def finalize(self, task: Any) -> Any:
        """Account the frame and build its result (ordered, stateful)."""


class Executor(ABC):
    """One strategy for driving a :class:`FrameProcessor`.

    ``run`` is a generator: it consumes raw frame groups, routes them
    through ingest, compute and finalize, and yields results *in frame
    order*.
    Implementations own whatever threads/queues they need and must
    release them when the generator is closed early, when a stage
    raises, or when :meth:`close` is called.

    Executors are **one-shot**: an instance drives exactly one stream
    (its stats describe exactly that drive).  A second :meth:`run`
    raises immediately — build a fresh instance per stream, as
    :meth:`FusionSession.stream` does.
    """

    #: registry name ("serial", "pipeline", "batch", ...)
    name: str = "executor"
    #: True when run() drives stages on worker threads (the session
    #: forbids re-entrant process() calls while a concurrent drive is
    #: mutating its ordered state from another thread)
    concurrent: bool = True

    #: seconds between stop-flag checks while blocked on a queue/wait
    TICK_S = 0.05
    #: seconds close() waits for each worker thread to join
    JOIN_TIMEOUT_S = 10.0

    def __init__(self) -> None:
        self.stats = ExecStats(executor=self.name)
        self._used = False
        self._stop = _Flag()
        self._error: Optional[BaseException] = None
        self._error_lock = threading.Lock()
        self._threads: List[threading.Thread] = []

    def _claim(self) -> None:
        """Mark the one permitted drive as taken (called by run())."""
        if self._used:
            raise ConfigurationError(
                f"{type(self).__name__} instances drive exactly one "
                f"stream; create a new executor for the next one")
        self._used = True

    def _fail(self, exc: BaseException) -> None:
        """First-wins error latch: record ``exc`` and begin shutdown.

        Worker threads call this for any exception; the consumer
        re-raises the recorded error once the drive unwinds.
        """
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self._stop.set()

    def _join_all(self) -> None:
        """Stop and join every worker thread (idempotent)."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=self.JOIN_TIMEOUT_S)
        self._threads = []

    #: per-pull guard against a source closed mid-drive (see
    #: :func:`ensure_source_open`)
    _ensure_open = staticmethod(ensure_source_open)

    @abstractmethod
    def run(self, processor: FrameProcessor, pairs: Iterator[Any],
            limit: Optional[int] = None) -> Iterator[Any]:
        """Drive ``pairs`` through the processor; yield ordered
        results."""

    def close(self) -> None:
        """Join worker threads and release queues (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Flag:
    """A set-once boolean shared between executor threads."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        self._event.set()

    def __bool__(self) -> bool:
        return self._event.is_set()
