"""The shard process: one full :class:`FusionService` behind two rings.

``shard_main`` is the ``Process`` target.  Inside the shard everything
is the battle-tested single-process service — capture threads, the
SLO/energy-fair scheduler, admission, the ledger — with exactly two
substitutions at the edges:

* **frames in**: streams read from :class:`_RingStreamSource` objects
  fed by a dispatcher thread draining the inbound
  :class:`~repro.serve.shard.ring.FrameRing` (the parent owns the real
  sources and pushes pairs as raw bytes);
* **engines**: the pool is a
  :class:`~repro.serve.shard.broker.BrokeredEnginePool`, so every
  lease is granted by the parent's broker and fleet accounting stays
  exact.

The parent sends each stream's validated
:class:`~repro.serve.StreamSpec` (minus its parent-side source and
callback) over the control pipe.  Results (when the parent wants them
— ``keep_records`` or an ``on_result`` callback) leave through the
outbound ring: the :class:`~repro.session.FusedFrameResult` with its
arrays emptied, and the arrays as raw slot bytes — pixels are never
pickled.  Each stream's :class:`~repro.serve.service.Retirement`,
heartbeats and the final drain summary travel over the control pipe;
all shard->parent pipe traffic funnels through one sender thread
because ``Connection.send`` is not safe for concurrent writers.

Determinism: the shard's service serializes per-stream compute and its
engines come from the same registry as a solo run's, so each stream's
output is bitwise-identical to its solo run — sharding relocates the
interpreter, not the arithmetic.
"""

from __future__ import annotations

import copy
import os
import queue
import threading
import time
import traceback
from typing import Callable, Dict, Iterator

from ...errors import ConfigurationError, FusionError
from ...session.report import FusedFrameResult
from ...session.sources import FrameGroup, FrameSource
from ..ops import SLORejection
from ..service import FusionService, Retirement, _StreamState
from .broker import BrokeredEnginePool
from .ring import FrameRing, RingClosed

#: seconds between heartbeats on the control pipe
HEARTBEAT_S = 0.25

#: seconds between stop checks while blocked on a stream queue
TICK_S = 0.05


class _RingStreamSource(FrameSource):
    """A stream's frame source inside the shard: a bounded queue fed
    by the ring dispatcher.

    ``interrupt()`` makes the iterator end (cleanly, as if the source
    were exhausted) — the detach/cancel path out of a capture thread
    blocked waiting for frames the parent will never send.
    """

    def __init__(self, depth: int):
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=depth)
        self._interrupted = threading.Event()

    def push(self, pair: FrameGroup,
             should_stop: Callable[[], bool]) -> bool:
        """Dispatcher-side: enqueue one group (blocking, stop-aware)."""
        while True:
            if self._interrupted.is_set() or should_stop():
                return False
            try:
                self._queue.put(pair, timeout=TICK_S)
                return True
            except queue.Full:
                continue

    def finish(self) -> None:
        """Dispatcher-side: no more frames will arrive (END marker)."""
        self._interrupted.set()

    def interrupt(self) -> None:
        self._interrupted.set()

    def frames(self) -> Iterator[FrameGroup]:
        while True:
            try:
                item = self._queue.get(timeout=TICK_S)
            except queue.Empty:
                if self._interrupted.is_set():
                    return
                continue
            yield item


class _ShardService(FusionService):
    """The in-shard service; retirements are exported to the parent."""

    def __init__(self, *args, retired_sink: Callable[[Retirement], None],
                 **kwargs):
        self._retired_sink = retired_sink
        super().__init__(*args, **kwargs)

    def _retire_locked(self, st: _StreamState,
                       outcome: str) -> Retirement:
        record = super()._retire_locked(st, outcome)
        # never send under the service condition: hand to the sender
        self._retired_sink(record)
        return record


def _result_writer(out_ring: FrameRing, stream: str,
                   stopped: threading.Event):
    """on_result callback shipping each fused frame over the ring: the
    result itself with its arrays emptied, the arrays as slot bytes."""

    def send(result: FusedFrameResult) -> None:
        shell = copy.copy(result)
        shell.frame = copy.copy(result.frame)
        shell.frame.pixels = shell.visible = shell.thermal = None
        shell.extra_sources = ()
        out_ring.put({"kind": "result", "stream": stream, "result": shell},
                     [result.pixels, *result.sources],
                     should_stop=stopped.is_set)
    return send


def shard_main(shard_id: int, control, in_ring: FrameRing,
               out_ring: FrameRing, pool_conn,
               inventory: Dict[str, int],
               options: Dict[str, object]) -> None:
    """Run one shard until the parent drains or cancels it."""
    stopped = threading.Event()
    sends: "queue.Queue[tuple]" = queue.Queue()

    def sender() -> None:
        while True:
            message = sends.get()
            if message is None:
                return
            try:
                control.send(message)
            except (BrokenPipeError, OSError):
                return  # parent gone; nothing left to tell

    send_thread = threading.Thread(target=sender, name="shard-sender",
                                   daemon=True)
    send_thread.start()

    def heartbeat() -> None:
        while not stopped.wait(HEARTBEAT_S):
            sends.put(("heartbeat", {"pid": os.getpid(),
                                     "monotonic_s": time.monotonic()}))

    heart_thread = threading.Thread(target=heartbeat,
                                    name="shard-heartbeat", daemon=True)

    sources: Dict[str, _RingStreamSource] = {}
    sources_lock = threading.Lock()

    def dispatch() -> None:
        """Drain the inbound ring into the per-stream sources."""
        while True:
            try:
                message = in_ring.get(should_stop=stopped.is_set)
            except (RingClosed, FusionError):
                return
            if message is None:
                return
            meta, arrays = message
            with sources_lock:
                source = sources.get(meta["stream"])
            if source is None:
                continue  # stream already gone (detach raced the feed)
            if meta["kind"] == "end":
                source.finish()
                continue
            source.push(
                FrameGroup(frames=tuple(arrays),
                           timestamp_s=meta["timestamp_s"],
                           index=meta["index"]),
                should_stop=stopped.is_set)

    dispatch_thread = threading.Thread(target=dispatch,
                                       name="shard-dispatch", daemon=True)

    try:
        in_ring.attach()
        out_ring.attach()
        pool = BrokeredEnginePool(pool_conn, inventory)
        service = _ShardService(
            pool=pool,
            max_in_flight=options["max_in_flight"],
            stream_queue_depth=options["stream_queue_depth"],
            workers=options.get("workers"),
            live=True,
            shedding=options.get("shedding"),
            slo_headroom=options.get("slo_headroom", 1.0),
            event_capacity=options.get("event_capacity", 4096),
            retired_sink=lambda record: sends.put(("retired", record)),
        )
        service.start()
        dispatch_thread.start()
        heart_thread.start()
        sends.put(("hello", {"pid": os.getpid()}))

        detachers = []
        while True:
            try:
                message = control.recv()
            except (EOFError, OSError):
                # parent died: tear down, never hang as an orphan
                service.cancel()
                break
            op = message[0]
            if op == "attach":
                # the parent validated the spec; this shard binds its
                # ends of the two rings to it
                _, spec, want_results = message
                name = spec.name
                spec.source = _RingStreamSource(
                    depth=options["stream_queue_depth"])
                with sources_lock:
                    sources[name] = spec.source
                if want_results:
                    spec.on_result = _result_writer(out_ring, name, stopped)
                try:
                    service._admit(spec)
                except (SLORejection, ConfigurationError,
                        FusionError) as exc:
                    with sources_lock:
                        sources.pop(name, None)
                    sends.put(("attach_error", name,
                               type(exc).__name__, str(exc)))
                else:
                    sends.put(("attached", name))
            elif op == "detach":
                name = message[1]
                with sources_lock:
                    source = sources.get(name)
                if source is not None:
                    source.interrupt()
                # detach blocks until the stream retires; keep the
                # control loop responsive by running it off-thread
                # (the retirement itself flows through retired_sink)
                worker = threading.Thread(
                    target=_quiet_detach, args=(service, name),
                    name=f"shard-detach-{name}", daemon=True)
                worker.start()
                detachers.append(worker)
            elif op == "reap":
                # the parent holds every retirement record already; drop
                # the shard-side copies so churned streams leave no
                # per-stream residue in the shard process
                service.reap()
            elif op == "cancel":
                with sources_lock:
                    for source in sources.values():
                        source.interrupt()
                service.cancel()
                break
            elif op == "drain":
                break
            else:
                raise FusionError(f"unknown shard control op {op!r}")

        for worker in detachers:
            worker.join(timeout=FusionService.JOIN_TIMEOUT_S)
        report = service.wait()
        sends.put(("drained", {
            "wall_seconds": report.wall_seconds,
            "admission": report.admission,
            "ledger": report.ledger,
            "pool": report.pool,
            "scheduler": report.scheduler,
            "slo": report.slo,
            "shedding": report.shedding,
            "metrics": report.metrics,
            "events": report.events,
            "errors": report.errors,
            "cancelled": report.cancelled,
        }))
    except BaseException:  # noqa: BLE001 - report, then die visibly
        sends.put(("fatal", traceback.format_exc()))
    finally:
        stopped.set()
        sends.put(None)
        send_thread.join(timeout=FusionService.JOIN_TIMEOUT_S)
        in_ring.close()
        out_ring.close()


def _quiet_detach(service: FusionService, name: str) -> None:
    try:
        service.detach(name)
    except (ConfigurationError, FusionError):
        pass  # already retired (or the drive ended first)
