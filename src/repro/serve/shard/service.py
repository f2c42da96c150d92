"""`ShardedFusionService`: the process-backed sharding tier.

One interpreter caps aggregate FPS no matter how many worker threads
the single-process :class:`~repro.serve.FusionService` runs — the GIL
serializes the Python half of every stage.  This tier escapes it by
partitioning streams across N *shard processes*, each running a full
``FusionService`` of its own.  The parent is the same
:class:`~repro.serve.service.ServiceFront` as ``FusionService``: it
validates each stream's :class:`~repro.serve.StreamSpec` at attach,
ships it to the stream's shard, and takes back one
:class:`~repro.serve.service.Retirement` per retired stream.  It keeps
the three things that must stay global:

* **sources and results** — the parent owns every stream's
  :class:`~repro.session.FrameSource` and feeds pixel data through
  per-shard shared-memory rings (:mod:`~repro.serve.shard.ring`), so
  frames are memcpy'd, never pickled;
* **the engine inventory** — one parent
  :class:`~repro.serve.EnginePool` behind a lease broker
  (:mod:`~repro.serve.shard.broker`), so ``granted == released +
  outstanding`` holds fleet-wide at every instant;
* **the report** — per-stream retirements, admission/ledger/metrics
  snapshots and events merge into one
  :class:`~repro.serve.ServiceReport` with the same shape a
  single-process drive produces.

Determinism contract (inherited, not re-proven): each shard serializes
per-stream compute and leases registry-built engines, so **fixed seed
x any shard count x any worker count ⇒ each stream bitwise-identical
to its solo run**.  Sharding moves interpreters, never arithmetic.

Failure semantics: shards heartbeat over their control pipes; a dead
shard (detected by pipe EOF, a stale heartbeat, or process exit) has
its leases reclaimed by the broker (``lease_reclaim`` event), its
unretired streams reported as errored — never hung — and the drive
completes on the survivors.  The parent owns every shared-memory
segment and unlinks them all at close (plus an :mod:`atexit`
fallback), so even a SIGKILLed shard leaks nothing.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...errors import ConfigurationError, FusionError
from ...session.report import FusedFrameResult, FusionReport
from ...session.sources import as_frame_source
from ..ops import (EventLog, MetricsRegistry, ShedPolicy, SLORejection,
                   merge_snapshots, render_snapshot)
from ..pool import EnginePool
from ..service import _LEDGER_KEYS, Retirement, ServiceFront, StreamSpec
from .broker import LeaseBroker
from .partition import ShardAssigner, partition_streams
from .ring import CLEANUP, FrameRing
from .worker import HEARTBEAT_S, shard_main

#: ring geometry defaults: 8 slots x 2 MiB holds a 352x288 float64
#: pair (the synthetic default) with headroom; raise ring_slot_bytes
#: for larger frame geometries or wider frame groups (an N-way stream
#: ships N source frames plus the fused result per slot)
DEFAULT_RING_SLOTS = 8
DEFAULT_RING_SLOT_BYTES = 2 * 1024 * 1024

#: exception classes a shard may report back from attach
_ATTACH_ERRORS = {
    "SLORejection": SLORejection,
    "ConfigurationError": ConfigurationError,
    "FusionError": FusionError,
}


class _ShardHandle:
    """Parent-side state of one shard process."""

    def __init__(self, index: int):
        self.index = index
        self.process: Optional[mp.process.BaseProcess] = None
        self.control = None          # parent end of the control pipe
        self.in_ring: Optional[FrameRing] = None
        self.out_ring: Optional[FrameRing] = None
        self.hello = threading.Event()
        self.drained = threading.Event()
        self.final: Optional[Dict[str, object]] = None
        self.fatal: Optional[str] = None
        self.dead = False
        self.death_reason: Optional[str] = None
        self.last_seen = time.monotonic()
        self.pid: Optional[int] = None

    def send(self, message) -> bool:
        try:
            self.control.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False


class _StreamEntry:
    """Parent-side state of one stream (the shard runs the session)."""

    def __init__(self, spec: StreamSpec):
        self.spec = spec
        self.name = spec.name
        self.source = as_frame_source(spec.source)
        self.want_results = (spec.config.keep_records
                             or spec.on_result is not None)
        self.shard: Optional[int] = None
        self.stop = threading.Event()
        self.feeder: Optional[threading.Thread] = None
        self.records: List[FusedFrameResult] = []
        self.result_count = 0
        self.retired = threading.Event()


class ShardedFusionService(ServiceFront):
    """Serve streams across N shard processes over one engine pool.

    The same :class:`~repro.serve.service.ServiceFront` as
    :class:`~repro.serve.FusionService` — ``add_stream``/``attach`` and
    their guards, ``start``/``wait``/``serve``/``close``, the context
    manager, one :class:`~repro.serve.service.Retirement` per retired
    stream, the frame ledger and the report — with each stream's
    grants computed in a shard process.  Per-stream semantics are
    identical.  Admission bounds (``max_in_flight``,
    ``stream_queue_depth``) and the worker count apply *per shard*;
    the merged report's admission block sums the per-shard caps into
    the global budget it actually enforced.

    ``pool`` must be an inventory spec (``{"fpga": 2, ...}`` or a name
    sequence), not a live :class:`EnginePool` — the parent builds the
    authoritative pool so it can broker it across processes.
    """

    #: seconds without any control-pipe message before a shard with a
    #: live process is declared dead anyway
    HEARTBEAT_TIMEOUT_S = 30.0
    #: seconds to wait for a shard to come up
    START_TIMEOUT_S = 120.0

    def __init__(self, pool: Union[Dict[str, int], Sequence[str]],
                 shards: int = 2, max_in_flight: int = 8,
                 stream_queue_depth: int = 4,
                 workers: Optional[int] = None, live: bool = False,
                 shedding: Optional[ShedPolicy] = None,
                 slo_headroom: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None,
                 events: Optional[EventLog] = None,
                 event_capacity: int = 4096,
                 start_method: Optional[str] = None,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 ring_slot_bytes: int = DEFAULT_RING_SLOT_BYTES):
        if isinstance(pool, EnginePool):
            raise ConfigurationError(
                "ShardedFusionService needs the pool *spec* (e.g. "
                "{'fpga': 2}), not a live EnginePool — the parent "
                "builds the pool so it can broker it across processes")
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        super().__init__(live=live, slo_headroom=slo_headroom,
                         metrics=metrics, events=events,
                         event_capacity=event_capacity)
        self.pool = EnginePool(pool)
        self.shards = shards
        self._options = {
            "max_in_flight": max_in_flight,
            "stream_queue_depth": stream_queue_depth,
            "workers": workers,
            "shedding": shedding,
            "slo_headroom": slo_headroom,
            "event_capacity": event_capacity,
        }
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self._ctx = mp.get_context(start_method)
        self._ring_slots = ring_slots
        self._ring_slot_bytes = ring_slot_bytes
        self._entries: Dict[str, _StreamEntry] = {}
        self._assigner = ShardAssigner(shards)
        self._handles: List[_ShardHandle] = []
        self._threads: List[threading.Thread] = []
        self._pending_acks: Dict[str, Dict[str, object]] = {}
        #: failures outside any stream's retirement: a parent-side
        #: source or on_result callback, a dead shard
        self._errors: Dict[str, str] = {}
        self._broker: Optional[LeaseBroker] = None
        self._closing = threading.Event()
        self._g_shards = self.metrics.gauge(
            "repro_serve_live_shards", "Shard processes currently up")
        self._c_reclaims = self.metrics.counter(
            "repro_serve_lease_reclaims_total",
            "Engine leases reclaimed from dead shards")

    # -- registration / churn ---------------------------------------------
    def _attached_locked(self, name: str) -> bool:
        # a name stays taken until reaped: its results may still be
        # on the way back through the ring
        return name in self._entries

    def _admit(self, spec: StreamSpec) -> StreamSpec:
        """Register one validated stream.  On a running live service
        this blocks until the stream's shard acknowledged the attach
        (re-raising its rejection here); pre-start, the checks that
        need the stream's session — SLO feasibility, engine
        availability — run in the shard at :meth:`start`."""
        entry = _StreamEntry(spec)
        with self._cond:
            self._check_attachable_locked(spec.name)
            self._entries[spec.name] = entry
            if self._started:
                entry.shard = self._assigner.assign(spec.name)
        if self._started:
            try:
                self._attach_on_shard(entry)
            except BaseException:
                with self._cond:
                    self._entries.pop(spec.name, None)
                    self._assigner.release(spec.name)
                raise
        return spec

    def _attach_on_shard(self, entry: _StreamEntry) -> None:
        handle = self._handles[entry.shard]
        if handle.dead:
            raise FusionError(
                f"shard {entry.shard} is down ({handle.death_reason}); "
                f"stream {entry.name!r} cannot attach")
        ack = {"event": threading.Event(), "error": None}
        with self._cond:
            self._pending_acks[entry.name] = ack
        # the shard reads frames from its inbound ring and returns
        # results through the outbound one, so it needs neither the
        # source nor the callback, and keeps no records
        shipped = copy.copy(entry.spec)
        shipped.source = shipped.on_result = None
        shipped.config = shipped.config.with_overrides(keep_records=False)
        if not handle.send(("attach", shipped, entry.want_results)):
            self._on_shard_death(handle, "control pipe broken")
            raise FusionError(
                f"shard {entry.shard} died before stream "
                f"{entry.name!r} could attach")
        while not ack["event"].wait(timeout=self.TICK_S):
            if handle.dead:
                raise FusionError(
                    f"shard {entry.shard} died while stream "
                    f"{entry.name!r} was attaching")
        error = ack["error"]
        if error is not None:
            cls_name, text = error
            raise _ATTACH_ERRORS.get(cls_name, FusionError)(text)
        entry.feeder = threading.Thread(
            target=self._feed, args=(entry,),
            name=f"shard-feed-{entry.name}", daemon=True)
        entry.feeder.start()

    def _feed(self, entry: _StreamEntry) -> None:
        """Pump one stream's source into its shard's inbound ring."""
        ring = self._handles[entry.shard].in_ring
        stop = entry.stop

        def stopping() -> bool:
            return stop.is_set() or self._closing.is_set()

        sent = 0
        try:
            iterator = iter(entry.source)
            while entry.spec.frames is None or sent < entry.spec.frames:
                if stopping():
                    return
                try:
                    pair = next(iterator)
                except StopIteration:
                    break
                delivered = ring.put(
                    {"kind": "frame", "stream": entry.name,
                     "index": pair.index,
                     "timestamp_s": pair.timestamp_s},
                    list(pair.frames), should_stop=stopping)
                if not delivered:
                    return
                sent += 1
        except BaseException as exc:  # noqa: BLE001 - crosses threads
            # a failing parent-side source: the stream's shard sees a
            # clean end-of-stream; the failure is reported parent-side
            with self._cond:
                self._errors.setdefault(
                    entry.name, f"{type(exc).__name__}: {exc}")
            self.events.emit("error", entry.name, where="feed",
                             error=f"{type(exc).__name__}: {exc}")
        finally:
            try:
                ring.put({"kind": "end", "stream": entry.name}, [],
                         should_stop=stopping)
            except FusionError:
                pass
            entry.source.close()

    def detach(self, name: str,
               timeout: Optional[float] = None) -> FusionReport:
        """Retire one stream from a running live service (blocking)."""
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        with self._cond:
            entry = self._entries.get(name)
            retired = name in self._retired
        if entry is None:
            raise ConfigurationError(
                f"no stream named {name!r} is attached")
        if not retired:
            self._check_detachable()
            if not self._started:
                self._settle_unstarted(entry)
            else:
                entry.stop.set()
                handle = self._handles[entry.shard]
                if not handle.send(("detach", name)) \
                        and not handle.dead:
                    self._on_shard_death(handle, "control pipe broken")
        while not entry.retired.wait(timeout=self.TICK_S):
            if deadline is not None and time.monotonic() > deadline:
                raise FusionError(
                    f"stream {name!r} did not retire within "
                    f"{timeout:g}s")
        with self._cond:
            record = self._retired[name]
        return self._finish_entry(entry, record, deadline)

    def _settle_unstarted(self, entry: _StreamEntry) -> None:
        """Retire a stream from a never-started service: empty report."""
        entry.source.close()
        self._record_retirement(entry, Retirement(entry.name, "detached"))

    def _finish_entry(self, entry: _StreamEntry, record: Retirement,
                      deadline: Optional[float]) -> FusionReport:
        """Wait for the stream's ring results to drain, then hand the
        report (records reattached) to the caller."""
        report = record.report
        if entry.want_results and record.error is None \
                and not self._handles_dead(entry):
            while entry.result_count < report.frames:
                if self._closing.is_set():
                    # teardown already drained the rings; whatever was
                    # collected is all there will ever be
                    break
                if deadline is not None \
                        and time.monotonic() > deadline:
                    raise FusionError(
                        f"stream {entry.name!r}: results did not drain "
                        f"in time ({entry.result_count} of "
                        f"{report.frames})")
                time.sleep(self.TICK_S / 5)
        if entry.spec.config.keep_records:
            report.records = list(entry.records)
        return report

    def _handles_dead(self, entry: _StreamEntry) -> bool:
        return (entry.shard is not None and self._handles
                and self._handles[entry.shard].dead)

    def reap(self) -> Dict[str, FusionReport]:
        """Collect and forget retired streams' reports (totals survive)."""
        with self._cond:
            done = [(self._entries[name], record)
                    for name, record in self._retired.items()]
        # a stream leaves the registry only once its results are in:
        # the collector drops results of streams it no longer knows
        out = {entry.name: self._finish_entry(entry, record, deadline=None)
               for entry, record in done}
        with self._cond:
            for name in out:
                self._retired.pop(name, None)
                self._entries.pop(name, None)
        if out and self._started and not self._finished:
            # mirror the forget shard-side so churned streams leave no
            # residue in the shard processes either
            for handle in self._handles:
                if not handle.dead:
                    handle.send(("reap",))
        return out

    def stream_names(self) -> List[str]:
        with self._cond:
            return [name for name in self._entries
                    if name not in self._retired]

    # -- shard lifecycle --------------------------------------------------
    def start(self) -> "ShardedFusionService":
        """Spawn the shards and attach every registered stream
        (non-blocking)."""
        with self._cond:
            pre = [e for e in self._entries.values()
                   if e.name not in self._retired]
        self._check_startable(has_streams=bool(pre))
        inventory = {name: self.pool.count(name)
                     for name in self.pool.names()}
        placement = partition_streams([e.name for e in pre], self.shards)
        # seed the live assigner with the closed-form partition so
        # later live attaches balance against the pre-start load
        for name in sorted(placement):
            shard = self._assigner.assign(name)
            assert shard == placement[name]
        for entry in pre:
            entry.shard = placement[entry.name]

        pool_child_ends = []
        control_child_ends = []
        try:
            for index in range(self.shards):
                handle = _ShardHandle(index)
                handle.control, control_child = self._ctx.Pipe(duplex=True)
                pool_parent, pool_child = self._ctx.Pipe(duplex=True)
                handle.pool_parent = pool_parent
                pool_child_ends.append(pool_child)
                control_child_ends.append(control_child)
                handle.in_ring = CLEANUP.track(FrameRing(
                    self._ctx, f"in-{index}", self._ring_slots,
                    self._ring_slot_bytes))
                handle.out_ring = CLEANUP.track(FrameRing(
                    self._ctx, f"out-{index}", self._ring_slots,
                    self._ring_slot_bytes))
                handle.process = self._ctx.Process(
                    target=shard_main,
                    args=(index, control_child, handle.in_ring,
                          handle.out_ring, pool_child, inventory,
                          self._options),
                    name=f"repro-shard-{index}", daemon=True)
                self._handles.append(handle)
            # spawn all children before any parent service thread
            # exists: forking a multithreaded parent risks cloning a
            # held lock into the child
            for handle in self._handles:
                handle.process.start()
            for conn in control_child_ends + pool_child_ends:
                conn.close()
            self._broker = LeaseBroker(
                self.pool,
                [handle.pool_parent for handle in self._handles]).start()
            for handle in self._handles:
                receiver = threading.Thread(
                    target=self._receive, args=(handle,),
                    name=f"shard-recv-{handle.index}", daemon=True)
                collector = threading.Thread(
                    target=self._collect, args=(handle,),
                    name=f"shard-collect-{handle.index}", daemon=True)
                self._threads += [receiver, collector]
                receiver.start()
                collector.start()
            monitor = threading.Thread(target=self._monitor,
                                       name="shard-monitor", daemon=True)
            self._threads.append(monitor)
            monitor.start()
            deadline = time.monotonic() + self.START_TIMEOUT_S
            for handle in self._handles:
                while not handle.hello.wait(timeout=self.TICK_S):
                    if handle.dead or time.monotonic() > deadline:
                        raise FusionError(
                            f"shard {handle.index} failed to start"
                            + (f": {handle.fatal}" if handle.fatal
                               else ""))
                self.events.emit("shard_start", shard=handle.index,
                                 pid=handle.pid)
            self._g_shards.set(self.shards)
            self._started = True
            self._t0 = time.perf_counter()
            for entry in pre:
                self._attach_on_shard(entry)
        except BaseException:
            self._closing.set()
            self._teardown()
            self._finished = True
            raise
        self.events.emit("service", phase="start", live=self.live,
                         shards=self.shards,
                         workers=self._options["workers"] or 0)
        return self

    # -- parent-side shard I/O threads ------------------------------------
    def _receive(self, handle: _ShardHandle) -> None:
        """Demultiplex one shard's control pipe."""
        while True:
            try:
                message = handle.control.recv()
            except (EOFError, OSError):
                if not handle.drained.is_set() \
                        and not self._closing.is_set():
                    self._on_shard_death(handle, "control pipe closed")
                return
            except Exception:
                if self._closing.is_set():
                    return  # teardown closed the pipe mid-recv
                raise
            handle.last_seen = time.monotonic()
            kind = message[0]
            if kind == "hello":
                handle.pid = message[1]["pid"]
                handle.hello.set()
            elif kind == "heartbeat":
                pass  # last_seen already refreshed
            elif kind == "attached":
                self._resolve_ack(message[1], None)
            elif kind == "attach_error":
                self._resolve_ack(message[1], (message[2], message[3]))
            elif kind == "retired":
                record = message[1]
                with self._cond:
                    entry = self._entries.get(record.name)
                if entry is not None:
                    self._record_retirement(entry, record)
            elif kind == "drained":
                handle.final = message[1]
                handle.drained.set()
            elif kind == "fatal":
                handle.fatal = message[1]
                self._on_shard_death(handle, "shard reported a fatal "
                                             "error")

    def _resolve_ack(self, name: str, error) -> None:
        with self._cond:
            ack = self._pending_acks.pop(name, None)
        if ack is not None:
            ack["error"] = error
            ack["event"].set()

    def _record_retirement(self, entry: _StreamEntry,
                           record: Retirement) -> None:
        entry.stop.set()
        with self._cond:
            if entry.retired.is_set():
                return  # a dead shard's streams retire once, as errored
            self._retired[entry.name] = record
            for key in _LEDGER_KEYS:
                self._totals[key] += record.ledger[key]
            if entry.shard is not None:
                try:
                    self._assigner.release(entry.name)
                except KeyError:
                    pass
            entry.retired.set()

    def _collect(self, handle: _ShardHandle) -> None:
        """Drain one shard's results ring back into parent objects."""
        ring = handle.out_ring
        while True:
            try:
                message = ring.get(
                    should_stop=lambda: self._closing.is_set())
            except FusionError:
                return  # ring closed or a dead shard tore a slot
            if message is None:
                return
            meta, arrays = message
            with self._cond:
                entry = self._entries.get(meta["stream"])
            if entry is None:
                continue  # reaped before its last results landed
            result = meta["result"]
            result.frame.pixels = arrays[0]
            result.visible, result.thermal = arrays[1], arrays[2]
            result.extra_sources = tuple(arrays[3:])
            if entry.spec.config.keep_records:
                entry.records.append(result)
            if entry.spec.on_result is not None:
                try:
                    entry.spec.on_result(result)
                except BaseException as exc:  # noqa: BLE001
                    with self._cond:
                        self._errors.setdefault(
                            entry.name,
                            f"on_result: {type(exc).__name__}: {exc}")
            entry.result_count += 1

    def _monitor(self) -> None:
        """Watch shard liveness: process exit and heartbeat staleness."""
        while not self._closing.wait(timeout=HEARTBEAT_S):
            for handle in self._handles:
                if handle.dead or handle.drained.is_set():
                    continue
                # a clean exit (code 0) follows its drained or fatal
                # message, which the receiver reads first
                if handle.process is not None \
                        and handle.process.exitcode not in (None, 0):
                    self._on_shard_death(
                        handle,
                        f"process exited with code "
                        f"{handle.process.exitcode}")
                elif handle.hello.is_set() and \
                        time.monotonic() - handle.last_seen \
                        > self.HEARTBEAT_TIMEOUT_S:
                    self._on_shard_death(handle, "heartbeat timed out")

    def _on_shard_death(self, handle: _ShardHandle, reason: str) -> None:
        """Contain one shard's death: reclaim leases, fail its
        streams, keep the survivors running.  Idempotent."""
        with self._cond:
            if handle.dead:
                return
            handle.dead = True
            handle.death_reason = reason
            orphans = [entry for entry in self._entries.values()
                       if entry.shard == handle.index
                       and entry.name not in self._retired]
        labels = self._broker.reclaim(handle.index) if self._broker \
            else []
        if labels:
            self._c_reclaims.inc(len(labels))
            self.events.emit("lease_reclaim", shard=handle.index,
                             labels=labels, count=len(labels))
        self.events.emit("shard_exit", shard=handle.index, crashed=True,
                         reason=reason)
        self._g_shards.dec()
        error = f"shard {handle.index} died: {reason}"
        with self._cond:
            self._errors[f"shard[{handle.index}]"] = reason
        for entry in orphans:
            self.events.emit("error", entry.name, where="shard",
                             error=error)
            self._record_retirement(entry, Retirement(
                entry.name, "errored", scheduler={"outcome": "errored"},
                error=error))
        handle.drained.set()  # wait() must not block on the dead

    # -- lifecycle --------------------------------------------------------
    def cancel(self) -> None:
        self._cancelled = True
        self.events.emit("service", phase="cancel")
        for handle in self._handles:
            if not handle.dead:
                handle.send(("cancel",))
        with self._cond:
            entries = list(self._entries.values())
        for entry in entries:
            entry.stop.set()

    def _drain(self) -> Dict[str, object]:
        """Drain every shard, join everything, merge the shards'
        report sections."""
        if not self._draining:
            self._draining = True
            self.events.emit("service", phase="drain")
            for handle in self._handles:
                if not handle.dead and not handle.send(("drain",)):
                    self._on_shard_death(handle, "control pipe broken")
        for handle in self._handles:
            while not handle.drained.wait(timeout=self.TICK_S):
                pass
        self._t1 = time.perf_counter()
        with self._cond:
            entries = list(self._entries.values())
        for entry in entries:
            entry.stop.set()
        for entry in entries:
            if entry.feeder is not None:
                entry.feeder.join(timeout=self.JOIN_TIMEOUT_S)
        for handle in self._handles:
            if not handle.dead:
                self.events.emit("shard_exit", shard=handle.index,
                                 crashed=False)
                self._g_shards.dec()
        self._teardown()
        self._finished = True
        with self._cond:
            retired = [(self._entries[name], record)
                       for name, record in self._retired.items()]
            front_errors = dict(self._errors)
        peak_queued: Dict[str, int] = {}
        for entry, record in retired:
            self._finish_entry(entry, record, deadline=None)
            peak = record.report.throughput.get("queue_peak", {})
            peak_queued[entry.name] = int(peak.get("pending", 0))
        finals = self._finals()
        return {"admission": self._merge_admission(finals, peak_queued),
                "committed": _merge_numeric([f["slo"]["committed"]
                                             for f in finals]),
                "shedding": _merge_numeric([f["shedding"] for f in finals
                                            if f["shedding"]]),
                "events": self._merge_events(finals),
                "front_errors": front_errors}

    def _close_unstarted(self) -> None:
        with self._cond:
            entries = list(self._entries.values())
        for entry in entries:
            entry.source.close()
        self.pool.close()

    def _teardown(self) -> None:
        """Join shard processes (escalating to kill), stop parent
        threads, unlink every shared-memory segment."""
        self._closing.set()
        # close the parent pipe ends first: a shard still blocked in
        # recv sees EOF and exits instead of riding out a join timeout
        for handle in self._handles:
            for conn in (handle.control,
                         getattr(handle, "pool_parent", None)):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - already closed
                        pass
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=self.JOIN_TIMEOUT_S)
            if process.is_alive():  # pragma: no cover - stuck shard
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - very stuck
                process.kill()
                process.join(timeout=2.0)
        if self._broker is not None:
            self._broker.stop()
        for thread in self._threads:
            thread.join(timeout=self.JOIN_TIMEOUT_S)
        for handle in self._handles:
            for ring in (handle.in_ring, handle.out_ring):
                if ring is not None:
                    ring.close()
                    CLEANUP.untrack(ring)
        self.pool.close()

    # -- observability ----------------------------------------------------
    def _finals(self) -> List[Dict[str, object]]:
        """The drained shards' closing summaries."""
        return [handle.final for handle in self._handles
                if handle.final is not None]

    def _live_ledger_locked(self) -> Tuple[int, Dict[str, Dict[str, int]]]:
        # a live drive's in-flight frames live inside the shards until
        # retirement; a drained shard reports what it still held
        return (sum(final["ledger"].get("in_flight", 0)
                    for final in self._finals()), {})

    def metrics_text(self) -> str:
        """Prometheus exposition of the merged fleet metrics (after
        :meth:`wait`) or the parent registry (before)."""
        if self._report is not None:
            return render_snapshot(self._report.metrics)
        return self.metrics.render_prometheus()

    # -- report merge -----------------------------------------------------
    def _merge_admission(self, finals: List[Dict],
                         peak_queued: Dict[str, int]) -> Dict[str, object]:
        # counts and per-stream maps sum across shards; per-shard peaks
        # never coincide by construction proof, so their sum is
        # reported as the (conservative) fleet peak
        merged = _merge_numeric(
            [{"in_flight": 0, "peak_in_flight": 0, "queued": {},
              "admitted": {}, "admitted_total": 0, "retired_streams": 0}]
            + [final["admission"] for final in finals])
        merged.update(
            max_in_flight=self._options["max_in_flight"] * len(self._handles),
            stream_queue_depth=self._options["stream_queue_depth"],
            peak_queued=dict(peak_queued),
            per_shard_max_in_flight=self._options["max_in_flight"],
            shards=len(self._handles))
        return merged

    def _metrics_snapshot(self) -> Dict[str, object]:
        #: families the parent computes authoritatively from the
        #: merged report; the shard-local values would double count
        parent_owned = ("repro_serve_aggregate_fps",
                        "repro_serve_engine_occupancy_ratio",
                        "repro_serve_stream_energy_millijoules")
        shard_snapshots = []
        for final in self._finals():
            snapshot = {name: family for name, family
                        in final["metrics"].items()
                        if name not in parent_owned}
            shard_snapshots.append(snapshot)
        return merge_snapshots(shard_snapshots + [self.metrics.snapshot()])

    def _merge_events(self, finals: List[Dict]) -> Dict[str, object]:
        merged = self.events.snapshot()
        counts = dict(merged["counts"])
        total = merged["total"]
        for final in finals:
            snap = final["events"]
            total += snap["total"]
            for kind, count in snap["counts"].items():
                counts[kind] = counts.get(kind, 0) + count
        merged["counts"] = counts
        merged["total"] = total
        return merged


def _merge_numeric(dicts: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum-merge numeric snapshot dicts (recursing into sub-dicts)."""
    merged: Dict[str, object] = {}
    for data in dicts:
        for key, value in data.items():
            if isinstance(value, dict):
                merged[key] = _merge_numeric(
                    [merged.get(key, {}), value])
            elif isinstance(value, bool) or not isinstance(value,
                                                           (int, float)):
                merged[key] = value
            else:
                base = merged.get(key, 0)
                merged[key] = (base if isinstance(base, (int, float))
                               else 0) + value
    return merged
