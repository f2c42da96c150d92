"""The cross-process engine lease protocol.

The whole point of sharding is more interpreters, but the *hardware
inventory stays one inventory*: two shards must never both believe
they hold ``fpga[1]``.  The broker keeps the authoritative
:class:`~repro.serve.EnginePool` in the parent process and exposes the
lease protocol to shards as a tiny RPC over one duplex pipe per shard:

``("try_lease", name)`` -> instance label or ``None``
``("release", label)``  -> ack
``("idle", name)``      -> idle instance count
``("stats",)``          -> this shard's lease accounting

so fleet-wide ``granted == released + outstanding`` holds *exactly* —
it is the parent pool's own invariant, observed through one brain.

Engines themselves never cross the process boundary.  A granted label
is materialized shard-side as a registry-built engine instance
(:func:`~repro.hw.registry.create_engine`), which computes identical
arithmetic to the parent's instance by the registry's determinism
contract — so brokering changes who *accounts* for the silicon, never
what the silicon computes.

Crash containment: each shard's outstanding labels are tracked by
shard id; :meth:`LeaseBroker.reclaim` releases a dead shard's leases
back to the pool so surviving shards can still make progress, and
reports the labels for the ``lease_reclaim`` event.
"""

from __future__ import annotations

import threading
import time
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import ConfigurationError, FusionError
from ...hw.registry import create_engine
from ..pool import EnginePool

#: seconds the broker thread blocks in connection.wait per iteration
_POLL_S = 0.05


class LeaseBroker:
    """Parent-side lease server multiplexing shards onto one pool."""

    def __init__(self, pool: EnginePool,
                 conns: Sequence[Connection]):
        self.pool = pool
        self._conns = list(conns)
        self._alive = {i: True for i in range(len(conns))}
        self._by_conn = {id(conn): i for i, conn in enumerate(conns)}
        #: shard id -> {label: live EngineLease}
        self._outstanding: Dict[int, Dict[str, object]] = \
            {i: {} for i in range(len(conns))}
        self._reclaimed: Dict[int, List[str]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        name="shard-lease-broker",
                                        daemon=True)

    def start(self) -> "LeaseBroker":
        self._thread.start()
        return self

    def _serve(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                for conn in self._conns:
                    if conn.closed:  # waiting on its handle would raise
                        self._alive[self._by_conn[id(conn)]] = False
                live = [conn for conn in self._conns
                        if self._alive[self._by_conn[id(conn)]]]
            if not live:
                return
            try:
                ready = conn_wait(live, timeout=_POLL_S)
            except OSError:  # closed since the snapshot: next pass drops it
                continue
            for conn in ready:
                shard = self._by_conn[id(conn)]
                try:
                    request = conn.recv()
                except (EOFError, OSError):
                    # shard gone: the service's monitor owns reclaim
                    # (it also handles streams/events); just stop
                    # serving this connection
                    with self._lock:
                        self._alive[shard] = False
                    continue
                try:
                    conn.send(self._handle(shard, request))
                except (BrokenPipeError, OSError):
                    with self._lock:
                        self._alive[shard] = False

    def _handle(self, shard: int, request: Tuple) -> object:
        op = request[0]
        if op == "try_lease":
            lease = self.pool.try_lease(request[1])
            if lease is None:
                return None
            with self._lock:
                self._outstanding[shard][lease.label] = lease
            return lease.label
        if op == "release":
            label = request[1]
            with self._lock:
                lease = self._outstanding[shard].pop(label, None)
            if lease is None:
                return False  # reclaimed already (or double release)
            lease.release()
            return True
        if op == "idle":
            return self.pool.idle_count(request[1])
        if op == "stats":
            with self._lock:
                held = sorted(self._outstanding[shard])
            return {"outstanding": held}
        raise FusionError(f"unknown lease-broker op {op!r}")

    # -- crash path ------------------------------------------------------
    def reclaim(self, shard: int) -> List[str]:
        """Release every lease a dead shard still held; returns the
        reclaimed instance labels (idempotent — second call is [])."""
        with self._lock:
            if not self._alive.get(shard, False) \
                    and shard in self._reclaimed:
                return []
            self._alive[shard] = False
            held = self._outstanding.get(shard, {})
            leases = list(held.items())
            held.clear()
            labels = sorted(label for label, _ in leases)
            self._reclaimed[shard] = labels
        for _, lease in leases:
            lease.release()
        return labels

    def outstanding_by_shard(self) -> Dict[int, List[str]]:
        with self._lock:
            return {shard: sorted(held)
                    for shard, held in self._outstanding.items()}

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)


class _BrokeredLease:
    """Shard-side view of one granted lease (EngineLease-compatible)."""

    __slots__ = ("engine", "name", "label", "_pool", "_released",
                 "_acquired_s")

    def __init__(self, pool: "BrokeredEnginePool", engine, label: str):
        self._pool = pool
        self.engine = engine
        self.name = engine.name
        self.label = label
        self._acquired_s = time.perf_counter()
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> bool:
        if self._released:
            return False
        self._released = True
        self._pool._release(self, time.perf_counter() - self._acquired_s)
        return True

    def __enter__(self) -> "_BrokeredLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class BrokeredEnginePool:
    """Shard-side :class:`~repro.serve.EnginePool` stand-in.

    Duck-types the pool surface :class:`~repro.serve.FusionService`
    uses — ``count``/``idle_count``/``try_lease``/``lease``/``stats``/
    ``occupancy``/``close``/``size``/``names`` — but every grant and
    release is an RPC to the parent broker, so the fleet-wide
    accounting lives in exactly one place.  Engine instances are
    created locally (lazily, one per granted label) through the same
    registry the parent pool used; ``id(lease.engine)`` is stable per
    label.
    """

    def __init__(self, conn: Connection, inventory: Dict[str, int]):
        if not inventory:
            raise ConfigurationError("brokered pool needs an inventory")
        self._conn = conn
        self._rpc_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counts = dict(inventory)
        self._engines: Dict[str, object] = {}  # label -> local instance
        self._closed = False
        # shard-local accounting (the parent pool holds the global
        # truth; this is the shard's own view for its report)
        self._granted = 0
        self._released_n = 0
        self._busy_s: Dict[str, float] = {}
        self._frames: Dict[str, int] = {}

    def _rpc(self, *request) -> object:
        with self._rpc_lock:
            if self._closed:
                raise FusionError("engine pool is closed")
            try:
                self._conn.send(request)
                return self._conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise FusionError(
                    f"lease broker unreachable ({exc}); the parent "
                    f"service is gone") from exc

    # -- inventory -------------------------------------------------------
    @property
    def size(self) -> int:
        return sum(self._counts.values())

    def names(self) -> Tuple[str, ...]:
        return tuple(self._counts)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def idle_count(self, name: str) -> int:
        self._check_name(name)
        return int(self._rpc("idle", name))

    def _check_name(self, name: str) -> None:
        if name not in self._counts:
            raise ConfigurationError(
                f"pool has no {name!r} engines; inventory is "
                f"{dict(self._counts)}")

    # -- lease protocol --------------------------------------------------
    def try_lease(self, name: str) -> Optional[_BrokeredLease]:
        self._check_name(name)
        label = self._rpc("try_lease", name)
        if label is None:
            return None
        with self._stats_lock:
            engine = self._engines.get(label)
            if engine is None:
                engine = create_engine(name)
                self._engines[label] = engine
            self._granted += 1
        return _BrokeredLease(self, engine, label)

    def lease(self, name: str,
              timeout: Optional[float] = None) -> _BrokeredLease:
        deadline = (time.perf_counter() + timeout
                    if timeout is not None else None)
        while True:
            lease = self.try_lease(name)
            if lease is not None:
                return lease
            if deadline is not None and time.perf_counter() >= deadline:
                raise FusionError(
                    f"timed out waiting {timeout:.3f}s for an idle "
                    f"{name!r} engine via the lease broker")
            time.sleep(0.002)

    def _release(self, lease: _BrokeredLease, held_s: float) -> None:
        with self._stats_lock:
            self._released_n += 1
            self._busy_s[lease.label] = \
                self._busy_s.get(lease.label, 0.0) + held_s
            self._frames[lease.label] = \
                self._frames.get(lease.label, 0) + 1
        try:
            self._rpc("release", lease.label)
        except FusionError:
            pass  # parent gone: nothing left to account to

    # -- accounting ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._stats_lock:
            return {
                "size": self.size,
                "inventory": dict(self._counts),
                "granted": self._granted,
                "released": self._released_n,
                "outstanding": self._granted - self._released_n,
                "waits": 0,
                "busy_s": dict(self._busy_s),
                "leases": dict(self._frames),
                "brokered": True,
            }

    def occupancy(self, wall_seconds: float) -> Dict[str, float]:
        with self._stats_lock:
            if wall_seconds <= 0:
                return {label: 0.0 for label in self._busy_s}
            return {label: busy / wall_seconds
                    for label, busy in self._busy_s.items()}

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "BrokeredEnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
