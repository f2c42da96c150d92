"""Sharded serving: partition, rings, brokered leases, parity, crashes.

The acceptance bars from the sharding issue, as tests:

* **determinism** — fixed seed x any shard count x any worker count =>
  each stream bitwise-identical to its solo run (the single-process
  contract survives the process boundary);
* **exact fleet accounting** — the parent pool's
  ``granted == released + outstanding`` invariant holds across shards
  on success, error, cancel, and a SIGKILLed shard;
* **robustness** — a killed shard's streams are reported failed (never
  hung), its leases are reclaimed, surviving shards complete, and no
  shared-memory segment outlives the service;
* **partition laws** — deterministic, total, balanced (hypothesis).
"""

import glob
import json
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, FusionError
from repro.serve import EnginePool, ShardedFusionService
from repro.serve.shard import (FrameRing, LeaseBroker, ShardAssigner,
                               partition_streams)
from repro.serve.shard.ring import SEGMENT_PREFIX, RingClosed
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape

SMALL = FrameShape(32, 24)
MID = FrameShape(40, 40)

#: the paper-shaped shared inventory (same as the FusionService suite)
POOL = {"arm": 1, "neon": 1, "fpga": 2}


def config(**overrides):
    defaults = dict(engine="neon", fusion_shape=MID, levels=2, seed=5,
                    quality_metrics=False, keep_records=True)
    defaults.update(overrides)
    return FusionConfig(**defaults)


#: mixed ARM + NEON + FPGA workload exercising batch, temporal and
#: registration paths across the heterogeneous inventory
MIXED_WORKLOAD = (
    ("batch-a", dict(engine="neon", executor="batch", batch_size=4,
                     fusion_shape=SMALL), 11),
    ("batch-b", dict(engine="fpga", executor="batch", batch_size=4,
                     fusion_shape=SMALL), 12),
    ("temporal", dict(engine="arm", temporal=True), 13),
    ("registration", dict(engine="fpga", registration=True), 14),
)

_SOLO_CACHE = {}


def solo_results(overrides, seed, frames):
    """The golden reference: the same stream run alone (memoized —
    the references are identical across shard-count parametrizations)."""
    key = (tuple(sorted(overrides.items(), key=str)), seed, frames)
    if key not in _SOLO_CACHE:
        with FusionSession(config(**overrides)) as session:
            _SOLO_CACHE[key] = list(
                session.stream(SyntheticSource(seed=seed), limit=frames))
    return _SOLO_CACHE[key]


def sharded_service(shards, frames=6, **service_kwargs):
    kwargs = dict(pool=POOL, max_in_flight=8, stream_queue_depth=4)
    kwargs.update(service_kwargs)
    service = ShardedFusionService(shards=shards, **kwargs)
    for name, overrides, seed in MIXED_WORKLOAD:
        service.add_stream(name, config=config(**overrides),
                           source=SyntheticSource(seed=seed),
                           frames=frames)
    return service


def shard_segments():
    """Every live shared-memory segment this package created."""
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-*"))


# ----------------------------------------------------------------------
class TestPartition:
    def test_round_robin_over_sorted_names(self):
        placement = partition_streams(["c", "a", "b", "d"], 2)
        assert placement == {"a": 0, "b": 1, "c": 0, "d": 1}

    def test_single_shard_takes_everything(self):
        assert partition_streams(["x", "y"], 1) == {"x": 0, "y": 0}

    def test_rejects_duplicates_and_bad_counts(self):
        with pytest.raises(ConfigurationError):
            partition_streams(["a", "a"], 2)
        with pytest.raises(ConfigurationError):
            partition_streams(["a"], 0)

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.text(min_size=1, max_size=12), min_size=0,
                          max_size=40, unique=True),
           shards=st.integers(min_value=1, max_value=9))
    def test_partition_is_deterministic_total_and_balanced(
            self, names, shards):
        placement = partition_streams(names, shards)
        # deterministic: a function of the name set, not of call order
        assert placement == partition_streams(list(reversed(names)),
                                              shards)
        # total: every stream placed, every target a valid shard
        assert set(placement) == set(names)
        assert all(0 <= shard < shards for shard in placement.values())
        # balanced: no shard holds 2+ more streams than another
        loads = [0] * shards
        for shard in placement.values():
            loads[shard] += 1
        assert max(loads) - min(loads) <= 1

    def test_assigner_balances_under_churn(self):
        assigner = ShardAssigner(3)
        for i in range(9):
            assigner.assign(f"s{i}")
        counts = assigner.live_counts()
        assert max(counts) - min(counts) <= 1
        assigner.release("s0")
        assert assigner.assign("replacement") == assigner.shard_of(
            "replacement")
        counts = assigner.live_counts()
        assert max(counts) - min(counts) <= 1


# ----------------------------------------------------------------------
class TestFrameRing:
    @pytest.fixture()
    def ring(self):
        ring = FrameRing(mp.get_context(), "test", slots=4,
                         slot_bytes=64 * 1024)
        yield ring
        ring.close()

    def test_roundtrip_bitwise_and_in_order(self, ring):
        rng = np.random.default_rng(7)
        sent = []
        for i in range(4):
            arrays = [rng.standard_normal((8, 6)),
                      (rng.standard_normal((8, 6)) * 50).astype(np.float32)]
            sent.append(arrays)
            assert ring.put({"seq": i}, arrays)
        for i in range(4):
            meta, arrays = ring.get()
            assert meta == {"seq": i}
            for ref, got in zip(sent[i], arrays):
                assert got.dtype == ref.dtype
                assert np.array_equal(ref, got)

    def test_empty_payload_message(self, ring):
        assert ring.put({"kind": "end"}, [])
        meta, arrays = ring.get()
        assert meta == {"kind": "end"} and arrays == []

    def test_oversized_message_names_the_knob(self, ring):
        with pytest.raises(ConfigurationError, match="ring_slot_bytes"):
            ring.put({}, [np.zeros((512, 512))])

    def test_full_ring_put_honors_stop(self, ring):
        for i in range(4):
            ring.put({"seq": i}, [])
        t0 = time.monotonic()
        assert ring.put({"seq": 99}, [], should_stop=lambda: True) is False
        assert time.monotonic() - t0 < 2.0
        # nothing was written: the 4 queued messages are intact
        assert ring.get()[0] == {"seq": 0}

    def test_empty_ring_get_honors_stop(self, ring):
        assert ring.get(should_stop=lambda: True) is None

    def test_generation_mismatch_is_detected(self, ring):
        ring.put({"seq": 0}, [])
        # scribble a wrong generation stamp into slot 0
        import struct
        struct.pack_into("<Q", ring._shm.buf, 0, 77)
        with pytest.raises(FusionError, match="generation mismatch"):
            ring.get()

    def test_close_unlinks_and_is_idempotent(self):
        ring = FrameRing(mp.get_context(), "test", slots=2,
                         slot_bytes=4096)
        name = ring.name
        assert os.path.exists(f"/dev/shm/{name}")
        ring.close()
        ring.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        with pytest.raises(RingClosed):
            ring.put({}, [])


# ----------------------------------------------------------------------
class TestShardParity:
    """Fixed seed x any shard count => bitwise-identical to solo."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_mixed_workload_matches_solo_runs(self, shards,
                                              assert_bitwise_parity):
        report = sharded_service(shards, frames=6).serve()
        assert not report.errors
        for name, overrides, seed in MIXED_WORKLOAD:
            assert_bitwise_parity(solo_results(overrides, seed, 6),
                                  report.streams[name].records,
                                  label=f"{name}@shards={shards}")
            assert report.streams[name].frames == 6

    def test_worker_count_is_irrelevant_too(self, assert_bitwise_parity):
        report = sharded_service(2, frames=4, workers=3).serve()
        for name, overrides, seed in MIXED_WORKLOAD:
            assert_bitwise_parity(solo_results(overrides, seed, 4),
                                  report.streams[name].records,
                                  label=f"{name}@workers=3")

    def test_merged_report_shape_matches_single_process(self):
        report = sharded_service(2, frames=4).serve()
        assert set(report.streams) == {n for n, _, _ in MIXED_WORKLOAD}
        assert report.frames_total == 16
        assert report.energy_mj_total == pytest.approx(
            sum(report.energy_mj_by_stream.values()))
        assert report.ledger["balanced"]
        assert report.ledger["totals"]["offered"] == 16
        assert report.admission["admitted_total"] == 16
        assert report.admission["retired_streams"] == 4
        assert set(report.scheduler) == set(report.streams)
        assert report.slo["committed"] == {}
        # the merged metric snapshot carries the shard-side families
        assert "repro_serve_frames_finalized_total" in report.metrics
        assert "repro_serve_aggregate_fps" in report.metrics
        # shard lifecycle shows up in the merged event counts
        assert report.events["counts"]["shard_start"] == 2
        assert report.events["counts"]["attach"] == 4
        assert report.events["counts"]["detach"] == 4
        # and the describe() renderer works on the merged report
        assert "ServiceReport" in report.describe()


# ----------------------------------------------------------------------
class TestLeaseLedger:
    """Fleet-wide granted == released + outstanding, on every path."""

    def test_success_path_balances(self):
        report = sharded_service(2, frames=5).serve()
        pool = report.pool
        assert pool["granted"] == pool["released"]
        assert pool["outstanding"] == 0
        assert pool["granted"] > 0

    def test_cancel_path_balances(self):
        service = sharded_service(2, frames=400)
        service.start()
        time.sleep(0.5)
        service.cancel()
        report = service.wait()
        assert report.cancelled
        pool = report.pool
        assert pool["granted"] == pool["released"]
        assert pool["outstanding"] == 0

    def test_failing_source_still_balances(self):
        class Dies(SyntheticSource):
            def frames(self):
                inner = super().frames()
                for i in range(3):
                    yield next(inner)
                raise RuntimeError("sensor died")

        service = ShardedFusionService(pool=POOL, shards=2)
        service.add_stream("ok", config=config(), frames=6,
                           source=SyntheticSource(seed=1))
        service.add_stream("doomed", config=config(engine="fpga"),
                           frames=6, source=Dies(seed=2))
        report = service.serve()
        # the parent-side source failure is recorded, the stream's
        # delivered frames still fused, and accounting balances
        assert "doomed" in report.errors
        assert report.streams["ok"].frames == 6
        assert report.streams["doomed"].frames == 3
        assert report.ledger["balanced"]
        assert report.pool["granted"] == report.pool["released"]

    def test_shard_kill_reclaims_leases_and_fails_its_streams(self):
        service = sharded_service(2, frames=300)
        service.start()
        time.sleep(0.5)
        victim = service._handles[1]
        victim_streams = [name for name, entry
                          in service._entries.items()
                          if entry.shard == 1]
        assert victim_streams, "partition must give shard 1 streams"
        os.kill(victim.process.pid, signal.SIGKILL)
        report = service.wait()

        # the dead shard's streams failed loudly instead of hanging
        for name in victim_streams:
            assert name in report.errors
            assert "died" in report.errors[name]
        assert "shard[1]" in report.errors
        # the survivors finished their full workload
        for name, entry_shard in ((n, e.shard) for n, e in
                                  service._entries.items()):
            if entry_shard == 0:
                assert report.streams[name].frames == 300
        # every lease the dead shard held came back to the pool
        pool = report.pool
        assert pool["granted"] == pool["released"]
        assert pool["outstanding"] == 0
        # the reclaim is visible in events
        assert report.events["counts"].get("shard_exit", 0) >= 1

    def test_closed_connection_does_not_kill_the_broker(self, monkeypatch):
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        gone, gone_peer = mp.Pipe()
        live, peer = mp.Pipe()
        gone.close()
        broker = LeaseBroker(EnginePool({"neon": 1}), [gone, live]).start()
        try:
            time.sleep(0.3)
            assert broker._thread.is_alive()
            peer.send(("idle", "neon"))
            assert peer.poll(5.0), "the live shard got no reply"
            assert peer.recv() == 1
            assert crashes == []
        finally:
            broker.stop()
            for conn in (gone_peer, live, peer):
                conn.close()


# ----------------------------------------------------------------------
class TestShmCleanup:
    """No shared-memory segment outlives the service — ever."""

    def test_normal_drive_leaks_nothing(self):
        before = shard_segments()
        sharded_service(2, frames=3).serve()
        assert shard_segments() == before

    def test_close_without_wait_leaks_nothing(self):
        before = shard_segments()
        service = sharded_service(2, frames=50)
        service.start()
        time.sleep(0.2)
        service.close()
        assert shard_segments() == before

    def test_sigkilled_shard_leaks_nothing(self):
        before = shard_segments()
        service = sharded_service(2, frames=100)
        service.start()
        time.sleep(0.3)
        os.kill(service._handles[0].process.pid, signal.SIGKILL)
        service.wait()
        assert shard_segments() == before

    def test_start_failure_leaks_nothing(self):
        before = shard_segments()
        # 'doomed' wants an engine the pool does not stock; the shard
        # rejects the attach during start(), which must tear down
        service = ShardedFusionService(pool={"neon": 1, "arm": 1},
                                       shards=2)
        service.add_stream("ok", config=config(), frames=2,
                           source=SyntheticSource(seed=1))
        service.add_stream("doomed", config=config(engine="fpga"),
                           frames=2, source=SyntheticSource(seed=2))
        with pytest.raises(ConfigurationError):
            service.start()
        service.close()
        assert shard_segments() == before


# ----------------------------------------------------------------------
class TestLiveSharded:
    def test_live_attach_detach_and_reap(self):
        service = ShardedFusionService(pool=POOL, shards=2, live=True)
        service.start()
        try:
            service.attach("early", config=config(), frames=3,
                           source=SyntheticSource(seed=3))
            service.attach("late", config=config(engine="fpga"),
                           frames=3, source=SyntheticSource(seed=4))
            # both retire on their own (fixed frame budgets)
            reaped = {}
            deadline = time.monotonic() + 60
            while len(reaped) < 2:
                reaped.update(service.reap())
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert {r.frames for r in reaped.values()} == {3}
            assert service.stream_names() == []
            service.attach("second-wave", config=config(), frames=2,
                           source=SyntheticSource(seed=5))
            report = service.wait()
        finally:
            service.close()
        # reaped streams left the report's stream table but stay in
        # the lifetime totals
        assert set(report.streams) == {"second-wave"}
        assert report.ledger["totals"]["finalized"] == 8
        assert report.pool["granted"] == report.pool["released"]

    def test_detach_returns_the_stream_report(self, assert_bitwise_parity):
        service = ShardedFusionService(pool=POOL, shards=2, live=True)
        service.start()
        try:
            service.attach("cam", config=config(), frames=4,
                           source=SyntheticSource(seed=6))
            # let the fixed budget finish; detach then hands over the
            # completed stream's report (an immediate detach would
            # legitimately stop the feed early, like the solo service)
            with service._cond:
                entry = service._entries["cam"]
            assert entry.retired.wait(timeout=60)
            report = service.detach("cam", timeout=60)
        finally:
            service.close()
        assert report.frames == 4
        assert_bitwise_parity(solo_results({}, 6, 4), report.records,
                              label="detached")

    def test_reap_waits_for_results_behind_the_retirement(
            self, monkeypatch):
        """A retirement (control pipe) can overtake the stream's last
        results (results ring); reap must still hand back every
        record instead of waiting on results it has stopped taking."""
        get = FrameRing.get

        def slow_results(ring, *args, **kwargs):
            if "-out-" in ring.name:
                time.sleep(0.2)
            return get(ring, *args, **kwargs)

        monkeypatch.setattr(FrameRing, "get", slow_results)
        service = ShardedFusionService(pool=POOL, shards=1, live=True)
        service.start()
        reaped = {}

        def reap_until_retired():
            while not reaped:
                reaped.update(service.reap())
                time.sleep(0.02)

        reaper = threading.Thread(target=reap_until_retired, daemon=True)
        try:
            service.attach("cam", config=config(), frames=3,
                           source=SyntheticSource(seed=3))
            reaper.start()
            reaper.join(timeout=30)
            hung = reaper.is_alive()
        finally:
            service.close()  # also releases a reap stuck on the ring
            reaper.join(timeout=10)
        assert not hung
        assert len(reaped["cam"].records) == 3


# ----------------------------------------------------------------------
class TestConstruction:
    def test_rejects_live_pool_instances(self):
        from repro.serve import EnginePool
        with pytest.raises(ConfigurationError):
            ShardedFusionService(pool=EnginePool(POOL), shards=2)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedFusionService(pool=POOL, shards=0)

    def test_context_manager_cleans_up(self):
        before = shard_segments()
        with sharded_service(2, frames=2) as service:
            report = service.serve()
        assert report.frames_total == 8
        assert shard_segments() == before
