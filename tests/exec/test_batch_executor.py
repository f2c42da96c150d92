"""The batch executor: serial parity, micro-batch semantics, lifecycle."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import BatchExecutor, make_executor
from repro.exec.base import FrameProcessor
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape

SMALL = FrameShape(40, 40)


def small_config(**overrides):
    defaults = dict(engine="neon", fusion_shape=SMALL, levels=2, seed=5,
                    quality_metrics=False)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def fuse_stream(executor, n=6, **overrides):
    """Fresh session + fresh seeded source -> list of results."""
    with FusionSession(small_config(executor=executor, **overrides)) as s:
        return list(s.stream(SyntheticSource(seed=5), limit=n))


class TestBatchParity:
    """Fixed seed => the batch executor produces bitwise-identical
    frames and identical modelled accounting to the serial loop, for
    every scheduler/feature combination and every micro-batch size."""

    @pytest.mark.parametrize("features", [
        {},
        dict(engine="online"),
        dict(engine="adaptive"),
        dict(temporal=True),
        dict(registration=True, monitor=True),
    ])
    def test_batch_matches_serial(self, features, assert_bitwise_parity):
        reference = fuse_stream("serial", **features)
        results = fuse_stream("batch", **features)
        assert_bitwise_parity(reference, results)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 8, 32])
    def test_every_batch_size_matches_serial(self, batch_size,
                                             assert_bitwise_parity):
        reference = fuse_stream("serial", n=7)
        results = fuse_stream("batch", n=7, batch_size=batch_size)
        assert_bitwise_parity(reference, results,
                              label=f"batch_size={batch_size}")

    def test_online_scheduler_groups_split_by_engine(self):
        """A probing scheduler mixes engines inside one micro-batch;
        each frame must still compute on its assigned engine."""
        reference = fuse_stream("serial", n=8, engine="online")
        results = fuse_stream("batch", n=8, engine="online", batch_size=8)
        engines = {r.engine for r in results}
        assert len(engines) > 1  # the probe phase really did mix
        for ref, got in zip(reference, results):
            assert ref.engine == got.engine
            assert np.array_equal(ref.frame.pixels, got.frame.pixels)

    def test_reports_aggregate_identically(self):
        reports = {}
        for executor in ("serial", "batch"):
            with FusionSession(small_config(executor=executor,
                                            quality_metrics=True)) as s:
                reports[executor] = s.run(5).as_dict()
        ref, got = reports["serial"], reports["batch"]
        for key in ("frames", "engine_usage", "actions", "model_fps",
                    "millijoules_per_frame", "quality"):
            assert got[key] == ref[key], key

    def test_bounded_drive_never_reads_ahead(self):
        """Like serial, a limited batch drive must not consume source
        frames past its limit (the final micro-batch shrinks)."""
        frames = {}
        for executor in ("serial", "batch"):
            with FusionSession(small_config(executor=executor,
                                            batch_size=4)) as s:
                reports = [s.run(3), s.run(3)]
            frames[executor] = [rec.frame.pixels
                                for r in reports for rec in r.records]
            assert [rec.index for r in reports for rec in r.records] \
                == list(range(6))
        assert all(np.array_equal(a, b) for a, b
                   in zip(frames["serial"], frames["batch"]))


class TestBatchSemantics:
    def test_per_frame_results_from_partial_final_batch(self):
        """7 frames at batch_size 4 -> batches of 4 and 3, but exactly
        7 per-frame results with per-frame telemetry granularity."""
        with FusionSession(small_config(executor="batch",
                                        batch_size=4)) as s:
            results = list(s.stream(SyntheticSource(seed=5), limit=7))
        assert [r.index for r in results] == list(range(7))
        assert s.telemetry.frames == 7

    def test_throughput_block_reports_batch_stats(self):
        with FusionSession(small_config(executor="batch",
                                        batch_size=3)) as s:
            report = s.run(7)
        block = report.throughput
        assert block["executor"] == "batch"
        assert block["frames"] == 7
        assert block["wall_fps"] > 0
        assert block["queue_peak"]["batch"] == 3
        assert set(block["stage_wall_s"]) == {
            "ingest", *s.plan.compute, "finalize"}
        assert set(block["thread_busy_s"]) == {
            threading.current_thread().name}

    def test_batch_size_validation(self):
        with pytest.raises(ConfigurationError):
            BatchExecutor(batch_size=0)
        with pytest.raises(ConfigurationError):
            small_config(batch_size=0)

    def test_registered_and_one_shot(self):
        executor = make_executor("batch", batch_size=2)
        assert isinstance(executor, BatchExecutor)
        assert executor.stats.executor == "batch"
        list(executor.run(_CountingProcessor(), iter(range(3)), limit=3))
        with pytest.raises(ConfigurationError, match="one"):
            executor.run(_CountingProcessor(), iter(range(3)))

    def test_batch_ingest_compute_finalize_order(self):
        """Each micro-batch is ingested in frame order, computed by one
        call on the processor's own lane, then finalized in order."""
        processor = _CountingProcessor()
        executor = BatchExecutor(batch_size=4)
        results = list(executor.run(processor, iter(range(6)), limit=6))
        assert results == list(range(6))
        # 6 frames at batch_size 4: a whole batch of 4, then the
        # bounded drive's smaller last batch of 2
        assert processor.calls == (
            ["ingest"] * 4 + [("compute", (0, 1, 2, 3), None)]
            + ["finalize"] * 4
            + ["ingest"] * 2 + [("compute", (4, 5), None)]
            + ["finalize"] * 2
        )

    def test_spawns_no_threads(self):
        before = threading.active_count()
        fuse_stream("batch", n=5, batch_size=2)
        assert threading.active_count() == before

    def test_process_allowed_between_batch_streams(self):
        """batch is not a concurrent drive; process() composes freely
        around (but not inside) its streams."""
        vis = np.full((40, 40), 10.0)
        with FusionSession(small_config(executor="batch")) as s:
            s.run(2)
            assert s.process(vis, vis).frame.pixels.shape == (40, 40)


class _CountingProcessor(FrameProcessor):
    """Minimal processor recording the calls it was driven with."""

    def __init__(self):
        self.calls = []

    def ingest(self, pair, index):
        self.calls.append("ingest")
        return {"index": index}

    def compute(self, tasks, ctx=None):
        self.calls.append(
            ("compute", tuple(task["index"] for task in tasks), ctx))

    def finalize(self, task):
        self.calls.append("finalize")
        return task["index"]
