"""The batch executor: micro-batched NumPy-vectorized frame execution.

The paper's engines earn their throughput by streaming many lines
through one datapath invocation; the Python port's analogue is
streaming many *frames* through one NumPy primitive call.
:class:`BatchExecutor` drains the source in micro-batches of
``batch_size`` frame groups and hands each batch to one
:meth:`~repro.exec.base.FrameProcessor.compute` call on the
processor's own lane.  The session's processor computes it from its
lowered plan's units: a unit's ``visible+thermal+fuse`` chain rides
stacked transforms — all forwards of the batch (every source) in one
call per lane, vectorized coefficient fusion, one stacked inverse —
and the remaining stages run stage-major or, when not batchable,
frame-major, in schedule order.
:class:`~repro.exec.serial.SerialExecutor` is this executor at
``batch_size=1``.

Everything else stays per-frame: ingest runs in frame order *before*
the batch computes (so scheduler observations, calibration and frame
indices advance exactly as under the serial loop), and finalize runs
in frame order *after* it (per-frame telemetry, monitoring, quality
metrics, reports — batching never coarsens the observability).  With a
fixed seed the results are bitwise-identical at every batch size;
only wall-clock changes.

Single-threaded by design: the speedup comes from amortizing Python
call overhead inside NumPy, not from concurrency, so ``batch``
composes with single-core hosts where the thread executor cannot win.
A bounded drive ingests at most ``limit`` frames and never reads the
source ahead of its last delivered frame beyond the current
micro-batch.  The executor times only its drive; the session's
processor times ingest, each unit or stage and finalize.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Iterator, Optional

from ..errors import ConfigurationError
from .base import Executor, FrameProcessor


class BatchExecutor(Executor):
    """Drive frames through micro-batched stacked computation."""

    name = "batch"
    concurrent = False

    def __init__(self, batch_size: int = 8, workers: int = 1,
                 queue_depth: int = 1, **_ignored):
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        super().__init__()
        self.batch_size = batch_size

    def run(self, processor: FrameProcessor, pairs: Iterator[Any],
            limit: Optional[int] = None) -> Iterator[Any]:
        self._claim()
        return self._drive(processor, pairs, limit)

    def _drive(self, processor: FrameProcessor, pairs: Iterator[Any],
               limit: Optional[int]) -> Iterator[Any]:
        stats = self.stats
        started = time.perf_counter()
        iterator = iter(pairs)
        try:
            index = 0
            while limit is None or stats.frames < limit:
                self._ensure_open(pairs)
                want = self.batch_size
                if limit is not None:
                    want = min(want, limit - stats.frames)
                raw = list(itertools.islice(iterator, want))
                if not raw:
                    return
                tasks = [processor.ingest(pair, index + offset)
                         for offset, pair in enumerate(raw)]
                index += len(tasks)
                processor.compute(tasks)
                stats.queue_peak["batch"] = max(
                    stats.queue_peak.get("batch", 0), len(tasks))
                for task in tasks:
                    result = processor.finalize(task)
                    stats.frames += 1
                    yield result
        finally:
            stats.wall_seconds = time.perf_counter() - started
