"""The pipelined executor: capture thread, compute pool, ordered finalize.

Mirrors the paper's double-buffered execution (Fig. 5): while frame
``i`` is being finalized, frames ``i+1``, ``i+2`` are computing on the
pool and frame ``i+3`` is being captured, exactly like the driver's two
kernel-buffer areas let user-space memcpys overlap hardware
processing.  Each pool thread computes whole frames with one
:meth:`~repro.exec.base.FrameProcessor.compute` call on its own
context, so the plan's units stack a frame's transforms exactly as
they do under ``serial``; the pool overlaps consecutive frames.

Topology (frames in flight bounded by ``queue_depth``)::

    capture/ingest ──> [compute pool: workers] ──> finalize
       (ordered)          (whole frames)          (ordered, caller
                                                    thread)

Ordering and determinism: ingest and finalize each run on a single
thread and see frames in capture order, so the ordered policies (rig
calibration, monitoring, telemetry) behave exactly as in the serial
loop.  A sequential processor (temporal fusion, or a custom ordered
stage) gets one pool thread, which takes frames in capture order.
Otherwise compute is pure and bound to the frame's engine, so results
are bitwise identical no matter how the pool interleaves frames.

The executor times only its drive; the session's processor times
every stage on whichever thread runs it, so a report's
``thread_busy_s`` shows how long each ``exec-*`` thread really
worked, and ``worker_frames`` counts each pool thread's frames under
the same thread names.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Iterator, Optional

from ..errors import ConfigurationError
from .base import Executor, FrameProcessor

_DONE = object()  # end-of-stream sentinel


class _Envelope:
    """One ingested task and the event its computing worker sets."""

    __slots__ = ("task", "done")

    def __init__(self, task: Any):
        self.task = task
        self.done = threading.Event()


class PipelineExecutor(Executor):
    """Capture, compute and finalize as overlapped stages."""

    name = "pipeline"

    def __init__(self, workers: int = 2, queue_depth: int = 4, **_ignored):
        super().__init__()
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth

    # ------------------------------------------------------------------
    def _put(self, q: "queue.Queue", item: Any, name: str) -> bool:
        """Stop-aware bounded put; records the queue's depth peak."""
        while not self._stop:
            try:
                q.put(item, timeout=self.TICK_S)
            except queue.Full:
                continue
            peak = self.stats.queue_peak
            peak[name] = max(peak.get(name, 0), q.qsize())
            return True
        return False

    def _get(self, q: "queue.Queue") -> Any:
        while not self._stop:
            try:
                return q.get(timeout=self.TICK_S)
            except queue.Empty:
                continue
        return _DONE

    def _await(self, event: threading.Event) -> bool:
        """Stop-aware wait; False when the drive stopped first."""
        while not event.wait(timeout=self.TICK_S):
            if self._stop:
                return False
        return True

    # ------------------------------------------------------------------
    def run(self, processor: FrameProcessor, pairs: Iterator[Any],
            limit: Optional[int] = None) -> Iterator[Any]:
        self._claim()
        return self._drive(processor, pairs, limit)

    def _drive(self, processor: FrameProcessor, pairs: Iterator[Any],
               limit: Optional[int]) -> Iterator[Any]:
        stats = self.stats
        started = time.perf_counter()

        q_order: "queue.Queue" = queue.Queue(maxsize=self.queue_depth)
        q_compute: "queue.Queue" = queue.Queue()
        # one FIFO worker keeps a sequential processor in frame order
        pool_size = 1 if processor.sequential else self.workers
        contexts = processor.make_contexts(pool_size)

        def capture() -> None:
            produced = 0
            iterator = iter(pairs)
            try:
                # the limit check precedes the pull so a bounded drive
                # never reads the source past its last frame (shared
                # sources must stay exactly where the serial loop
                # would leave them)
                while not self._stop and (limit is None or produced < limit):
                    self._ensure_open(pairs)
                    try:
                        pair = next(iterator)
                    except StopIteration:
                        break
                    env = _Envelope(processor.ingest(pair, produced))
                    if not self._put(q_order, env, "order"):
                        break
                    q_compute.put(env)
                    peak = stats.queue_peak
                    peak["compute"] = max(peak.get("compute", 0),
                                          q_compute.qsize())
                    produced += 1
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                self._fail(exc)
            finally:
                self._put(q_order, _DONE, "order")
                for _ in range(pool_size):
                    q_compute.put(_DONE)

        def worker(slot: int) -> None:
            ctx = contexts[slot]
            name = threading.current_thread().name
            try:
                while not self._stop:
                    env = self._get(q_compute)
                    if env is _DONE:
                        return
                    processor.compute([env.task], ctx)
                    stats.worker_frames[name] = \
                        stats.worker_frames.get(name, 0) + 1
                    env.done.set()
            except BaseException as exc:  # noqa: BLE001
                self._fail(exc)

        threads = [threading.Thread(target=capture, name="exec-capture",
                                    daemon=True)]
        threads += [threading.Thread(target=worker, args=(i,),
                                     name=f"exec-compute-{i}", daemon=True)
                    for i in range(pool_size)]
        self._threads = threads
        for thread in threads:
            thread.start()

        try:
            while True:
                env = self._get(q_order)
                if env is _DONE or not self._await(env.done):
                    break
                result = processor.finalize(env.task)
                stats.frames += 1
                yield result
                if limit is not None and stats.frames >= limit:
                    break
            if self._error is not None:
                raise self._error
        finally:
            stats.wall_seconds = time.perf_counter() - started
            self.close()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._join_all()
