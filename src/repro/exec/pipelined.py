"""The pipelined executor: bounded-queue, multi-stage thread pipeline.

Mirrors the paper's double-buffered execution (Fig. 5): while frame
``i`` is being fused, frame ``i+1``'s forward transforms are already
running and frame ``i+2`` is being captured, exactly like the driver's
two kernel-buffer areas let user-space memcpys overlap hardware
processing.  The forward transforms — the stage the paper accelerates
— run on a small worker pool.  The lowering fuses a frame's forwards
into one stacked unit (canonically ``visible+thermal``), so the pool
gets one job per frame and overlaps the forwards of consecutive
frames, not the two forwards of one frame.

Stage topology (every queue bounded by ``queue_depth``)::

    capture/ingest ──> [wave pool: workers] ──> mid chain ──> finalize
         (ordered)       (unordered, pure)      (ordered)    (ordered,
                                                              caller
                                                              thread)

The slots are filled from the processor's lowered plan: the *parallel
wave* (:meth:`FrameProcessor.parallel_stages` — canonically the
forwards' fused unit, plus any custom stateless stage that only needs
the ingested frame) rides the pool; the *mid chain*
(:meth:`FrameProcessor.mid_stages` — canonically fuse+inverse, plus
any custom stage downstream of it) runs on the dedicated mid thread,
which sees frames in capture order.

Ordering and determinism: ingest, the mid chain and finalize each run
on a single thread and see frames in capture order, so all stateful
policies (rig calibration, temporal fusion, monitoring, telemetry)
behave exactly as in the serial loop; wave stages are pure and bound
to the frame's engine, so results are bitwise identical no matter how
the pool interleaves them.

The executor times only its drive; the session's processor times
every stage on whichever thread runs it, so a report's
``thread_busy_s`` shows how long each ``exec-*`` thread really
worked, and ``worker_frames`` counts each pool thread's stage jobs
under the same thread names.
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
    """Executor-side wrapper tracking one task through the stages."""

    __slots__ = ("task", "index", "forwards_done", "_remaining", "_lock")

    def __init__(self, task: Any, index: int, forwards: int):
        self.task = task
        self.index = index
        self.forwards_done = threading.Event()
        self._remaining = forwards
        self._lock = threading.Lock()
        if forwards == 0:
            self.forwards_done.set()

    def forward_completed(self) -> None:
        with self._lock:
            self._remaining -= 1
            if self._remaining == 0:
                self.forwards_done.set()


class PipelineExecutor(Executor):
    """Capture, forward, fuse and finalize as overlapped stages."""

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
        q_forward: "queue.Queue" = queue.Queue()
        q_done: "queue.Queue" = queue.Queue(maxsize=self.queue_depth)
        wave = tuple(processor.parallel_stages())
        mid = tuple(processor.mid_stages())
        # an empty wave (sequential mid chain, e.g. temporal fusion)
        # means no pool jobs will exist, so no pool threads or
        # contexts are built
        pool_size = 0 if not wave else self.workers
        contexts = processor.make_contexts(pool_size + 1)
        fuse_ctx, pool_ctxs = contexts[0], contexts[1:]

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
                    index = produced
                    task = processor.ingest(pair, index)
                    # with a sequential mid chain (temporal fusion) the
                    # whole transform runs there; no wave jobs exist
                    env = _Envelope(task, index, forwards=len(wave))
                    if not self._put(q_order, env, "order"):
                        break
                    for stage in wave:
                        q_forward.put((stage, env))
                    if wave:
                        peak = stats.queue_peak
                        peak["forward"] = max(peak.get("forward", 0),
                                              q_forward.qsize())
                    produced += 1
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                self._fail(exc)
            finally:
                self._put(q_order, _DONE, "order")
                for _ in range(pool_size):
                    q_forward.put(_DONE)

        def forward_worker(slot: int) -> None:
            ctx = pool_ctxs[slot]
            name = threading.current_thread().name
            try:
                while not self._stop:
                    job = self._get(q_forward)
                    if job is _DONE:
                        return
                    stage, env = job
                    processor.run_stage(stage, env.task, ctx)
                    stats.worker_frames[name] = \
                        stats.worker_frames.get(name, 0) + 1
                    env.forward_completed()
            except BaseException as exc:  # noqa: BLE001
                self._fail(exc)

        def fuse_stage() -> None:
            try:
                while not self._stop:
                    env = self._get(q_order)
                    if env is _DONE:
                        break
                    while not env.forwards_done.wait(timeout=self.TICK_S):
                        if self._stop:
                            return
                    for stage in mid:
                        processor.run_stage(stage, env.task, fuse_ctx)
                    if not self._put(q_done, env, "done"):
                        return
                self._put(q_done, _DONE, "done")
            except BaseException as exc:  # noqa: BLE001
                self._fail(exc)

        threads = [threading.Thread(target=capture, name="exec-capture",
                                    daemon=True),
                   threading.Thread(target=fuse_stage, name="exec-fuse",
                                    daemon=True)]
        threads += [threading.Thread(target=forward_worker, args=(i,),
                                     name=f"exec-forward-{i}", daemon=True)
                    for i in range(pool_size)]
        self._threads = threads
        for thread in threads:
            thread.start()

        try:
            while True:
                env = self._get(q_done)
                if env is _DONE:
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
