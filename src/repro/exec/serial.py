"""The serial executor: the batch executor at ``batch_size=1``.

Every stage of frame ``i`` completes before frame ``i+1`` is pulled,
on the caller's thread: ingest, one
:meth:`~repro.exec.base.FrameProcessor.compute` call on that single
frame, then finalize.  The plan's units decide stacking for it
exactly as for ``batch``, so a unit's transform chain is one stacked
call per frame.  It is the paper's unoverlapped baseline and the
reference every other executor is tested against.  All of its
stage time lands on the caller's thread in ``thread_busy_s``; the
per-stage split is ``stage_wall_s``.
"""

from __future__ import annotations

from .batch import BatchExecutor


class SerialExecutor(BatchExecutor):
    """Drive one frame at a time, inline, in frame order."""

    name = "serial"

    def __init__(self, workers: int = 1, queue_depth: int = 1, **_ignored):
        super().__init__(batch_size=1)
