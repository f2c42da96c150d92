"""Process-backed sharding for the serving tier.

The single-process :class:`~repro.serve.FusionService` is thread-
parallel but GIL-bound: one interpreter executes every Python stage of
every stream.  This package multiplies interpreters without touching
the service's semantics:

* :mod:`~repro.serve.shard.partition` — deterministic stream->shard
  placement (closed-form for a fixed roster, least-loaded for churn);
* :mod:`~repro.serve.shard.ring` — zero-copy shared-memory frame
  transport with slot leasing and generation counters;
* :mod:`~repro.serve.shard.broker` — the cross-process engine lease
  protocol keeping fleet-wide pool accounting exact;
* :mod:`~repro.serve.shard.worker` — the shard process: one full
  ``FusionService`` fed by the rings, leasing through the broker;
* :mod:`~repro.serve.shard.service` — :class:`ShardedFusionService`,
  the parent: the same :class:`~repro.serve.service.ServiceFront` as
  ``FusionService``, taking back one
  :class:`~repro.serve.service.Retirement` per retired stream and
  merging the shards' sections into one report.
"""

from .broker import BrokeredEnginePool, LeaseBroker
from .partition import ShardAssigner, partition_streams
from .ring import SEGMENT_PREFIX, FrameRing, RingClosed
from .service import ShardedFusionService

__all__ = [
    "BrokeredEnginePool",
    "FrameRing",
    "LeaseBroker",
    "RingClosed",
    "SEGMENT_PREFIX",
    "ShardAssigner",
    "ShardedFusionService",
    "partition_streams",
]
