"""Shard tier vs in-process service: the same fleet at equal worker threads.

:class:`repro.serve.ShardedFusionService` exists to buy *multi-core*
throughput that a single GIL-bound interpreter cannot: each shard is a
full FusionService in its own process, frames travel over shared-memory
rings, and the parent brokers one global engine pool.  This bench
drives an 8-stream batch fleet (alternating ARM/NEON tenants on small
frames — the shape where NumPy vectorization is already saturated
per-process and the interpreter is the bottleneck) through two sides
that run the same number of service worker threads:

* ``shards``: ``ShardedFusionService(shards=2, workers=1)``;
* ``service``: the in-process ``FusionService(workers=2)`` it would be
  replaced by.

Both sides are timed by the benches' one timing protocol
(``protocol.py``: alternating pairs, the median pair ratio with its
IQR); a shards run includes starting its shard processes.  Bitwise
parity is asserted, not assumed: every run of both sides must fuse
identical frames — sharding relocates the interpreter, never the
arithmetic.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_shard_scaling.py`` (one short pair: completion and
  parity only);
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_shard_scaling.py --quick
      PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
          --pairs 20 --min-speedup 1.6

``--quick`` runs 10 pairs at the default scale (3,840 frames a run,
walls of 2.5 s and more on a 2-CPU host) and gates on 2 shards >= 1.6x
the in-process service **only on multi-core hosts** — on a single core
the shard processes time-slice one CPU and the IPC tax makes scaling
physically impossible, so the gate records a skip with that reason
(CI boxes vary); the JSON record (``BENCH_shards.json``) is written
either way.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Tuple

from bench_service_throughput import SMALL, recorded_footage, serve
from protocol import PAIRS, compare, finish, summary
from repro.serve import FusionService, ShardedFusionService

#: service worker threads on each side: 2 shards x 1 worker against
#: one process with 2 workers
WORKERS = 2

#: enough virtual engine instances that the fleet-wide lease broker is
#: never the bottleneck — this bench isolates interpreter scaling
POOL = {"arm": 4, "neon": 4}

#: (name, config overrides, seed, frames at scale 1) — eight
#: small-frame batch tenants, the workload where per-frame Python
#: overhead dominates and a second interpreter is the only remaining
#: lever
WORKLOAD: Tuple[Tuple[str, Dict, int, int], ...] = tuple(
    (f"tenant-{i}", dict(engine="arm" if i % 2 == 0 else "neon",
                         executor="batch", batch_size=8,
                         fusion_shape=SMALL), 20 + i, 24)
    for i in range(8))

#: 8 x 24 x 20 = 3,840 frames: walls of 2.5 s and more on a 2-CPU
#: host, so start-up and drain are a small share of each run
DEFAULT_SCALE = 20


def run_bench(scale: int, pairs: int = PAIRS) -> Tuple[str, Dict]:
    footage = recorded_footage(WORKLOAD, scale)
    kwargs = dict(pool=POOL, max_in_flight=len(WORKLOAD) * 8,
                  stream_queue_depth=8)
    gate = compare({
        "shards": lambda: serve(
            ShardedFusionService(shards=WORKERS, workers=1, **kwargs),
            WORKLOAD, footage, scale),
        "service": lambda: serve(FusionService(workers=WORKERS, **kwargs),
                                 WORKLOAD, footage, scale),
    }, pairs, parity=True)
    total = sum(frames * scale for *_, frames in WORKLOAD)
    text = (f"Shard tier vs in-process service: {len(WORKLOAD)} batch "
            f"tenants, {total} frames a run, pool {POOL}: {WORKERS} "
            f"shards x workers=1 against FusionService(workers="
            f"{WORKERS}), cpus={os.cpu_count()}:")
    return text, gate


def test_shard_scaling(report):
    """Pytest entry: completion + sharded-vs-in-process bitwise parity
    (the speedup gate runs in script mode, where the machine is known)."""
    text, gate = run_bench(scale=1, pairs=1)
    report(text + "\n" + summary("speedup", gate))
    assert gate["parity"]
    assert gate["frames"] == [sum(frames for *_, frames in WORKLOAD)]
    assert gate["ratio"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: gate at the acceptance bar "
                             "(1.6x) on multi-core hosts")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help="frame-count multiplier per stream "
                             f"(default {DEFAULT_SCALE})")
    parser.add_argument("--pairs", type=int, default=PAIRS,
                        help=f"alternating shards/service pairs "
                             f"(default {PAIRS})")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median shards/service "
                             "pair ratio >= this (multi-core hosts only)")
    parser.add_argument("--json-out", default=None,
                        help="write the record as JSON")
    args = parser.parse_args(argv)

    min_speedup = args.min_speedup
    if min_speedup is None and args.quick:
        min_speedup = 1.6

    text, gate = run_bench(args.scale, args.pairs)
    print(text)
    gate["bound"] = min_speedup
    if (os.cpu_count() or 1) < 2:
        gate["skip"] = ("single-core host: the shard processes "
                        "time-slice one CPU, so the gate does not apply")
    return finish("shard_scaling", args.json_out, {"speedup": gate},
                  pool=dict(POOL), scale=args.scale,
                  workers_per_side=WORKERS)


if __name__ == "__main__":
    sys.exit(main())
