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

The sides alternate pair by pair (and which runs first alternates
too), so a drift in host speed lands on both alike.  The speedup is
the median of the per-pair fps ratios; each side's median fps is
reported with its quartiles.  Bitwise parity is asserted, not assumed:
every stream must hash identically on both sides — sharding relocates
the interpreter, never the arithmetic.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_shard_scaling.py`` (one short pair: completion and
  parity only);
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_shard_scaling.py --quick
      PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
          --pairs 20 --min-speedup 1.6

``--quick`` runs 10 pairs at the default scale (3,840 frames, walls of
2.5 s and more on a 2-CPU host) and gates on 2 shards >= 1.6x the
in-process service **only on multi-core hosts** — on a single core the
shard processes time-slice one CPU and the IPC tax makes scaling
physically impossible, so the gate reports and skips (CI boxes vary);
the JSON rows (``BENCH_shards.json``) are written either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

from repro.serve import FusionService, ShardedFusionService
from repro.session import ArraySource, FusionConfig
from repro.types import FrameShape
from repro.video.scaler import resize_to
from repro.video.scene import SyntheticScene

SMALL = FrameShape(32, 24)

#: service worker threads on each side: 2 shards x 1 worker against
#: one process with 2 workers
WORKERS = 2

#: enough virtual engine instances that the fleet-wide lease broker is
#: never the bottleneck — this bench isolates interpreter scaling
POOL = {"arm": 4, "neon": 4}

#: (name, engine, seed, frames at scale 1) — eight small-frame batch
#: tenants, the workload where per-frame Python overhead dominates and
#: a second interpreter is the only remaining lever
WORKLOAD: Tuple[Tuple[str, str, int, int], ...] = tuple(
    (f"tenant-{i}", "arm" if i % 2 == 0 else "neon", 20 + i, 24)
    for i in range(8))

SIDES = ("shards", "service")

#: 8 x 24 x 20 = 3,840 frames: walls of 2.5 s and more on a 2-CPU
#: host, so start-up and drain are a small share of each run
DEFAULT_SCALE = 20


def build_config(engine: str) -> FusionConfig:
    return FusionConfig(engine=engine, executor="batch", batch_size=8,
                        fusion_shape=SMALL, levels=2, seed=5,
                        quality_metrics=False, keep_records=True)


def recorded_footage(seed: int, frames: int) -> ArraySource:
    """Pre-rendered pairs at fusion geometry: both sides replay
    recorded footage, so the synthetic render cost stays outside the
    measured interval (it would be identical dead weight on each)."""
    shape = SMALL.array_shape
    scene = SyntheticScene(seed=seed)
    visible, thermal = [], []
    for i in range(frames):
        t_s = i / 25.0
        visible.append(resize_to(scene.render_visible(t_s), shape))
        thermal.append(resize_to(scene.render_thermal(t_s), shape))
    return ArraySource(visible, thermal)


def frame_hashes(records) -> List[str]:
    return [hashlib.sha256(r.frame.pixels.tobytes()).hexdigest()
            for r in records]


def make_service(side: str):
    kwargs = dict(pool=POOL, max_in_flight=len(WORKLOAD) * 8,
                  stream_queue_depth=8)
    if side == "shards":
        return ShardedFusionService(shards=WORKERS, workers=1, **kwargs)
    return FusionService(workers=WORKERS, **kwargs)


def run_side(side: str, scale: int, footage: Dict[str, ArraySource]):
    service = make_service(side)
    for name, engine, seed, frames in WORKLOAD:
        service.add_stream(name, config=build_config(engine),
                           source=footage[name], frames=frames * scale)
    return service.serve()


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def run_bench(scale: int, pairs: int) -> Tuple[str, Dict]:
    footage = {name: recorded_footage(seed, frames * scale)
               for name, engine, seed, frames in WORKLOAD}
    total_frames = sum(frames * scale for *_, frames in WORKLOAD)

    runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
    mismatched = set()
    reference: Dict[str, List[str]] = {}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            report = run_side(side, scale, footage)
            runs[side].append({
                "frames": sum(s.frames for s in report.streams.values()),
                "wall_s": report.wall_seconds,
                "fps": report.aggregate_fps,
            })
            hashes = {name: frame_hashes(s.records)
                      for name, s in report.streams.items()}
            if not reference:
                reference = hashes
            mismatched.update(name for name in reference
                              if hashes.get(name) != reference[name])

    ratios = [shard["fps"] / service["fps"] if service["fps"] > 0 else 0.0
              for shard, service in zip(runs["shards"], runs["service"])]
    summary = {side: dict(zip(("fps_q1", "fps_median", "fps_q3"),
                              quartiles([r["fps"] for r in runs[side]])))
               for side in SIDES}
    speedup = statistics.median(ratios)
    wins = sum(ratio > 1.0 for ratio in ratios)
    min_wall = min(r["wall_s"] for side in SIDES for r in runs[side])

    cpus = os.cpu_count() or 1
    lines = [f"Shard tier vs in-process service: {len(WORKLOAD)} batch "
             f"tenants, {total_frames} frames per run, pool {POOL}, "
             f"{WORKERS} worker threads a side, {pairs} alternating "
             f"pairs, cpus={cpus}:",
             f"  {'side':>28} {'median fps':>10} {'IQR':>17}"]
    labels = {"shards": f"{WORKERS} shards x workers=1",
              "service": f"FusionService(workers={WORKERS})"}
    for side in SIDES:
        row = summary[side]
        lines.append(f"  {labels[side]:>28} {row['fps_median']:>10.1f} "
                     f"{row['fps_q1']:>8.1f}-{row['fps_q3']:<8.1f}")
    lines.append(f"  speedup (median of pair ratios) {speedup:.2f}x; "
                 f"shards faster in {wins}/{pairs} pairs; shortest wall "
                 f"{min_wall:.2f}s; parity "
                 f"{'DIVERGED' if mismatched else 'bitwise'}")
    if cpus < 2:
        lines.append("  (single-core host: shard processes time-slice "
                     "one CPU; the speedup gate does not apply)")

    payload = {
        "pool": dict(POOL),
        "scale": scale,
        "cpus": cpus,
        "workers_per_side": WORKERS,
        "frames_total": total_frames,
        "pairs": pairs,
        "runs": runs,
        "summary": summary,
        "pair_ratios": ratios,
        "speedup": speedup,
        "shards_won_pairs": wins,
        "min_wall_s": min_wall,
        "bitwise_parity": not mismatched,
        "mismatched_streams": sorted(mismatched),
    }
    return "\n".join(lines), payload


def test_shard_scaling(report):
    """Pytest entry: completion + sharded-vs-in-process bitwise parity
    (the speedup gate runs in script mode, where the machine is known)."""
    text, payload = run_bench(scale=1, pairs=1)
    report(text)
    assert payload["bitwise_parity"], payload["mismatched_streams"]
    for side in SIDES:
        for run in payload["runs"][side]:
            assert run["frames"] == payload["frames_total"]
            assert run["fps"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: gate at the acceptance bar "
                             "(1.6x) on multi-core hosts")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help="frame-count multiplier per stream "
                             f"(default {DEFAULT_SCALE})")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating shards/service pairs "
                             "(default 10)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median shards/service fps "
                             "ratio >= this (multi-core hosts only)")
    parser.add_argument("--json-out", default=None,
                        help="write the machine-readable rows as JSON")
    args = parser.parse_args(argv)

    min_speedup = args.min_speedup
    if min_speedup is None and args.quick:
        min_speedup = 1.6

    text, payload = run_bench(args.scale, args.pairs)
    print(text)

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.json_out}")

    if not payload["bitwise_parity"]:
        print(f"FAIL: sharded and in-process outputs diverged bitwise: "
              f"{payload['mismatched_streams']}", file=sys.stderr)
        return 1
    if min_speedup is not None:
        if payload["cpus"] < 2:
            print(f"SKIP speedup gate: single-core host "
                  f"(2 shards measured {payload['speedup']:.2f}x)")
        elif payload["speedup"] < min_speedup:
            print(f"FAIL: 2-shard speedup {payload['speedup']:.2f}x < "
                  f"{min_speedup:.2f}x", file=sys.stderr)
            return 1
        else:
            print(f"OK: 2-shard speedup {payload['speedup']:.2f}x >= "
                  f"{min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
