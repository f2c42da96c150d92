"""Executor throughput: serial vs pipelined vs micro-batched wall-clock.

The execution layer's claim is that scheduling — the paper's double
buffering (``pipeline``) and many-frames-per-invocation amortization
(``batch``) — changes wall-clock throughput without changing a single
output bit.  This bench measures end-to-end FPS for every registered
executor (one row per :func:`repro.exec.executor_names` entry) on the
same seeded synthetic stream and reports speedups against the serial
baseline, plus each executor's busiest plan stages (the share of wall
time in ``stage_wall_s``, which every executor keys by plan stage or
fused unit) so where the time goes is visible, not inferred.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_executor_throughput.py``;
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_executor_throughput.py --quick
      PYTHONPATH=src python benchmarks/bench_executor_throughput.py \
          --frames 64 --min-speedup 1.5

``--min-speedup`` turns the report into an assertion (exit code 1 when
the pipeline executor misses the bar) for multi-core CI runners.  The
default is report-only: on a single-core host the GIL-bound stages
cannot overlap, and an honest 1.0x is the expected result there.

Since the declarative plan API, every stream is lowered through the
:class:`repro.graph.Planner` before it runs; ``--quick`` therefore
also guards the *planning overhead* — building the canonical graph and
lowering it must add less than ``--max-plan-overhead`` (default 5%) of
one serial stream's wall time, so the IR stays free in practice.
``--json-out`` writes the machine-readable rows (plus the overhead
measurement) for CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from repro.exec import executor_names
from repro.graph import FusionGraph, Planner
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape


def measure(executor: str, frames: int, size: FrameShape, levels: int,
            workers: int, queue_depth: int, seed: int = 7) -> Dict:
    """Wall-clock FPS of one executor over a fresh seeded stream."""
    config = FusionConfig(engine="neon", executor=executor,
                          workers=workers, queue_depth=queue_depth,
                          fusion_shape=size, levels=levels, seed=seed,
                          quality_metrics=False, keep_records=False)
    with FusionSession(config) as session:
        source = SyntheticSource(seed=seed)
        start = time.perf_counter()
        count = sum(1 for _ in session.stream(source, limit=frames))
        elapsed = time.perf_counter() - start
        throughput = dict(session.report().throughput)
    return {
        "executor": executor,
        "frames": count,
        "elapsed_s": elapsed,
        "fps": count / elapsed if elapsed > 0 else 0.0,
        # stage_wall_s is keyed by plan stage or unit under every
        # executor: the session processor's one stage timer
        "stage_share": {name: seconds / elapsed
                        for name, seconds
                        in throughput.get("stage_wall_s", {}).items()}
        if elapsed > 0 else {},
    }


def run_bench(frames: int, size: FrameShape, levels: int, workers: int,
              queue_depth: int, executors: List[str]) -> tuple:
    rows = [measure(name, frames, size, levels, workers, queue_depth)
            for name in executors]
    base = next((r for r in rows if r["executor"] == "serial"), rows[0])

    lines = [f"Executor wall-clock throughput ({frames} frames @ "
             f"{size}, levels={levels}, workers={workers}, "
             f"cpus={os.cpu_count()}):",
             f"  {'executor':>9} {'fps':>8} {'vs serial':>10}  "
             f"busiest stages"]
    for row in rows:
        speedup = row["fps"] / base["fps"] if base["fps"] > 0 else 0.0
        top = sorted(row["stage_share"].items(), key=lambda kv: -kv[1])[:3]
        stages = ", ".join(f"{k} {v:.0%}" for k, v in top)
        lines.append(f"  {row['executor']:>9} {row['fps']:>8.2f} "
                     f"{speedup:>9.2f}x  {stages}")
    lines.append("")
    lines.append("  (every executor produces bitwise-identical frames; "
                 "only the schedule differs)")
    return "\n".join(lines), rows, base


def measure_planning(size: FrameShape, levels: int, reps: int = 25) -> float:
    """Mean seconds to build the canonical graph and lower it — the
    once-per-stream cost the plan API added."""
    config = FusionConfig(engine="neon", fusion_shape=size, levels=levels,
                          quality_metrics=False, keep_records=False)
    planner = Planner()
    planner.lower(FusionGraph.canonical(), config)  # warm any caches
    start = time.perf_counter()
    for _ in range(reps):
        planner.lower(FusionGraph.canonical(), config)
    return (time.perf_counter() - start) / reps


def test_executor_throughput(report):
    """Pytest entry: quick pass over all executors, with the output
    parity spot-checked on the side by tests/exec."""
    text, rows, _ = run_bench(frames=12, size=FrameShape(40, 40), levels=2,
                              workers=2, queue_depth=4,
                              executors=list(executor_names()))
    report(text)
    assert all(r["frames"] == 12 for r in rows)
    assert all(r["fps"] > 0 for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=64,
                        help="stream length per executor (default 64)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 16 frames, small geometry")
    parser.add_argument("--size", default="40x40",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=4)
    parser.add_argument("--executors", nargs="+",
                        default=list(executor_names()))
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless pipeline fps >= this multiple "
                             "of serial fps (use on multi-core runners)")
    parser.add_argument("--max-plan-overhead", type=float, default=None,
                        help="fail if planning (graph build + lowering) "
                             "exceeds this fraction of one serial "
                             "stream's wall time; --quick defaults it "
                             "to 0.05")
    parser.add_argument("--json-out", default=None,
                        help="write the per-executor rows and the "
                             "plan-overhead measurement as JSON")
    args = parser.parse_args(argv)

    frames = 16 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)
    text, rows, base = run_bench(frames, size, args.levels, args.workers,
                                 args.queue_depth, args.executors)
    print(text)

    max_overhead = args.max_plan_overhead
    if max_overhead is None and args.quick:
        max_overhead = 0.05
    plan_s = measure_planning(size, args.levels)
    # the bound is defined against one *serial* stream; other rows are
    # faster and would inflate the fraction
    serial = next((r for r in rows if r["executor"] == "serial"), None)
    plan_fraction = (plan_s / serial["elapsed_s"]
                     if serial and serial["elapsed_s"] > 0 else None)
    if plan_fraction is None:
        if args.max_plan_overhead is not None:
            # an explicitly requested guard must never pass vacuously
            print("FAIL: --max-plan-overhead needs the serial executor "
                  "in --executors to measure its baseline",
                  file=sys.stderr)
            return 1
        print(f"  planning overhead: {plan_s * 1e3:.3f} ms per stream "
              f"(no serial run measured; overhead guard skipped)")
    else:
        print(f"  planning overhead: {plan_s * 1e3:.3f} ms per stream "
              f"({plan_fraction:.2%} of one serial drive)")

    if args.json_out:
        payload = {
            "frames": frames,
            "size": str(size),
            "levels": args.levels,
            "rows": rows,
            "plan_seconds": plan_s,
            "plan_overhead_fraction": plan_fraction,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.json_out}")

    if (max_overhead is not None and plan_fraction is not None
            and plan_fraction > max_overhead):
        print(f"FAIL: planning adds {plan_fraction:.2%} of serial wall "
              f"time (> {max_overhead:.0%})", file=sys.stderr)
        return 1

    if args.min_speedup is not None:
        pipe = next((r for r in rows if r["executor"] == "pipeline"), None)
        if pipe is None or base["fps"] <= 0:
            print("min-speedup check needs both serial and pipeline runs",
                  file=sys.stderr)
            return 1
        speedup = pipe["fps"] / base["fps"]
        if speedup < args.min_speedup:
            print(f"FAIL: pipeline speedup {speedup:.2f}x < "
                  f"{args.min_speedup:.2f}x", file=sys.stderr)
            return 1
        print(f"OK: pipeline speedup {speedup:.2f}x >= "
              f"{args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
