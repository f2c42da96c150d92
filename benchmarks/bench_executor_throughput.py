"""Executor throughput: pipelined vs serial wall-clock, and planning cost.

The execution layer's claim is that scheduling — the paper's double
buffering (``pipeline``) — changes wall-clock throughput without
changing a single output bit.  This bench times the ``pipeline``
executor against ``serial`` on the default capture chain
(``FusionSession().run()``'s source: 88x72 on the adaptive engine,
quality metrics on) with the benches' one timing protocol
(``protocol.py``: alternating pairs, the median pair ratio with its
IQR) and checks on every run that both fuse bitwise-identical frames.
The ``batch`` executor has its own bench, ``bench_batch_fusion.py``.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_executor_throughput.py``;
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_executor_throughput.py --quick
      PYTHONPATH=src python benchmarks/bench_executor_throughput.py \
          --frames 64 --min-speedup 1.5

``--min-speedup`` gates the pipeline's median pair ratio (exit code 1
below the bar) for multi-core CI runners.  The default is report-only:
on a single-core host the GIL-bound stages cannot overlap, and an
honest 1.0x is the expected result there.

Since the declarative plan API, every stream is lowered through the
:class:`repro.graph.Planner` before it runs; ``--quick`` therefore
also guards the *planning overhead* — building the canonical graph and
lowering it must cost less than ``--max-plan-overhead`` (default 5%)
of one serial stream's wall time (``--frames`` synthetic frames at
``--size``/``--levels`` on the ``neon`` engine), so the IR stays free
in practice.  It is timed by the same protocol, as the pair ratio of
the stream's seconds over one lowering's.  ``--json-out`` writes both
records for CI artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from protocol import PAIRS, compare, finish, summary
from repro.core.adaptive import bind_engine
from repro.exec import executor_names
from repro.graph import FusionGraph, Planner
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape


def capture_stream(executor: str, frames: int, workers: int,
                   queue_depth: int,
                   shares: Optional[Dict] = None) -> List[np.ndarray]:
    """The default capture chain's fused frames under one executor;
    ``shares[executor]`` gets the run's stage shares of its wall time
    (keyed by plan stage or unit under every executor)."""
    config = FusionConfig(executor=executor, workers=workers,
                          queue_depth=queue_depth, keep_records=False)
    with FusionSession(config) as session:
        out = [r.pixels for r in
               session.stream(session.capture_source(), limit=frames)]
        throughput = session.report().throughput
    wall = throughput.get("wall_seconds", 0.0)
    if shares is not None and wall > 0:
        shares[executor] = {
            name: seconds / wall
            for name, seconds in throughput.get("stage_wall_s", {}).items()}
    return out


def lower(planner: Planner, config: FusionConfig) -> None:
    """Bind the engine, build the canonical graph and lower it: the
    per-stream plan cost."""
    planner.lower(FusionGraph.canonical(), config, bind_engine(config))


def serial_stream(config: FusionConfig, frames: int) -> None:
    """One serial synthetic stream: what planning is charged against."""
    with FusionSession(config) as session:
        for _ in session.stream(SyntheticSource(seed=7), limit=frames):
            pass


def run_bench(frames: int, size: FrameShape, levels: int, workers: int,
              queue_depth: int, pairs: int = PAIRS) -> tuple:
    shares: Dict[str, Dict[str, float]] = {}
    pipeline = compare({
        "pipeline": lambda: capture_stream("pipeline", frames, workers,
                                           queue_depth, shares),
        "serial": lambda: capture_stream("serial", frames, workers,
                                         queue_depth, shares),
    }, pairs, parity=True)
    planner = Planner()
    config = FusionConfig(engine="neon", fusion_shape=size, levels=levels,
                          seed=7, quality_metrics=False, keep_records=False)
    planning = compare({
        "lowering": lambda: lower(planner, config),
        "serial stream": lambda: serial_stream(config, frames),
    }, pairs)
    text = (f"Executor wall-clock throughput ({frames} capture-chain "
            f"frames, workers={workers}, cpus={os.cpu_count()}); "
            f"planning overhead against {frames} synthetic frames @ "
            f"{size}, levels={levels}: {1 / planning['ratio']:.2%} of "
            f"one serial stream (median pair)")
    for executor, stage in shares.items():
        top = sorted(stage.items(), key=lambda kv: -kv[1])[:3]
        text += (f"\n  {executor} busiest stages (last run): "
                 + ", ".join(f"{k} {v:.0%}" for k, v in top))
    return text, pipeline, planning, shares


def test_executor_throughput(report):
    """Pytest entry: a short pass; pipeline/serial parity asserted,
    both ratios reported, and every registered executor yields its
    whole stream."""
    text, pipeline, planning, _ = run_bench(
        frames=12, size=FrameShape(40, 40), levels=2, workers=2,
        queue_depth=4, pairs=1)
    report("\n".join([text, summary("pipeline", pipeline),
                      summary("plan_overhead", planning)]))
    assert pipeline["parity"] and pipeline["frames"] == [12]
    assert pipeline["ratio"] > 0 and planning["ratio"] > 0
    for executor in executor_names():
        assert len(capture_stream(executor, 12, 2, 4)) == 12, executor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=64,
                        help="stream length per run (default 64)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 16 frames")
    parser.add_argument("--size", default="40x40",
                        help="planning workload geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median pipeline/serial "
                             "pair ratio >= this (use on multi-core "
                             "runners)")
    parser.add_argument("--max-plan-overhead", type=float, default=None,
                        help="fail if planning (graph build + lowering) "
                             "exceeds this fraction of one serial "
                             "stream's wall time; --quick defaults it "
                             "to 0.05")
    parser.add_argument("--json-out", default=None,
                        help="write both records as JSON")
    args = parser.parse_args(argv)

    frames = 16 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)
    max_overhead = args.max_plan_overhead
    if max_overhead is None and args.quick:
        max_overhead = 0.05
    text, pipeline, planning, shares = run_bench(
        frames, size, args.levels, args.workers, args.queue_depth)
    print(text)
    pipeline["bound"] = args.min_speedup
    planning["bound"] = 1 / max_overhead if max_overhead else None
    return finish("executor_throughput", args.json_out,
                  {"pipeline": pipeline, "plan_overhead": planning},
                  frames=frames, size=str(size), levels=args.levels,
                  workers=args.workers, max_plan_overhead=max_overhead,
                  stage_share=shares)


if __name__ == "__main__":
    sys.exit(main())
