"""Batch fusion throughput: serial vs micro-batched wall-clock.

The batch-first numeric core's claim is that stacking frames through
single NumPy transform calls amortizes the per-frame Python dispatch
that dominates small-frame fusion — without changing one output bit.
This bench times the ``batch`` executor against the ``serial``
baseline on the same seeded synthetic scene with the benches' one
timing protocol (``protocol.py``: alternating pairs, the median pair
ratio with its IQR) and checks on every run that both sides fuse
bitwise-identical frames.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_batch_fusion.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_batch_fusion.py --quick
      PYTHONPATH=src python benchmarks/bench_batch_fusion.py \
          --frames 96 --min-speedup 1.3

``--min-speedup`` gates the median pair ratio (exit code 1 below the
bar).  Unlike the thread-pipeline bench, the bar is meaningful even on
a single core: the speedup comes from NumPy vectorization, not
concurrency.  ``--json-out`` (default ``BENCH_batch.json``) writes the
record for CI artifact diffing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

import numpy as np

from protocol import PAIRS, compare, finish, summary
from repro.session import FusionConfig, FusionSession, SyntheticSource
from repro.types import FrameShape

#: frames per batch on the ``batch`` side
BATCH_SIZE = 16


def fused(executor: str, frames: int, size: FrameShape, levels: int,
          batch_size: int, seed: int = 7) -> List[np.ndarray]:
    """One executor's fused frames over a fresh seeded stream."""
    config = FusionConfig(engine="neon", executor=executor,
                          batch_size=batch_size,
                          fusion_shape=size, levels=levels, seed=seed,
                          quality_metrics=False, keep_records=False)
    with FusionSession(config) as session:
        return [r.pixels for r in
                session.stream(SyntheticSource(seed=seed), limit=frames)]


def run_bench(frames: int, size: FrameShape, levels: int,
              batch_size: int = BATCH_SIZE, pairs: int = PAIRS) -> tuple:
    gate = compare({
        "batch": lambda: fused("batch", frames, size, levels, batch_size),
        "serial": lambda: fused("serial", frames, size, levels, 1),
    }, pairs, parity=True)
    text = (f"Batch-executor wall-clock throughput ({frames} frames @ "
            f"{size}, levels={levels}, batch_size={batch_size}, "
            f"cpus={os.cpu_count()}):")
    return text, gate


def test_batch_fusion_throughput(report):
    """Pytest entry: quick pass; parity asserted, speedup reported
    (the hard >= 1.3x bar lives in the script/CI invocation)."""
    text, gate = run_bench(frames=16, size=FrameShape(40, 40), levels=2,
                           batch_size=8, pairs=1)
    report(text + "\n" + summary("speedup", gate))
    assert gate["parity"] and gate["frames"] == [16]
    assert gate["ratio"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=96,
                        help="stream length per run (default 96)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 32 frames, paper geometry")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median batch/serial pair "
                             "ratio >= this")
    parser.add_argument("--json-out", default="BENCH_batch.json",
                        help="machine-readable results path "
                             "('' disables the write)")
    args = parser.parse_args(argv)

    frames = 32 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)
    text, gate = run_bench(frames, size, args.levels)
    print(text)
    gate["bound"] = args.min_speedup
    return finish("batch_fusion", args.json_out, {"speedup": gate},
                  frames=frames, size=str(size), levels=args.levels,
                  batch_size=BATCH_SIZE)


if __name__ == "__main__":
    sys.exit(main())
