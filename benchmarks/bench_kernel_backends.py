"""Kernel-backend throughput: the runtime host kernels vs the oracle.

The host-kernel claim is that the halo-extension formulation every
host engine computes with, plus the float32 datapath, buys serial-loop
throughput over the circular-convolution reference without touching
the engine seam: same primitives, same filter banks, same session API.
This bench measures end-to-end serial FPS of one seeded synthetic
stream across the datapath matrix — the test suite's oracle kernels
(``tests/kernel_oracle.py``, one ``np.roll`` per tap) at float64 and
float32 on the ``arm`` engine, and the runtime kernels at both
precisions on the ``jit`` engine — and verifies the parity contract on
the side (the runtime kernels are bitwise-identical to the oracle at
the same precision).

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_kernel_backends.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_kernel_backends.py --quick
      PYTHONPATH=src python benchmarks/bench_kernel_backends.py \
          --frames 64 --min-speedup 2.0

The bench makes ``REPEATS`` (5) passes over the datapath matrix, each
measuring every row once, so a drift in host speed hits all rows
alike; a row's fps is its median over the passes, and the speedup is
the median of the per-pass ratios, reported with its interquartile
range.  ``--min-speedup`` turns the report into an assertion on that
median (exit code 1 when the runtime float32 datapath misses the bar
against the float64 oracle baseline).  The bar holds on one core: the
speedup comes from the halo-extension formulation, preplanned taps and
pooled scratch — and from Numba compilation when it is installed — not
from concurrency.  ``--json-out`` (default ``BENCH_kernels.json``)
writes the rows, every pass's ratio, the median and the IQR for CI
artifact diffing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional
from unittest import mock

import numpy as np

from repro.dtcwt import NUMBA_AVAILABLE
from repro.hw.arm import ArmEngine
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from kernel_oracle import NumpyBackend  # noqa: E402

#: (label, engine, precision) datapath matrix; row 0 is the baseline.
#: ``numpy/*`` rows run the oracle kernels, ``jit/*`` the runtime ones.
DATAPATHS = (
    ("numpy/f64", "arm", "float64"),
    ("numpy/f32", "arm", "float32"),
    ("jit/f64", "jit", "float64"),
    ("jit/f32", "jit", "float32"),
)

#: passes over the datapath matrix the script gates on
REPEATS = 5


def prerender(frames: int, size: FrameShape, seed: int = 7) -> List:
    """A pre-rendered frame-pair prefix shared by every datapath, so
    synthetic-scene rendering cost never dilutes the kernel
    comparison (same trick the plan autotuner uses)."""
    scene = SyntheticScene(width=size.width, height=size.height,
                           seed=seed)
    return [(scene.render_visible(i / 25.0),
             scene.render_thermal(i / 25.0)) for i in range(frames)]


def oracle_kernels():
    """Context in which the ``arm`` engine computes with the oracle's
    :class:`NumpyBackend` instead of the runtime kernels."""
    def make_backend(self, precision=None):
        return NumpyBackend(dtype=self.working_dtype(precision))
    return mock.patch.object(ArmEngine, "make_backend", make_backend)


def measure(engine: str, precision: Optional[str], pairs: List,
            size: FrameShape, levels: int, seed: int = 7,
            oracle: bool = False) -> Dict:
    """Wall-clock FPS of one serial datapath over the shared prefix
    (``oracle=True``: the ``arm`` engine on the oracle kernels)."""
    config = FusionConfig(engine=engine, executor="serial",
                          precision=precision,
                          fusion_shape=size, levels=levels, seed=seed,
                          quality_metrics=False, keep_records=False)
    with oracle_kernels() if oracle else nullcontext(), \
            FusionSession(config) as session:
        start = time.perf_counter()
        count = sum(1 for _ in session.stream(list(pairs)))
        elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "precision": precision or "native",
        "frames": count,
        "elapsed_s": elapsed,
        "fps": count / elapsed if elapsed > 0 else 0.0,
    }


def check_parity(size: FrameShape, levels: int, frames: int = 4,
                 seed: int = 7) -> bool:
    """Spot-check the invariant the speedup must not cost: at each
    precision the runtime kernels' fused frames are bitwise-identical
    to the oracle kernels'."""
    pairs = prerender(frames, size, seed)
    for precision in ("float32", "float64"):
        outputs = []
        for engine, oracle in (("arm", True), ("jit", False)):
            config = FusionConfig(engine=engine, executor="serial",
                                  precision=precision, fusion_shape=size,
                                  levels=levels, seed=seed,
                                  quality_metrics=False,
                                  keep_records=False)
            with oracle_kernels() if oracle else nullcontext(), \
                    FusionSession(config) as session:
                outputs.append([r.pixels for r in
                                session.stream(list(pairs))])
        if not all(np.array_equal(a, b) for a, b in zip(*outputs)):
            return False
    return True


def quartiles(values: List[float]) -> List[float]:
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_bench(frames: int, size: FrameShape, levels: int,
              repeats: int = REPEATS) -> tuple:
    pairs = prerender(frames, size)
    passes = [[measure(engine, precision, pairs, size, levels,
                       oracle=label.startswith("numpy/"))
               for label, engine, precision in DATAPATHS]
              for _ in range(repeats)]
    rows = []
    for i, (label, _, _) in enumerate(DATAPATHS):
        fps = [p[i]["fps"] for p in passes]
        rows.append(dict(passes[0][i], label=label,
                         elapsed_s=sum(p[i]["elapsed_s"] for p in passes),
                         fps=statistics.median(fps), fps_repeats=fps))
    best = next(i for i, d in enumerate(DATAPATHS) if d[0] == "jit/f32")
    ratios = [p[best]["fps"] / p[0]["fps"] if p[0]["fps"] > 0 else 0.0
              for p in passes]
    q1, speedup, q3 = quartiles(ratios)
    base = rows[0]
    parity_ok = check_parity(size, levels)

    lines = [f"Kernel-backend serial throughput ({frames} frames @ "
             f"{size}, levels={levels}, {repeats} repeats, "
             f"cpus={os.cpu_count()}, "
             f"numba={'yes' if NUMBA_AVAILABLE else 'no'}):",
             f"  {'datapath':>10} {'engine':>6} {'dtype':>8} {'fps':>8} "
             f"{'vs f64':>8}"]
    for row in rows:
        ratio = row["fps"] / base["fps"] if base["fps"] > 0 else 0.0
        lines.append(f"  {row['label']:>10} {row['engine']:>6} "
                     f"{row['precision']:>8} {row['fps']:>8.2f} "
                     f"{ratio:>7.2f}x")
    lines.append(f"  jit/f32 speedup: median {speedup:.2f}x "
                 f"[IQR {q1:.2f}-{q3:.2f}] over "
                 + " ".join(f"{r:.2f}" for r in ratios))
    lines.append("")
    lines.append(f"  runtime bitwise-identical to oracle per precision: "
                 f"{'OK' if parity_ok else 'FAILED'}")
    summary = {"speedup_repeats": ratios, "speedup_median": speedup,
               "speedup_iqr": [q1, q3]}
    return "\n".join(lines), rows, summary, parity_ok


def test_kernel_backend_throughput(report):
    """Pytest entry: quick pass; parity asserted, speedup reported
    (the hard >= 2x bar lives in the script/CI invocation)."""
    text, rows, summary, parity_ok = run_bench(
        frames=12, size=FrameShape(40, 40), levels=2, repeats=2)
    report(text)
    assert parity_ok
    assert all(r["frames"] == 12 for r in rows)
    assert all(r["fps"] > 0 for r in rows)
    assert len(summary["speedup_repeats"]) == 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=64,
                        help="stream length per measurement (default 64)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 24 frames, paper geometry")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless jit/f32 (runtime) fps >= this "
                             "multiple of the numpy/f64 (oracle) baseline "
                             "fps")
    parser.add_argument("--json-out", default="BENCH_kernels.json",
                        help="machine-readable results path "
                             "('' disables the write)")
    args = parser.parse_args(argv)

    frames = 24 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)
    text, rows, summary, parity_ok = run_bench(frames, size, args.levels)
    print(text)
    speedup = summary["speedup_median"]

    if args.json_out:
        payload = {
            "bench": "kernel_backends",
            "frames": frames,
            "size": str(size),
            "levels": args.levels,
            "cpus": os.cpu_count(),
            "numba": NUMBA_AVAILABLE,
            "rows": rows,
            "jit_f32_speedup": speedup,
            **summary,
            "parity_ok": parity_ok,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")

    if not parity_ok:
        print("FAIL: runtime output is not bitwise-identical to the "
              "oracle at matching precision", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: jit/f32 speedup {speedup:.2f}x < "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        print(f"OK: jit/f32 speedup {speedup:.2f}x >= "
              f"{args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
