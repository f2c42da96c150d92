"""N-way fusion throughput: stacked group forward vs separate forwards.

The N-way core's claim is that a frame *group* is already a batch: all
``N`` sources of one group ride a single stacked ``(N, H, W)`` forward
transform (plus vectorized coefficient reduction and one stacked
inverse), amortizing the per-call Python dispatch that separate
per-source forwards pay ``N`` times — without changing one output bit.
This bench fuses a seeded visible+IR+depth triple stream both ways and
compares wall-clock FPS, verifying the bitwise-parity claim on the
side.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_nway_fusion.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_nway_fusion.py --quick
      PYTHONPATH=src python benchmarks/bench_nway_fusion.py \
          --frames 96 --sources 4 --min-speedup 1.5

The bench makes ``REPEATS`` (5) passes over the same groups, each
alternating the two strategies group by group, so a drift in host
speed hits both sides alike; the speedup is the median of the
per-repeat ratios, reported with its interquartile range.
``--min-speedup`` turns the report into an assertion on that median
(exit code 1 when the stacked path misses the bar).  Like the batch-executor bench the bar is
meaningful on a single core: the speedup is NumPy vectorization, not
concurrency.  ``--json-out`` (default ``BENCH_nway.json``) writes every
repeat, the median and the IQR for CI artifact diffing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

from repro.core.fusion import ImageFusion
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

#: modality cycle used to synthesize N co-registered source streams
MODALITIES = ("visible", "thermal", "depth")

#: alternating separate/stacked passes the script gates on
REPEATS = 5

#: ``--quick`` groups per pass at 40x40/L2: over ``REPEATS`` passes,
#: each side's total wall is >= 2 s on a 2-CPU host
QUICK_GROUPS = 48


def render_groups(frames: int, n_sources: int, size: FrameShape,
                  seed: int = 7) -> List[List[np.ndarray]]:
    """``frames`` co-registered N-frame groups at the fusion geometry."""
    scene = SyntheticScene(width=size.width, height=size.height,
                           seed=seed)
    groups = []
    for index in range(frames):
        t_s = index / 25.0
        groups.append([
            scene.render(MODALITIES[s % len(MODALITIES)], t_s)
            for s in range(n_sources)
        ])
    return groups


def fuse_group(mode: str, fusion: ImageFusion,
               group: List[np.ndarray]) -> None:
    """Fuse one group with one strategy.

    ``separate`` runs one forward per source (the naive N-way
    generalization, and the slow reference); ``stacked`` rides the
    group through :meth:`ImageFusion.fuse` — one ``(N, H, W)``
    forward, vectorized reduction, one inverse — the same stages the
    session's stacked core runs.
    """
    if mode == "separate":
        fuse_separately(fusion, group)
    else:
        fusion.fuse(*group)


def fuse_separately(fusion: ImageFusion,
                    group: List[np.ndarray]) -> np.ndarray:
    """The per-source reference: one forward per source frame, then
    :meth:`ImageFusion.combine` and :meth:`ImageFusion.reconstruct`."""
    pyramids = [fusion.decompose(frame) for frame in group]
    return fusion.reconstruct(fusion.combine(*pyramids))


def measure(groups: List[List[np.ndarray]],
            levels: int) -> Dict[str, float]:
    """Wall seconds of each strategy over the pre-rendered groups.

    The strategies alternate group by group (and which goes first
    alternates too), so a drift in host speed lands on both sides
    alike instead of on whichever pass it happened to overlap.
    """
    fusion = ImageFusion(levels=levels)
    elapsed = {"separate": 0.0, "stacked": 0.0}
    for index, group in enumerate(groups):
        order = ("separate", "stacked") if index % 2 == 0 \
            else ("stacked", "separate")
        for mode in order:
            start = time.perf_counter()
            fuse_group(mode, fusion, group)
            elapsed[mode] += time.perf_counter() - start
    return elapsed


def check_parity(groups: List[List[np.ndarray]], levels: int) -> bool:
    """The invariant the speedup must not cost: the stacked group path
    is bitwise-identical to separate forwards."""
    fusion = ImageFusion(levels=levels)
    for group in groups[:4]:
        if not np.array_equal(fuse_separately(fusion, group),
                              fusion.fuse(*group).fused):
            return False
    return True


def quartiles(values: List[float]) -> List[float]:
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_bench(frames: int, n_sources: int, size: FrameShape,
              levels: int, repeats: int = REPEATS) -> tuple:
    groups = render_groups(frames, n_sources, size)
    measure(groups[:2], levels)  # warm both paths' filter caches
    repeats_rows = []
    for _ in range(repeats):
        elapsed = measure(groups, levels)
        repeats_rows.append({
            "separate_s": elapsed["separate"],
            "stacked_s": elapsed["stacked"],
            "ratio": elapsed["separate"] / elapsed["stacked"],
        })
    ratios = [r["ratio"] for r in repeats_rows]
    q1, speedup, q3 = quartiles(ratios)
    rows = []
    for mode in ("separate", "stacked"):
        walls = [r[f"{mode}_s"] for r in repeats_rows]
        median_s = statistics.median(walls)
        rows.append({"mode": mode, "frames": frames,
                     "wall_s": sum(walls), "median_elapsed_s": median_s,
                     "fps": frames / median_s if median_s > 0 else 0.0})
    parity_ok = check_parity(groups, levels)

    lines = [f"N-way stacked-forward throughput ({frames} groups x "
             f"{n_sources} sources @ {size}, levels={levels}, "
             f"{repeats} repeats, cpus={os.cpu_count()}):",
             f"  {'mode':>9} {'median fps':>11} {'total wall':>11}"]
    for row in rows:
        lines.append(f"  {row['mode']:>9} {row['fps']:>11.2f} "
                     f"{row['wall_s']:>10.2f}s")
    lines.append(f"  stacked speedup: median {speedup:.2f}x "
                 f"[IQR {q1:.2f}-{q3:.2f}] over "
                 + " ".join(f"{r:.2f}" for r in ratios))
    lines.append("")
    lines.append(f"  bitwise parity with separate forwards: "
                 f"{'OK' if parity_ok else 'FAILED'}")
    summary = {"repeats": repeats_rows, "speedup_median": speedup,
               "speedup_iqr": [q1, q3]}
    return "\n".join(lines), rows, summary, parity_ok


def test_nway_fusion_throughput(report):
    """Pytest entry: quick pass; parity asserted, speedup reported
    (the hard >= 1.5x bar lives in the script/CI invocation)."""
    text, rows, summary, parity_ok = run_bench(
        frames=16, n_sources=3, size=FrameShape(40, 40), levels=2,
        repeats=3)
    report(text)
    assert parity_ok
    assert all(r["frames"] == 16 for r in rows)
    assert all(r["fps"] > 0 for r in rows)
    assert len(summary["repeats"]) == 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=96,
                        help="frame groups per measurement (default 96)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small geometry, sized so "
                             "each side's total wall is >= 2 s")
    parser.add_argument("--sources", type=int, default=3,
                        help="sources per frame group (default 3)")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless stacked fps >= this multiple "
                             "of separate-forward fps")
    parser.add_argument("--json-out", default="BENCH_nway.json",
                        help="machine-readable results path "
                             "('' disables the write)")
    args = parser.parse_args(argv)

    frames = QUICK_GROUPS if args.quick else args.frames
    if args.quick:
        size, levels = FrameShape(40, 40), 2
    else:
        width, height = (int(v) for v in args.size.lower().split("x"))
        size, levels = FrameShape(width, height), args.levels
    text, rows, summary, parity_ok = run_bench(frames, args.sources,
                                               size, levels)
    speedup = summary["speedup_median"]
    print(text)

    if args.json_out:
        payload = {
            "bench": "nway_fusion",
            "frames": frames,
            "sources": args.sources,
            "size": str(size),
            "levels": levels,
            "cpus": os.cpu_count(),
            "rows": rows,
            "stacked_speedup": speedup,
            **summary,
            "parity_ok": parity_ok,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")

    if not parity_ok:
        print("FAIL: stacked output is not bitwise-identical to "
              "separate forwards", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: stacked speedup {speedup:.2f}x < "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        print(f"OK: stacked speedup {speedup:.2f}x >= "
              f"{args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
