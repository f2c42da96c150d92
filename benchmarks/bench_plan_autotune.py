"""Plan optimization & autotuning: measured wall-clock gain, same bits.

Two claims are on trial:

* the **pass pipeline** (stateless stage fusion + materialization
  elimination) alone must buy at least
  ``--min-speedup`` (default 1.3x) serial-executor FPS over the
  unoptimized plan, while every output frame stays bitwise identical;
* the **autotuner**'s winner must be at least as fast as the default
  configuration — by construction the incumbent is always a candidate,
  and this bench re-verifies the invariant empirically on the
  measured candidate table.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_plan_autotune.py``;
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_plan_autotune.py --quick \
          --json-out BENCH_autotune.json

``--json-out`` writes the rows machine-readably for CI artifacts.  The
autotuner uses a throwaway cache directory so the bench never reads or
pollutes the user's plan cache.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.autotune import PlanAutotuner
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.scene import SyntheticScene


def render_pairs(size: FrameShape, frames: int,
                 seed: int = 2016) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A deterministic pre-rendered clip: rendering cost must not
    contaminate the executor comparison."""
    scene = SyntheticScene(width=size.width, height=size.height,
                           seed=seed)
    return [(scene.render_visible(i / 25.0), scene.render_thermal(i / 25.0))
            for i in range(frames)]


def measure(config: FusionConfig, pairs) -> Dict:
    """Wall-clock FPS (and output frames) of one config on the clip."""
    with FusionSession(config) as session:
        start = time.perf_counter()
        frames = [r.frame.pixels for r in session.stream(list(pairs))]
        elapsed = time.perf_counter() - start
    return {"fps": len(frames) / elapsed if elapsed > 0 else 0.0,
            "elapsed_s": elapsed, "frames": frames}


def bench_passes(size: FrameShape, frames: int,
                 levels: int) -> Tuple[str, Dict]:
    pairs = render_pairs(size, frames)
    base_cfg = FusionConfig(engine="neon", executor="serial",
                            fusion_shape=size, levels=levels,
                            quality_metrics=False, keep_records=False)
    plain = measure(base_cfg, pairs)
    tuned = measure(base_cfg.with_overrides(optimize=True), pairs)
    parity = all(np.array_equal(a, b)
                 for a, b in zip(plain["frames"], tuned["frames"]))
    speedup = (tuned["fps"] / plain["fps"]) if plain["fps"] > 0 else 0.0
    text = "\n".join([
        f"Optimization passes, serial executor ({frames} frames @ "
        f"{size}, levels={levels}):",
        f"  unoptimized : {plain['fps']:8.2f} fps",
        f"  optimized   : {tuned['fps']:8.2f} fps  "
        f"({speedup:.2f}x, bitwise parity: "
        f"{'yes' if parity else 'NO'})",
    ])
    row = {"unoptimized_fps": plain["fps"], "optimized_fps": tuned["fps"],
           "speedup": speedup, "parity": parity}
    return text, row


def bench_autotune(size: FrameShape, frames: int,
                   levels: int) -> Tuple[str, Dict]:
    config = FusionConfig(engine="neon", executor="serial",
                          fusion_shape=size, levels=levels,
                          quality_metrics=False, keep_records=False)
    with tempfile.TemporaryDirectory() as cache_dir:
        tuner = PlanAutotuner(cache_dir=cache_dir,
                              calibration_frames=frames)
        decision = tuner.decide(config)
    rows = [{"overrides": dict(r["overrides"]), "fps": r["fps"]}
            for r in decision.candidates]
    default_fps = next(r["fps"] for r in rows if not r["overrides"])
    lines = [f"Autotuner candidate table ({frames} calibration frames @ "
             f"{size}, levels={levels}):"]
    for row in rows:
        ov = ", ".join(f"{k}={v!r}" for k, v
                       in sorted(row["overrides"].items()))
        marker = " <- winner" if row["overrides"] == decision.overrides \
            else ""
        lines.append(f"  {row['fps']:8.2f} fps  "
                     f"{ov or 'default'}{marker}")
    lines.append(f"  winner vs default: "
                 f"{decision.fps / default_fps:.2f}x")
    payload = {"winner": dict(decision.overrides),
               "winner_fps": decision.fps,
               "default_fps": default_fps,
               "candidates": rows}
    return "\n".join(lines), payload


def test_plan_autotune(report):
    """Pytest entry: a quick pass over both claims."""
    size = FrameShape(40, 32)
    text_p, passes = bench_passes(size, frames=6, levels=2)
    text_t, tune = bench_autotune(size, frames=3, levels=2)
    report(text_p + "\n\n" + text_t)
    assert passes["parity"], "optimized plan changed output bits"
    assert passes["speedup"] > 1.0
    assert tune["winner_fps"] >= tune["default_fps"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=24,
                        help="clip length for the pass comparison")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 10 frames")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="fail unless optimized serial fps >= this "
                             "multiple of unoptimized (default 1.3)")
    parser.add_argument("--json-out", default=None,
                        help="write the measurements as JSON")
    args = parser.parse_args(argv)

    frames = 10 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)

    text_p, passes = bench_passes(size, frames, args.levels)
    print(text_p)
    text_t, tune = bench_autotune(size, max(frames // 2, 2), args.levels)
    print(text_t)

    if args.json_out:
        payload = {"frames": frames, "size": str(size),
                   "levels": args.levels, "passes": passes,
                   "autotune": tune}
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.json_out}")

    failed = False
    if not passes["parity"]:
        print("FAIL: optimized plan is not bitwise-identical to the "
              "unoptimized plan", file=sys.stderr)
        failed = True
    if passes["speedup"] < args.min_speedup:
        print(f"FAIL: passes bought only {passes['speedup']:.2f}x "
              f"serial fps (< {args.min_speedup:.2f}x)", file=sys.stderr)
        failed = True
    if tune["winner_fps"] < tune["default_fps"]:
        print(f"FAIL: autotuned plan ({tune['winner_fps']:.2f} fps) is "
              f"slower than the default ({tune['default_fps']:.2f} fps)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
