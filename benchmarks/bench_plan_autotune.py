"""Plan autotuning: the measured winner is never worse than the default.

The **autotuner**'s winner must be at least as fast as the default
configuration — by construction the incumbent is always a candidate,
and this bench re-verifies the invariant empirically on the measured
candidate table.  (Stage fusion is part of every lowering; the
stacked core's speed is gated by ``bench_nway_fusion.py`` and its
bitwise parity by ``tests/properties/test_prop_passes.py``.)

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
from typing import Dict, Tuple

from repro.graph.autotune import PlanAutotuner
from repro.session import FusionConfig
from repro.types import FrameShape


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
    """Pytest entry: a quick pass over the claim."""
    text, tune = bench_autotune(FrameShape(40, 32), frames=3, levels=2)
    report(text)
    assert tune["winner_fps"] >= tune["default_fps"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=12,
                        help="calibration frames per candidate")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 5 calibration frames")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--json-out", default=None,
                        help="write the measurements as JSON")
    args = parser.parse_args(argv)

    frames = 5 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)

    text, tune = bench_autotune(size, max(frames, 2), args.levels)
    print(text)

    if args.json_out:
        payload = {"frames": frames, "size": str(size),
                   "levels": args.levels, "autotune": tune}
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.json_out}")

    if tune["winner_fps"] < tune["default_fps"]:
        print(f"FAIL: autotuned plan ({tune['winner_fps']:.2f} fps) is "
              f"slower than the default ({tune['default_fps']:.2f} fps)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
