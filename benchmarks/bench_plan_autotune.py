"""Plan autotuning: the tuned winner is not slower than the default.

The **autotuner** measures a bounded candidate table once, on a short
calibration prefix, and keeps the fastest (the default config is one
of the candidates, so the winner's own fps in that table can never
trail the default's).  This bench re-measures the decision: it times
the winning config against the default with the benches' one timing
protocol (``protocol.py``: alternating pairs over the same prefix, the
median pair ratio with its IQR), gates that ratio at >= 1.0, and
checks that both fuse bitwise-identical frames, since every tuning
axis preserves output bits.  When the tuner keeps the default there is
nothing to compare, and the gate records a skip with that reason.
(Stage fusion is part of every lowering; the stacked core's speed is
gated by ``bench_nway_fusion.py`` and its bitwise parity by
``tests/properties/test_prop_passes.py``.)

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_plan_autotune.py``;
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_plan_autotune.py --quick \
          --json-out BENCH_autotune.json

``--json-out`` writes the candidate table and the gate record for CI
artifacts.  The autotuner uses a throwaway cache directory so the
bench never reads or pollutes the user's plan cache.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import Dict, List, Tuple

import numpy as np

from protocol import PAIRS, compare, finish, summary
from repro.graph.autotune import PlanAutotuner
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape

#: the bar: the tuned winner at least as fast as the default
MIN_RATIO = 1.0


def fused(config: FusionConfig, prefix: List) -> List[np.ndarray]:
    with FusionSession(config) as session:
        return [r.pixels for r in session.stream(list(prefix))]


def bench_autotune(size: FrameShape, frames: int, levels: int,
                   pairs: int = PAIRS) -> Tuple[str, Dict, List]:
    config = FusionConfig(engine="neon", executor="serial",
                          fusion_shape=size, levels=levels,
                          quality_metrics=False, keep_records=False)
    with tempfile.TemporaryDirectory() as cache_dir:
        tuner = PlanAutotuner(cache_dir=cache_dir,
                              calibration_frames=frames)
        decision = tuner.decide(config)
    rows = [{"overrides": dict(r["overrides"]), "fps": r["fps"]}
            for r in decision.candidates]
    lines = [f"Autotuner candidate table ({frames} calibration frames @ "
             f"{size}, levels={levels}):"]
    for row in rows:
        ov = ", ".join(f"{k}={v!r}" for k, v
                       in sorted(row["overrides"].items()))
        marker = " <- winner" if row["overrides"] == decision.overrides \
            else ""
        lines.append(f"  {row['fps']:8.2f} fps  "
                     f"{ov or 'default'}{marker}")
    if not decision.overrides:
        gate = {"skip": "the tuner kept the default config, so there "
                        "is no winner to compare against it"}
    else:
        # the frames the tuner decided on
        prefix = tuner._calibration_pairs(config)
        winner = decision.apply(config)
        gate = compare({"winner": lambda: fused(winner, prefix),
                        "default": lambda: fused(config, prefix)},
                       pairs, parity=True)
    gate["bound"] = MIN_RATIO
    return "\n".join(lines), gate, rows


def test_plan_autotune(report):
    """Pytest entry: a quick pass over the claim (parity and the
    calibration prefix's length asserted, the ratio reported)."""
    text, gate, rows = bench_autotune(FrameShape(40, 32), frames=3,
                                      levels=2, pairs=1)
    report(text + "\n" + (summary("winner", gate) or gate["skip"]))
    assert rows
    if "skip" not in gate:
        assert gate["parity"] and gate["frames"] == [3]


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

    frames = max(5 if args.quick else args.frames, 2)
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)
    text, gate, rows = bench_autotune(size, frames, args.levels)
    print(text)
    return finish("plan_autotune", args.json_out, {"winner": gate},
                  frames=frames, size=str(size), levels=args.levels,
                  candidates=rows)


if __name__ == "__main__":
    sys.exit(main())
