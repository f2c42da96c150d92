"""N-way fusion throughput: stacked group forward vs separate forwards.

The N-way core's claim is that a frame *group* is already a batch: all
``N`` sources of one group ride a single stacked ``(N, H, W)`` forward
transform (plus vectorized coefficient reduction and one stacked
inverse), amortizing the per-call Python dispatch that separate
per-source forwards pay ``N`` times — without changing one output bit.
This bench fuses a seeded visible+IR+depth triple stream both ways
with the benches' one timing protocol (``protocol.py``: alternating
pairs, the median pair ratio with its IQR) and checks on every run
that both ways fuse bitwise-identical frames.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_nway_fusion.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_nway_fusion.py --quick
      PYTHONPATH=src python benchmarks/bench_nway_fusion.py \
          --frames 96 --sources 4 --min-speedup 1.5

``--min-speedup`` gates the median pair ratio (exit code 1 when the
stacked path misses the bar).  Like the batch-executor bench the bar
is meaningful on a single core: the speedup is NumPy vectorization,
not concurrency.  ``--json-out`` (default ``BENCH_nway.json``) writes
the record for CI artifact diffing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

import numpy as np

from protocol import PAIRS, compare, finish, summary
from repro.core.fusion import ImageFusion
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

#: modality cycle used to synthesize N co-registered source streams
MODALITIES = ("visible", "thermal", "depth")

#: ``--quick`` groups per run at 40x40/L2
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


def fuse_separately(fusion: ImageFusion,
                    group: List[np.ndarray]) -> np.ndarray:
    """The per-source reference: one forward per source frame, then
    :meth:`ImageFusion.combine` and :meth:`ImageFusion.reconstruct`."""
    pyramids = [fusion.decompose(frame) for frame in group]
    return fusion.reconstruct(fusion.combine(*pyramids))


def run_bench(frames: int, n_sources: int, size: FrameShape,
              levels: int, pairs: int = PAIRS) -> tuple:
    """``stacked`` rides each group through :meth:`ImageFusion.fuse`
    — one ``(N, H, W)`` forward, vectorized reduction, one inverse,
    the same stages the session's stacked core runs; ``separate`` is
    :func:`fuse_separately`, the naive N-way generalization."""
    groups = render_groups(frames, n_sources, size)
    fusion = ImageFusion(levels=levels)
    gate = compare({
        "stacked": lambda: [fusion.fuse(*g).fused for g in groups],
        "separate": lambda: [fuse_separately(fusion, g) for g in groups],
    }, pairs, parity=True)
    text = (f"N-way stacked-forward throughput ({frames} groups x "
            f"{n_sources} sources @ {size}, levels={levels}, "
            f"cpus={os.cpu_count()}):")
    return text, gate


def test_nway_fusion_throughput(report):
    """Pytest entry: quick pass; parity asserted, speedup reported
    (the hard >= 1.5x bar lives in the script/CI invocation)."""
    text, gate = run_bench(frames=16, n_sources=3,
                           size=FrameShape(40, 40), levels=2, pairs=1)
    report(text + "\n" + summary("speedup", gate))
    assert gate["parity"] and gate["frames"] == [16]
    assert gate["ratio"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=96,
                        help="frame groups per run (default 96)")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke mode: {QUICK_GROUPS} groups at "
                             f"40x40, levels=2")
    parser.add_argument("--sources", type=int, default=3,
                        help="sources per frame group (default 3)")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median stacked/separate "
                             "pair ratio >= this")
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
    text, gate = run_bench(frames, args.sources, size, levels)
    print(text)
    gate["bound"] = args.min_speedup
    return finish("nway_fusion", args.json_out, {"speedup": gate},
                  frames=frames, sources=args.sources, size=str(size),
                  levels=levels)


if __name__ == "__main__":
    sys.exit(main())
