"""Kernel-backend throughput: the runtime host kernels vs the oracle.

The host-kernel claim is that the halo-extension formulation every
host engine computes with, plus the float32 datapath, buys serial-loop
throughput over the circular-convolution reference without touching
the engine seam: same primitives, same filter banks, same session API.
This bench times one seeded synthetic stream through the runtime
kernels at float32 on the ``jit`` engine against the test suite's
oracle kernels (``tests/kernel_oracle.py``, one ``np.roll`` per tap)
at float64 on the ``arm`` engine, with the benches' one timing
protocol (``protocol.py``: alternating pairs, the median pair ratio
with its IQR), and verifies the parity contract on the side: at each
precision the runtime kernels are bitwise-identical to the oracle.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_kernel_backends.py``;
* as a script with a CI-friendly quick mode that also emits a
  machine-readable summary::

      PYTHONPATH=src python benchmarks/bench_kernel_backends.py --quick
      PYTHONPATH=src python benchmarks/bench_kernel_backends.py \
          --frames 64 --min-speedup 2.0

``--min-speedup`` gates the median pair ratio (exit code 1 when the
runtime float32 datapath misses the bar against the float64 oracle
baseline).  The bar holds on one core: the speedup comes from the
halo-extension formulation, preplanned taps and pooled scratch — and
from Numba compilation when it is installed — not from concurrency.
``--json-out`` (default ``BENCH_kernels.json``) writes the record for
CI artifact diffing.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import List, Optional
from unittest import mock

import numpy as np

from protocol import PAIRS, compare, digest, finish, summary
from repro.dtcwt import NUMBA_AVAILABLE
from repro.hw.arm import ArmEngine
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from kernel_oracle import NumpyBackend  # noqa: E402


def prerender(frames: int, size: FrameShape, seed: int = 7) -> List:
    """A pre-rendered frame-pair prefix shared by every datapath, so
    synthetic-scene rendering cost never dilutes the kernel
    comparison."""
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


def fused(engine: str, precision: Optional[str], pairs: List,
          size: FrameShape, levels: int, seed: int = 7,
          oracle: bool = False) -> List[np.ndarray]:
    """One serial datapath's fused frames over the shared prefix
    (``oracle=True``: the ``arm`` engine on the oracle kernels)."""
    config = FusionConfig(engine=engine, executor="serial",
                          precision=precision,
                          fusion_shape=size, levels=levels, seed=seed,
                          quality_metrics=False, keep_records=False)
    with oracle_kernels() if oracle else nullcontext(), \
            FusionSession(config) as session:
        return [r.pixels for r in session.stream(list(pairs))]


def check_parity(size: FrameShape, levels: int, frames: int = 4) -> bool:
    """The invariant the speedup must not cost: at each precision the
    runtime kernels' fused frames are bitwise-identical to the oracle
    kernels'."""
    pairs = prerender(frames, size)
    return all(
        digest(fused("arm", precision, pairs, size, levels, oracle=True))
        == digest(fused("jit", precision, pairs, size, levels))
        for precision in ("float32", "float64"))


def run_bench(frames: int, size: FrameShape, levels: int,
              pairs: int = PAIRS) -> tuple:
    prefix = prerender(frames, size)
    gate = compare({
        "jit/f32": lambda: fused("jit", "float32", prefix, size, levels),
        "numpy/f64": lambda: fused("arm", "float64", prefix, size,
                                   levels, oracle=True),
    }, pairs)
    text = (f"Kernel-backend serial throughput ({frames} frames @ "
            f"{size}, levels={levels}, cpus={os.cpu_count()}, "
            f"numba={'yes' if NUMBA_AVAILABLE else 'no'}):")
    return text, gate, check_parity(size, levels)


def test_kernel_backend_throughput(report):
    """Pytest entry: quick pass; parity asserted, speedup reported
    (the hard >= 2x bar lives in the script/CI invocation)."""
    text, gate, parity_ok = run_bench(frames=12, size=FrameShape(40, 40),
                                      levels=2, pairs=1)
    report(text + "\n" + summary("speedup", gate))
    assert parity_ok and gate["frames"] == [12]
    assert gate["ratio"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=64,
                        help="stream length per run (default 64)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 24 frames, paper geometry")
    parser.add_argument("--size", default="88x72",
                        help="fusion geometry, e.g. 88x72")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median jit/f32 (runtime) "
                             "over numpy/f64 (oracle) pair ratio >= this")
    parser.add_argument("--json-out", default="BENCH_kernels.json",
                        help="machine-readable results path "
                             "('' disables the write)")
    args = parser.parse_args(argv)

    frames = 24 if args.quick else args.frames
    width, height = (int(v) for v in args.size.lower().split("x"))
    size = FrameShape(width, height)
    text, gate, parity_ok = run_bench(frames, size, args.levels)
    print(text)
    gate["bound"] = args.min_speedup
    return finish("kernel_backends", args.json_out, {"speedup": gate},
                  checks={"runtime kernels bitwise-identical to the "
                          "oracle at each precision": parity_ok},
                  frames=frames, size=str(size), levels=args.levels,
                  numba=NUMBA_AVAILABLE)


if __name__ == "__main__":
    sys.exit(main())
