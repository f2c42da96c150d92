"""Service throughput: N concurrent streams vs back-to-back serial runs.

The serving layer's claim is that multiplexing independent streams
over one shared engine pool buys *aggregate* wall-clock throughput —
micro-batched plan interpretation amortizes per-frame Python overhead
inside NumPy even on one core, and multi-core hosts additionally
overlap streams across pool engines — without changing a single output
bit of any stream.  This bench runs the mixed 4-stream acceptance
workload (two small-frame batch streams, one temporal, one
registration) through :class:`repro.serve.FusionService` on a shared
``1×ARM + 1×NEON + 2×FPGA`` pool, against the obvious baseline:
running the same four streams back-to-back, serially, one session at a
time.  Both sides are timed by the benches' one timing protocol
(``protocol.py``: alternating pairs, the median pair ratio with its
IQR), and every run of both must fuse bitwise-identical frames.

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_service_throughput.py``;
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick
      PYTHONPATH=src python benchmarks/bench_service_throughput.py \
          --scale 2 --min-speedup 1.5

``--quick`` gates on the acceptance bar (median ratio >= 1.5x
the back-to-back serial baseline) unless ``--min-speedup`` overrides
it; ``--json-out`` writes the record for CI artifacts (the
``BENCH_serve.json`` upload).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from protocol import PAIRS, compare, finish, summary
from repro.serve import FusionService
from repro.session import ArraySource, FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.scaler import resize_to
from repro.video.scene import SyntheticScene

SMALL = FrameShape(32, 24)
MID = FrameShape(40, 40)

#: the acceptance pool: the paper's board plus a second FPGA fabric
POOL = {"arm": 1, "neon": 1, "fpga": 2}

#: (name, config overrides, seed, frames at scale 1) — batch streams
#: carry more frames, the realistic shape of bulk batch tenants (the
#: CPU engines, whose NumPy kernels vectorize across stacked frames)
#: sharing a box with two latency-ish streams pinned to the FPGAs
WORKLOAD: Tuple[Tuple[str, Dict, int, int], ...] = (
    ("batch-a", dict(engine="arm", executor="batch", batch_size=16,
                     fusion_shape=SMALL), 11, 32),
    ("batch-b", dict(engine="neon", executor="batch", batch_size=16,
                     fusion_shape=SMALL), 12, 32),
    ("temporal", dict(engine="fpga", temporal=True,
                      fusion_shape=MID), 13, 8),
    ("registration", dict(engine="fpga", registration=True,
                          fusion_shape=MID), 14, 8),
)


def build_config(overrides: Dict) -> FusionConfig:
    base = dict(levels=2, seed=5, quality_metrics=False,
                keep_records=True)
    base.update(overrides)
    return FusionConfig(**base)


def recorded_footage(workload, scale: int) -> Dict[str, ArraySource]:
    """Each stream's pre-rendered frame pairs at its fusion geometry.

    The benches compare *execution strategies*, so both sides replay
    identical recorded footage (the realistic serving input) instead
    of paying the synthetic scene's full-resolution render inside the
    measured interval — that cost is identical dead weight on both
    sides and only dilutes the comparison.
    """
    footage = {}
    for name, overrides, seed, frames in workload:
        shape = build_config(overrides).fusion_shape.array_shape
        scene = SyntheticScene(seed=seed)
        times = [i / 25.0 for i in range(frames * scale)]
        footage[name] = ArraySource(
            [resize_to(scene.render_visible(t_s), shape) for t_s in times],
            [resize_to(scene.render_thermal(t_s), shape) for t_s in times])
    return footage


def serve(service, workload, footage: Dict[str, ArraySource],
          scale: int, keep: Optional[Dict] = None) -> List[np.ndarray]:
    """Serve every stream of ``workload`` on ``service``; returns the
    fused frames stream by stream (``keep["report"]`` gets the
    :class:`~repro.serve.ServiceReport`)."""
    for name, overrides, seed, frames in workload:
        service.add_stream(name, config=build_config(overrides),
                           source=footage[name], frames=frames * scale)
    report = service.serve()
    if keep is not None:
        keep["report"] = report
    return [r.pixels for name, *_ in workload
            for r in report.streams[name].records]


def service_stats(report) -> Dict:
    """What a service run reports beyond its frames: engine occupancy,
    admission, pool leases and each stream's figures."""
    return {
        "engine_occupancy": dict(report.engine_occupancy),
        "admission": dict(report.admission),
        "pool_stats": dict(report.pool),
        "streams": {
            name: {"frames": stream.frames,
                   "served_fps": stream.throughput["wall_fps"],
                   "grants": stream.throughput["grants"],
                   "model_mj": stream.model_millijoules_total}
            for name, stream in report.streams.items()},
    }


def back_to_back(footage: Dict[str, ArraySource],
                 scale: int) -> List[np.ndarray]:
    """The four streams back-to-back, serially, one session at a time."""
    out = []
    for name, overrides, seed, frames in WORKLOAD:
        config = build_config(overrides).with_overrides(executor="serial")
        with FusionSession(config) as session:
            report = session.run(frames * scale, source=footage[name])
        out += [r.pixels for r in report.records]
    return out


def run_bench(scale: int, pairs: int = PAIRS) -> Tuple[str, Dict, Dict]:
    footage = recorded_footage(WORKLOAD, scale)
    last: Dict = {}
    # budget sized so every batch tenant can fill a whole micro-batch
    # (saturation would force partial grants and forfeit vectorization)
    gate = compare({
        "service": lambda: serve(
            FusionService(pool=POOL, max_in_flight=len(WORKLOAD) * 16,
                          stream_queue_depth=16),
            WORKLOAD, footage, scale, last),
        "serial": lambda: back_to_back(footage, scale),
    }, pairs, parity=True)
    stats = service_stats(last["report"])
    total = sum(frames * scale for *_, frames in WORKLOAD)
    pool = stats["pool_stats"]
    text = "\n".join([
        f"Service throughput: {len(WORKLOAD)} concurrent streams on a "
        f"shared {POOL} pool against back-to-back serial runs ({total} "
        f"frames a run, cpus={os.cpu_count()}); the last service run:",
        "  engine occupancy: " + ", ".join(
            f"{label} {frac:.0%}"
            for label, frac in stats["engine_occupancy"].items()),
        f"  pool leases: {pool['granted']} granted, {pool['released']} "
        f"released, peak {pool['peak_outstanding']} outstanding"])
    return text, gate, stats


def test_service_throughput(report):
    """Pytest entry: a short pass proving completion + bitwise parity
    (the speedup gate runs in script mode, where the machine is known)."""
    text, gate, _ = run_bench(scale=1, pairs=1)
    report(text + "\n" + summary("speedup", gate))
    assert gate["parity"]
    assert gate["frames"] == [sum(frames for *_, frames in WORKLOAD)]
    assert gate["ratio"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: scale 1 and gate at the "
                             "acceptance bar (1.5x) unless "
                             "--min-speedup overrides it")
    parser.add_argument("--scale", type=int, default=2,
                        help="frame-count multiplier per stream "
                             "(default 2; --quick forces 1)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the median service/serial "
                             "pair ratio >= this")
    parser.add_argument("--json-out", default=None,
                        help="write the record as JSON")
    args = parser.parse_args(argv)

    scale = 1 if args.quick else args.scale
    min_speedup = args.min_speedup
    if min_speedup is None and args.quick:
        min_speedup = 1.5

    text, gate, stats = run_bench(scale)
    print(text)
    gate["bound"] = min_speedup
    return finish("service_throughput", args.json_out, {"speedup": gate},
                  pool=dict(POOL), scale=scale, **stats)


if __name__ == "__main__":
    sys.exit(main())
