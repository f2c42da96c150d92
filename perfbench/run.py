"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

``--trace 0`` runs the workload with tracing off and reports the
end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` splits
its seconds into short drives, alternately untraced and traced, and
reports the per-layer metrics of the traced ones: per-frame self time
and call counts of every layer, the wall-time remainder no layer
accounts for, the modelled Zynq cost per stage and the tracing
overhead.  ``perfbench/README.md`` says which end-to-end metric each
layer should move.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs every workload both ways, each in its own
process, and prints every table.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("capture-default", "replay-batch", "serve-mixed")

#: untraced/traced drive pairs in a traced run.  The host's speed
#: drifts over seconds, so the overhead is the median of pairs run
#: back to back, the order alternating, not one long drive of each.
TRACE_PAIRS = 4

#: work layers reported as self ms per frame (and calls per frame)
FRAME_LAYERS = (
    ("video.webcam", False), ("video.thermal_encode", False),
    ("video.bt656_decode", False), ("video.scaler", True),
    ("session.resize", False), ("hw.cost_model", True),
    ("dtcwt.forward", True), ("dtcwt.inverse", True),
    ("core.fusion_rules", False), ("core.metrics", False),
)


def host_fingerprint(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def tail_latency(samples):
    """(value, percentile, samples beyond it) at the highest percentile
    with at least ten samples beyond it; the maximum when there are too
    few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(drive, setup_times, rss_mb) -> tuple:
    """The end-to-end metrics of one untraced drive, plus notes.  Wall
    and frame times are corrected for the host's speed: by the probes
    taken after each delivery of a single-threaded loop, or by the
    probe thread beside a service."""
    clock = drive.clock
    if clock is not None:
        latencies = [clock.corrected(asked, done) * 1e3
                     for t in drive.tallies for asked, done
                     in zip(t.source.requested, t.delivered)]
        wall_s = clock.corrected(drive.start, drive.start + drive.wall_s)
    else:
        latencies = [s * 1e3 for t in drive.tallies
                     for s in t.latencies_s()]
        wall_s = sum(t.corrected_wall_s() for t in drive.tallies)
    raw = [s * 1e3 for t in drive.tallies for s in t.raw_latencies_s()]
    tail, percentile, beyond = tail_latency(latencies)
    frames = max(1, drive.frames)
    qabf = [q for t in drive.tallies for q in t.qabf]
    millijoules = sum(mj for t in drive.tallies for mj in t.millijoules)
    metrics = {
        "fps": metric(drive.frames / wall_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(tail, "ms"),
        "model_mj_per_frame": metric(millijoules / frames, "mJ"),
        "fusion_qabf": metric(statistics.fmean(qabf), "ratio"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "rss_peak_mb": metric(rss_mb, "MB"),
    }
    notes = {
        "fps": f"host-corrected; wall {drive.frames / drive.wall_s:.4f}",
        "latency_p50_ms": f"host-corrected; uncorrected "
                          f"{statistics.median(raw):.4f}",
        "latency_tail_ms": f"p{percentile:.1f}, {beyond} samples beyond "
                           f"it, {len(latencies)} samples",
        "setup_s": f"host-corrected median of {len(setup_times)} "
                   f"constructions",
    }
    if "serve.all_active_s" in drive.counters:
        share = drive.counters["serve.all_active_s"] / drive.wall_s
        notes["fps"] += f"; all tenants running for {share:.1%} of it"
    return metrics, notes


def per_layer(tracer, traced, overhead_pct, split, builds) -> dict:
    """The per-layer metrics of the traced drives; set-up layers are
    per construction (``builds`` of them), the rest per frame."""
    frames = max(1, traced.frames)
    per_frame = 1e3 / frames
    counters = traced.counters
    metrics = {}
    for layer, with_calls in FRAME_LAYERS:
        metrics[f"{layer}_ms"] = metric(
            tracer.self_s("drive", layer) * per_frame, "ms")
        if with_calls:
            metrics[f"{layer}_calls"] = metric(
                tracer.calls("drive", layer) / frames, "count")
    metrics["video.bt656_bytes"] = metric(
        tracer.counter("drive", "video.bt656_bytes") / frames, "B")
    for name in ("video.bt656_errors", "video.bt656_corrected"):
        metrics[name] = metric(counters.get(name, 0) / frames, "count")
    pushed = counters.get("video.fifo_pushed", 0)
    metrics["video.fifo_delivered_ratio"] = metric(
        counters.get("video.fifo_popped", 0) / pushed if pushed else 0.0,
        "ratio")
    metrics["hw.cost_model_setup_ms"] = metric(
        tracer.self_s("setup", "hw.cost_model") * 1e3 / builds, "ms")
    metrics["graph.lower_ms"] = metric(
        tracer.self_s("setup", "graph.lower") * 1e3 / builds, "ms")
    metrics["hw.hls_ms"] = metric(
        tracer.self_s("drive", "hw.hls") * per_frame, "ms")
    metrics["hw.hls_line_calls"] = metric(
        tracer.calls("drive", "hw.hls") / frames, "count")
    metrics["serve.admission_wait_ms"] = metric(
        tracer.inclusive_s("drive", "serve.admission_wait") * per_frame,
        "ms")
    metrics["serve.lease_wait_ms"] = metric(
        tracer.inclusive_s("drive", "serve.lease_wait") * per_frame, "ms")
    metrics["serve.leases_granted"] = metric(
        tracer.counter("drive", "serve.leases_granted") / frames, "count")
    for engine in ("arm", "neon", "fpga"):
        metrics[f"serve.occupancy.{engine}"] = metric(
            traced.occupancy.get(engine, 0.0), "ratio")
    metrics["serve.all_tenants_active_ratio"] = metric(
        counters.get("serve.all_active_s", 0.0) / traced.wall_s, "ratio")
    metrics["exec.unattributed_ms"] = metric(
        (traced.wall_s - tracer.work_self_s("drive")) * per_frame, "ms")
    for stage in ("forward", "fusion", "inverse"):
        metrics[f"model.{stage}_ms"] = metric(split.get(f"{stage}_ms", 0.0),
                                              "ms")
    metrics["model.frame_ms"] = metric(
        sum(split.get(f"{s}_ms", 0.0)
            for s in ("forward", "fusion", "inverse")), "ms")
    metrics["trace.overhead_pct"] = metric(overhead_pct, "%")
    return metrics


def print_layer_table(metrics, tracer, traced, split) -> None:
    frames = max(1, traced.frames)
    print(f"per-layer metrics ({TRACE_PAIRS} traced drives, {traced.frames} "
          f"frames, {traced.wall_s:.2f} s wall; times are self ms per frame; "
          f"trace.overhead_pct is the median over the {TRACE_PAIRS} "
          f"untraced/traced pairs):")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:12.4f} {entry['unit']}")
    print("Fig. 2 split per frame: modelled Zynq beside measured host "
          "(span incl. children)")
    print(f"  {'stage':8s} {'model ms':>10s} {'model mJ':>10s} "
          f"{'host ms':>10s}")
    measured = {
        "forward": tracer.inclusive_s("drive", "dtcwt.forward"),
        "fusion": tracer.inclusive_s("drive", "core.fusion_rules"),
        "inverse": tracer.inclusive_s("drive", "dtcwt.inverse"),
    }
    for stage, seconds in measured.items():
        print(f"  {stage:8s} {split.get(stage + '_ms', 0.0):10.3f} "
              f"{split.get(stage + '_mj', 0.0):10.3f} "
              f"{seconds * 1e3 / frames:10.3f}")


def print_result(attempted, failed, metrics) -> None:
    print(f"  {'frame_error_rate':22s} {failed / max(1, attempted):14.4f} "
          f"      ({failed} of {attempted} requested frames failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def untraced_run(workloads, workload) -> int:
    setup_times, built = workloads.measure_setup(workload)
    drive = workload.drive(built)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a second set of constructions, a drive's length after the first,
    # so set-up is not read in one moment of the host
    more_times, built = workloads.measure_setup(workload)
    workload.close(built)
    attempted, failed = workloads.check(
        [drive], workload.references([drive]))
    metrics, notes = end_to_end(drive, setup_times + more_times, rss_mb)
    print("end-to-end metrics (tracing off):")
    for name, entry in metrics.items():
        print(f"  {name:22s} {entry['value']:14.4f} {entry['unit']:5s} "
              f"{notes.get(name, '')}")
    print_result(attempted, failed, metrics)
    return 0


def traced_run(workloads, workload, tracer) -> int:
    untraced, traced = [], []
    for pair in range(TRACE_PAIRS):
        for trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if not trace:
                untraced.append(workload.drive(workload.build()))
                continue
            tracer.phase = "setup"
            with tracer:
                built = workload.build()
                tracer.phase = "drive"
                traced.append(workload.drive(built))
    overhead_pct = statistics.median(
        (t.wall_s / t.frames) / (u.wall_s / u.frames) * 100.0 - 100.0
        for u, t in zip(untraced, traced))
    merged = workloads.merge(traced)
    split = workloads.model_split(merged)
    metrics = per_layer(tracer, merged, overhead_pct, split, len(traced))
    print_layer_table(metrics, tracer, merged, split)
    drives = untraced + traced
    attempted, failed = workloads.check(drives,
                                        workload.references(drives))
    print_result(attempted, failed, metrics)
    return 0


def run_one(args) -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    seconds = args.seconds / (2 * TRACE_PAIRS) if args.trace \
        else args.seconds
    workload = workloads.WORKLOADS[args.workload](args.seed, seconds)
    workload.warm_up()
    print(f"perfbench {workload.name}")
    print("host: " + json.dumps(host_fingerprint(args.seed)))
    print(f"closed loop, {seconds:g} s per drive")
    if args.trace:
        return traced_run(workloads, workload, Tracer())
    return untraced_run(workloads, workload)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines() or ["{}"]
            print("\n".join(lines[:-1]))
            print()
            ok = ok and proc.returncode == 0 \
                and json.loads(lines[-1]).get("correct", False)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    started = time.perf_counter()
    code = run_all(args) if args.workload == "all" else run_one(args)
    print(f"(run took {time.perf_counter() - started:.1f} s)",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
