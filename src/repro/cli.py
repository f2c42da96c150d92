"""Command-line interface: ``repro-fusion``.

Subcommands
-----------
``demo``
    Run the complete capture->fuse session for N frames and report
    modelled fps, energy and fusion quality.
``fuse``
    Fuse one synthetic frame pair and write PGM images (visible,
    thermal, fused) — a dependency-free way to *see* the system work.
``sweep``
    Print the Fig. 9/Fig. 10 engine-comparison tables.
``schedule``
    Show the adaptive scheduler's decision for a frame size, including
    the per-level plan.
``plan``
    Lower the session's declarative :class:`~repro.graph.FusionGraph`
    through the planner and print the resulting
    :class:`~repro.graph.FusionPlan` — stage schedule, placements,
    fused units and modelled per-stage cost — without fusing a frame.
``serve``
    Run many named streams concurrently over one shared engine pool
    (:class:`repro.serve.FusionService`) from a JSON spec — per-stream
    configs/sources/priorities, pool inventory, admission bounds — and
    print the aggregate :class:`~repro.serve.ServiceReport`.
``figures``
    Render the sweep tables as SVG charts.

Every subcommand accepts ``--seed``; ``demo`` and ``fuse`` thread it
into the synthetic scene so runs are exactly reproducible.  ``demo``
and ``fuse`` also accept ``--executor serial|pipeline|batch``
(with ``--workers``/``--queue-depth``/``--batch-size``) to pick the
execution strategy, ``--precision float32|float64`` to pin the kernel
datapath dtype end-to-end (default: each engine's native precision,
bitwise-identical to previous releases), and ``--json`` to emit the
full report machine-readably.

The CLI is reachable without the console-script install as
``python -m repro`` (see :mod:`repro.__main__`) or
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core.adaptive import CostModelScheduler, PerLevelScheduler
from .errors import ConfigurationError, ReproError
from .exec import executor_names
from .hw.registry import engine_names
from .session import SCHEDULER_NAMES, FusionConfig, FusionSession
from .types import FrameShape

#: Scene seed used when --seed is not given (the paper's year).
DEFAULT_SEED = 2016


def _parse_shape(text: str) -> FrameShape:
    try:
        width, height = text.lower().split("x")
        shape = FrameShape(int(width), int(height))
    except ConfigurationError as exc:  # parsed, but non-positive dims
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"frame size must look like 88x72, got {text!r}"
        ) from exc
    return shape


def write_pgm(path: Path, image: np.ndarray) -> None:
    """Write an 8-bit grayscale PGM (no imaging dependency needed)."""
    data = np.clip(np.round(np.asarray(image, dtype=np.float64)), 0, 255)
    data = data.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def _session(args: argparse.Namespace, **overrides) -> FusionSession:
    return FusionSession(FusionConfig(
        engine=args.engine,
        executor=args.executor,
        workers=args.workers,
        queue_depth=args.queue_depth,
        batch_size=args.batch_size,
        precision=args.precision,
        fusion_shape=args.size,
        levels=args.levels,
        seed=args.seed,
        **overrides,
    ))


def _emit_json(report) -> None:
    """Machine-readable FusionReport (throughput fields included)."""
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))


def cmd_demo(args: argparse.Namespace) -> int:
    with _session(args) as session:
        report = session.run(args.frames)
    if args.json:
        _emit_json(report)
        return 0
    print(f"engine used      : {report.engine_used}")
    print(f"frames fused     : {report.frames}")
    print(f"executor         : {args.executor}")
    print(f"modelled fps     : {report.model_fps:.1f}")
    if report.wall_fps:
        print(f"wall-clock fps   : {report.wall_fps:.1f}")
    print(f"energy per frame : {report.millijoules_per_frame:.2f} mJ")
    if report.quality:
        print("fusion quality   : "
              + ", ".join(f"{k}={v:.3f}" for k, v in report.quality.items()))
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    with _session(args, quality_metrics=False) as session:
        report = session.run(1)
    result = report.records[0]
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    write_pgm(out / "visible.pgm", result.visible)
    write_pgm(out / "thermal.pgm", result.thermal)
    write_pgm(out / "fused.pgm", result.pixels)
    if args.json:
        _emit_json(report)
        return 0
    print(f"wrote {out}/visible.pgm, thermal.pgm, fused.pgm "
          f"({args.size} px, engine {report.engine_used})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .sweeps import (energy_sweep, format_rows, forward_stage_sweep,
                         inverse_stage_sweep, total_time_sweep)
    tables = {
        "fig9a": (forward_stage_sweep, "seconds / 10 frames",
                  "Fig. 9(a) forward DT-CWT"),
        "fig9b": (total_time_sweep, "seconds / 10 frames",
                  "Fig. 9(b) total time"),
        "fig9c": (inverse_stage_sweep, "seconds / 10 frames",
                  "Fig. 9(c) inverse DT-CWT"),
        "fig10": (energy_sweep, "millijoules / 10 frames",
                  "Fig. 10 total energy"),
    }
    which = ("fig9a", "fig9b", "fig9c", "fig10") if args.table == "all" \
        else (args.table,)
    for key in which:
        fn, unit, title = tables[key]
        print(format_rows(fn(levels=args.levels), unit, title))
        print()
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    scheduler = CostModelScheduler(objective=args.objective)
    decision = scheduler.choose(args.size, args.levels)
    print(f"frame size {args.size}, objective {args.objective}:")
    for name, value in sorted(decision.alternatives.items(),
                              key=lambda kv: kv[1]):
        unit = "s" if args.objective == "time" else "mJ"
        marker = " <= chosen" if name == decision.engine.name else ""
        print(f"  {name:>5}: {value:.6f} {unit}{marker}")
    plan = PerLevelScheduler().plan(args.size, args.levels)
    print(f"per-level plan (extension): forward {plan.forward_assignment}, "
          f"inverse {plan.inverse_assignment}, "
          f"predicted {plan.predicted_s * 1e3:.2f} ms/frame")
    return 0


def _explain_kernels(plan) -> str:
    """Per-stage kernel backend and working dtype, as text."""
    lines = ["kernel bindings"]
    for name in plan.schedule:
        node = plan.nodes[name]
        if node.kernel:
            lines.append(f"  {name:<12} {node.engine:<10} "
                         f"kernel={node.kernel} dtype={node.precision}")
        else:
            lines.append(f"  {name:<12} {node.engine:<10} "
                         f"host-side (no engine arithmetic)")
    return "\n".join(lines)


def cmd_plan(args: argparse.Namespace) -> int:
    config = FusionConfig(
        engine=args.engine,
        executor=args.executor,
        workers=args.workers,
        queue_depth=args.queue_depth,
        batch_size=args.batch_size,
        precision=args.precision,
        fusion_shape=args.size,
        levels=args.levels,
        registration=args.registration,
        temporal=args.temporal,
        seed=args.seed,
    )
    with FusionSession(config) as session:
        plan = session.plan
        if args.json:
            print(json.dumps(plan.as_dict(), indent=2, sort_keys=True))
        else:
            print(session.graph.describe())
            print()
            print(plan.describe())
            if args.explain:
                print()
                print(_explain_kernels(plan))
    return 0


#: FusionConfig fields a serve-spec stream block may set directly.
_SERVE_CONFIG_FIELDS = (
    "engine", "executor", "batch_size", "levels", "fusion_rule",
    "objective", "registration", "temporal", "monitor",
    "quality_metrics", "keep_records", "seed", "precision",
)

#: keys a serve-spec stream block itself may carry.
_SERVE_STREAM_KEYS = ("name", "config", "seed", "frames", "priority",
                      "batch_frames", "slo")


def _serve_stream_config(name: str, block: dict) -> "FusionConfig":
    """Build one stream's FusionConfig from its spec block."""
    known = set(_SERVE_CONFIG_FIELDS) | {"size"}
    bad = set(block) - known
    if bad:
        raise ConfigurationError(
            f"stream {name!r}: unknown config key(s) {sorted(bad)}; "
            f"expected a subset of {sorted(known)}")
    fields = {key: block[key] for key in _SERVE_CONFIG_FIELDS
              if key in block}
    if "size" in block:
        fields["fusion_shape"] = _parse_shape(str(block["size"]))
    return FusionConfig(**fields)


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import FusionService
    from .serve.ops import ShedPolicy, StreamSLO
    from .session import SyntheticSource

    try:
        spec = json.loads(Path(args.streams).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read stream spec {args.streams!r}: {exc}",
              file=sys.stderr)
        return 1
    streams = spec.get("streams")
    if not streams:
        raise ConfigurationError(
            f"stream spec {args.streams!r} has no 'streams' entries")

    # spec values are the defaults; explicit CLI flags override them
    workers = args.workers if args.workers is not None \
        else spec.get("workers")
    shedding = spec.get("shedding")
    shards = args.shards if args.shards is not None \
        else spec.get("shards")
    service_kwargs = dict(
        pool=spec.get("pool", {"arm": 1, "neon": 1, "fpga": 1}),
        max_in_flight=int(spec.get("max_in_flight", 8)),
        stream_queue_depth=int(spec.get("stream_queue_depth", 4)),
        workers=int(workers) if workers is not None else None,
        shedding=ShedPolicy(**shedding) if shedding is not None else None,
        slo_headroom=float(spec.get("slo_headroom", 1.0)),
    )
    if shards is not None:
        from .serve import ShardedFusionService
        service = ShardedFusionService(shards=int(shards),
                                       **service_kwargs)
    else:
        service = FusionService(**service_kwargs)
    for index, block in enumerate(streams):
        name = block.get("name", f"stream{index}")
        bad = set(block) - set(_SERVE_STREAM_KEYS)
        if bad:
            # a typo'd knob must fail loudly, not silently run with
            # the default it was meant to override
            raise ConfigurationError(
                f"stream {name!r}: unknown key(s) {sorted(bad)}; "
                f"expected a subset of {sorted(_SERVE_STREAM_KEYS)}")
        config = _serve_stream_config(name, block.get("config", {}))
        seed = int(block.get("seed", config.seed))
        slo = block.get("slo")
        service.add_stream(
            name,
            config=config,
            source=SyntheticSource(seed=seed),
            frames=int(block.get("frames", args.frames)),
            priority=float(block.get("priority", 1.0)),
            batch_frames=block.get("batch_frames"),
            slo=StreamSLO.from_dict(slo) if slo is not None else None,
        )
    with service:
        report = service.serve()
        if args.metrics_out:
            Path(args.metrics_out).write_text(service.metrics_text())
            print(f"wrote metrics to {args.metrics_out}",
                  file=sys.stderr)
        if args.events_out:
            written = service.events.dump(args.events_out)
            print(f"wrote {written} event(s) to {args.events_out}",
                  file=sys.stderr)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .figures import generate_figures
    for path in generate_figures(args.output, levels=args.levels):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fusion",
        description="Energy-efficient video fusion on a modelled "
                    "CPU-FPGA ZYNQ platform (DATE 2016 reproduction)",
    )
    # options shared by every subcommand, so scripts can append --seed
    # uniformly regardless of which command they drive
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="synthetic-scene seed; makes demo/fuse runs "
                             "reproducible (accepted but unused by the "
                             "model-only commands)")

    # options shared by the subcommands that actually execute frames:
    # executor selection and machine-readable output
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--executor", default="serial",
                           choices=executor_names(),
                           help="how frames are driven: serial loop, "
                                "double-buffered thread pipeline, or "
                                "micro-batched NumPy vectorization")
    execution.add_argument("--workers", type=int, default=2,
                           help="concurrent stage workers (pipeline "
                                "executor only)")
    execution.add_argument("--queue-depth", type=int, default=4,
                           help="bound on frames in flight between stages")
    execution.add_argument("--batch-size", type=int, default=8,
                           help="frame pairs per stacked transform "
                                "invocation (batch executor only)")
    execution.add_argument("--precision", default=None,
                           choices=("float32", "float64"),
                           help="pin the kernel datapath dtype end-to-end "
                                "(default: each engine's native precision; "
                                "the FPGA datapath is float32-only)")
    execution.add_argument("--json", action="store_true",
                           help="emit the FusionReport as JSON on stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    engines = engine_names() + SCHEDULER_NAMES

    demo = sub.add_parser("demo", parents=[common, execution],
                          help="run the capture->fuse session")
    demo.add_argument("--frames", type=int, default=10)
    demo.add_argument("--engine", default="adaptive", choices=engines)
    demo.add_argument("--size", type=_parse_shape, default=FrameShape(88, 72))
    demo.add_argument("--levels", type=int, default=3)
    demo.set_defaults(func=cmd_demo)

    fuse = sub.add_parser("fuse", parents=[common, execution],
                          help="fuse one frame pair to PGM files")
    fuse.add_argument("--engine", default="neon", choices=engines)
    fuse.add_argument("--size", type=_parse_shape, default=FrameShape(88, 72))
    fuse.add_argument("--levels", type=int, default=3)
    fuse.add_argument("--output", default="fusion_out")
    fuse.set_defaults(func=cmd_fuse)

    sweep = sub.add_parser("sweep", parents=[common],
                           help="print Fig. 9 / Fig. 10 tables")
    sweep.add_argument("--table", default="all",
                       choices=("all", "fig9a", "fig9b", "fig9c", "fig10"))
    sweep.add_argument("--levels", type=int, default=3)
    sweep.set_defaults(func=cmd_sweep)

    plan = sub.add_parser("plan", parents=[common, execution],
                          help="print the lowered FusionPlan (stages, "
                               "placements, fused units, modelled cost)")
    plan.add_argument("--engine", default="adaptive", choices=engines)
    plan.add_argument("--size", type=_parse_shape, default=FrameShape(88, 72))
    plan.add_argument("--levels", type=int, default=3)
    plan.add_argument("--registration", action="store_true",
                      help="include the rig-calibration stage")
    plan.add_argument("--temporal", action="store_true",
                      help="plan the stateful temporal-fusion pipeline")
    plan.add_argument("--explain", action="store_true",
                      help="also print each stage's kernel backend and "
                           "working dtype (the plan table lists the "
                           "fused units)")
    plan.set_defaults(func=cmd_plan)

    serve = sub.add_parser("serve", parents=[common],
                           help="serve many streams concurrently over a "
                                "shared engine pool from a JSON spec")
    serve.add_argument("--streams", required=True, metavar="SPEC.json",
                       help="service spec: pool inventory, admission "
                            "bounds and per-stream config/seed/frames/"
                            "priority blocks")
    serve.add_argument("--frames", type=int, default=16,
                       help="default frames per stream when a block "
                            "does not set its own")
    serve.add_argument("--shards", type=int, default=None,
                       help="serve through N shard processes "
                            "(ShardedFusionService) instead of one "
                            "process; overrides the spec's 'shards' key")
    serve.add_argument("--workers", type=int, default=None,
                       help="service worker threads (default: the spec's "
                            "'workers', else the pool size capped at the "
                            "CPU count); an explicit flag overrides the "
                            "spec")
    serve.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the service's metrics as Prometheus "
                            "text exposition to PATH after the drive")
    serve.add_argument("--events-out", metavar="PATH", default=None,
                       help="write the service's structured event log "
                            "as JSON Lines to PATH after the drive")
    serve.add_argument("--json", action="store_true",
                       help="emit the ServiceReport as JSON on stdout")
    serve.set_defaults(func=cmd_serve)

    schedule = sub.add_parser("schedule", parents=[common],
                              help="adaptive engine choice")
    schedule.add_argument("--size", type=_parse_shape,
                          default=FrameShape(88, 72))
    schedule.add_argument("--levels", type=int, default=3)
    schedule.add_argument("--objective", default="time",
                          choices=("time", "energy"))
    schedule.set_defaults(func=cmd_schedule)

    figures = sub.add_parser("figures", parents=[common],
                             help="render Fig. 9/Fig. 10 as SVG charts")
    figures.add_argument("--output", default="figures")
    figures.add_argument("--levels", type=int, default=3)
    figures.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
