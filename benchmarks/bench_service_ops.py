"""Live-ops bench: stream churn throughput and overload shed rate.

The live serving layer's two operational claims, measured:

* **churn** — a ``live=True`` :class:`repro.serve.FusionService` can
  attach and retire a procession of short-lived streams while running,
  with the lease/admission/ledger accounting balancing exactly and the
  per-stream state reclaimed (:meth:`reap`), so the service neither
  leaks nor pauses between tenants.  The score is retired streams per
  wall second.
* **shedding** — under synthetic overload (a deliberately starved
  admission budget and a single worker), a bounded hysteretic
  :class:`repro.serve.ops.ShedPolicy` drops whole frames of the
  lowest priority class only: the critical tenant keeps every frame,
  the background tenants degrade, and the frame ledger still
  reconciles (``offered == finalized + shed + errored``).

Runs two ways:

* under pytest (like every other bench): ``pytest
  benchmarks/bench_service_ops.py``;
* as a script with a CI-friendly quick mode::

      PYTHONPATH=src python benchmarks/bench_service_ops.py --quick
      PYTHONPATH=src python benchmarks/bench_service_ops.py \
          --streams 200 --json-out BENCH_ops.json

``--json-out`` writes the machine-readable rows and the invariant
checks through the benches' one JSON writer (``protocol.py``) for CI
artifacts (the ``BENCH_ops.json`` upload); a failed check exits 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Tuple

from protocol import finish
from repro.serve import FusionService, ShedPolicy, StreamSLO
from repro.session import FusionConfig, SyntheticSource
from repro.types import FrameShape

TINY = FrameShape(32, 24)

#: churn tenants ride one CPU pool; the point is lifecycle overhead,
#: not kernel throughput
CHURN_POOL = {"neon": 1, "arm": 1}


def stream_config(**overrides) -> FusionConfig:
    base = dict(engine="neon", fusion_shape=TINY, levels=2, seed=5,
                quality_metrics=False, keep_records=False)
    base.update(overrides)
    return FusionConfig(**base)


def run_churn(total_streams: int, wave: int = 8,
              frames: int = 3) -> Tuple[Dict, "FusionService"]:
    """Attach/retire ``total_streams`` short-lived tenants on a live
    service, reaping as they complete; returns the measured rows."""
    service = FusionService(pool=CHURN_POOL, max_in_flight=8,
                            stream_queue_depth=4, live=True,
                            event_capacity=256)
    service.start()
    reaped = 0
    attached = 0
    t0 = time.perf_counter()
    try:
        while reaped < total_streams:
            while attached < total_streams \
                    and len(service.stream_names()) < wave:
                engine = "neon" if attached % 2 == 0 else "arm"
                service.attach(f"cam-{attached}",
                               config=stream_config(engine=engine),
                               source=SyntheticSource(seed=attached % 17),
                               frames=frames)
                attached += 1
            got = service.reap()
            reaped += len(got)
            if not got:
                time.sleep(0.001)
        wall = time.perf_counter() - t0
        report = service.wait()
    finally:
        service.close()
    ledger = report.ledger
    pool = report.pool
    return {
        "streams": total_streams,
        "frames_per_stream": frames,
        "wall_s": wall,
        "streams_per_s": total_streams / wall if wall > 0 else 0.0,
        "frames_total": ledger["totals"]["finalized"],
        "ledger_balanced": ledger["balanced"],
        "ledger_totals": dict(ledger["totals"]),
        "leases_balanced": pool["granted"] == pool["released"],
        "retired_streams": report.admission.get("retired_streams", 0),
    }, service


def run_overload(frames: int = 24) -> Dict:
    """One critical tenant + two background tenants against a starved
    budget: only the background class sheds, the ledger reconciles.

    Shedding targets the lowest priority class *present*, so the
    background tenants carry more frames than the critical one — the
    critical stream completes while the class that shields it is
    still attached (shed frames consume the background sources
    faster, so equal budgets would strand the critical tenant alone
    under overload, where its class becomes the lowest present).
    """
    service = FusionService(
        pool={"neon": 1}, max_in_flight=2, stream_queue_depth=1,
        workers=1,
        shedding=ShedPolicy(high_watermark=1.0, low_watermark=0.0,
                            max_shed_fraction=0.8))
    service.add_stream("critical", config=stream_config(),
                       source=SyntheticSource(seed=1),
                       frames=max(2, frames // 2),
                       slo=StreamSLO(priority_class="critical"))
    for index in range(2):
        service.add_stream(f"bg-{index}", config=stream_config(),
                           source=SyntheticSource(seed=2 + index),
                           frames=frames,
                           slo=StreamSLO(priority_class="background"))
    report = service.serve()
    totals = report.ledger["totals"]
    shed_by_stream = report.shedding.get("shed_by_stream", {})
    offered = totals["offered"]
    return {
        "frames_per_stream": frames,
        "offered": offered,
        "finalized": totals["finalized"],
        "shed": totals["shed"],
        "shed_rate": totals["shed"] / offered if offered else 0.0,
        "critical_shed": report.streams["critical"].throughput["shed"],
        "shed_engagements": report.shedding.get("engagements", 0),
        "ledger_balanced": report.ledger["balanced"],
        "shed_by_stream": dict(shed_by_stream),
    }


def run_bench(total_streams: int) -> Tuple[str, Dict]:
    churn, _ = run_churn(total_streams)
    overload = run_overload()
    lines = [
        f"Live-ops: churn of {churn['streams']} short-lived streams "
        f"({churn['frames_per_stream']} frames each) on {CHURN_POOL}:",
        f"  churn throughput : {churn['streams_per_s']:8.1f} streams/s "
        f"({churn['wall_s']:.2f}s wall, "
        f"{churn['frames_total']} frames fused)",
        f"  accounting       : ledger "
        f"{'balanced' if churn['ledger_balanced'] else 'UNBALANCED'}, "
        f"leases "
        f"{'balanced' if churn['leases_balanced'] else 'UNBALANCED'}",
        "",
        f"Overload shedding (budget 2, 1 worker, 3 tenants x "
        f"{overload['frames_per_stream']} frames):",
        f"  shed rate        : {overload['shed_rate']:.1%} "
        f"({overload['shed']} of {overload['offered']} offered, "
        f"{overload['shed_engagements']} engagement(s))",
        f"  critical tenant  : {overload['critical_shed']} frame(s) shed "
        f"(class never degrades below background)",
        f"  ledger           : "
        f"{'balanced' if overload['ledger_balanced'] else 'UNBALANCED'}",
    ]
    payload = {"churn": churn, "overload": overload}
    return "\n".join(lines), payload


def test_service_ops(report):
    """Pytest entry: a small churn + the overload scenario, gated on
    the accounting invariants rather than machine-dependent rates."""
    text, payload = run_bench(total_streams=24)
    report(text)
    assert payload["churn"]["ledger_balanced"]
    assert payload["churn"]["leases_balanced"]
    assert payload["churn"]["retired_streams"] >= 24
    assert payload["overload"]["ledger_balanced"]
    assert payload["overload"]["critical_shed"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: a small churn run")
    parser.add_argument("--streams", type=int, default=200,
                        help="churned streams (default 200; --quick "
                             "forces 40)")
    parser.add_argument("--json-out", default=None,
                        help="write the machine-readable rows as JSON")
    args = parser.parse_args(argv)

    total = 40 if args.quick else args.streams
    text, payload = run_bench(total)
    print(text)
    return finish("service_ops", args.json_out, {}, checks={
        "churn ledger balanced": payload["churn"]["ledger_balanced"],
        "churn leases balanced": payload["churn"]["leases_balanced"],
        "overload ledger balanced":
            payload["overload"]["ledger_balanced"],
        "critical tenant shed no frame":
            not payload["overload"]["critical_shed"],
    }, **payload)


if __name__ == "__main__":
    sys.exit(main())
