"""Repeat the benchmark over several seeds and summarize the spread.

Usage (from the repository root)::

    python3 perfbench/baseline.py --runs 10 --seconds 10
    python3 perfbench/baseline.py --workloads serve-mixed --runs 5 \
        --out /tmp/spread.json

Runs ``perfbench/run.py`` once per (workload, seed), for ``--runs``
seeds from ``--first-seed`` on, each in its own process, with tracing
off; ``--traced-runs N`` adds N traced runs per workload for the
per-layer medians.  For every metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile spread as a share of the median, beside the
bound ``BENCHMARK.json`` fixes, and writes everything, with the host
fingerprint, to ``--out`` (default ``perfbench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    host = next(json.loads(line[len("host: "):]) for line in lines
                if line.startswith("host: "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} frames failed")
    return {"host": host, "result": result}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE,
                                                      "baseline.json"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "runs": args.runs,
               "first_seed": args.first_seed, "workloads": {}}
    for workload in args.workloads:
        rows = {}
        for trace, count in ((0, args.runs), (1, args.traced_runs)):
            samples = {}
            for seed in range(args.first_seed, args.first_seed + count):
                out = run(workload, seed, args.seconds, trace)
                summary["host"] = dict(out["host"], seed=None)
                for name, entry in out["result"]["metrics"].items():
                    samples.setdefault(name, []).append(entry["value"])
                    rows.setdefault(name, {"unit": entry["unit"]})
            for name, values in samples.items():
                if len(values) >= 2:
                    rows[name].update(summarize(values))
        summary["workloads"][workload] = rows
        print(f"{workload}:")
        for name, row in rows.items():
            if "median" not in row:
                continue
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if row["spread"] <= bound / 3 else \
                    ("within bound" if row["spread"] <= bound
                     else "UNRESOLVED: spread above bound")
            print(f"  {name:28s} median {row['median']:12.4f} "
                  f"{row['unit']:6s} q1 {row['q1']:12.4f} "
                  f"q3 {row['q3']:12.4f} spread {row['spread']:7.2%}"
                  + (f"  bound {bound:.2f} {flag}" if bound else ""))
        sys.stdout.flush()
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
