"""Smoke test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks
that each run exits 0, reports correct output, and emits exactly the
metrics ``BENCHMARK.json`` names, with their units.  Checks that the
tracer puts every function it wraps back, so untraced runs execute
the program's own code.  Then checks that the benchmark fails cleanly
— a non-zero exit and no result line — from a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False)


def check_tracer_restores() -> None:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from tracer import TARGETS, Tracer, _owners

    def functions():
        return [(owner, name, vars(owner)[name])
                for module, cls, names, _, _ in TARGETS for name in names
                for owner in _owners(module, cls, name)]

    before = functions()
    with Tracer():
        assert all(vars(owner)[name] is not original
                   for owner, name, original in before)
    assert functions() == before
    print(f"ok  tracer wraps and restores {len(before)} functions")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_tracer_restores()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: entry["unit"]
                       for name, entry in result["metrics"].items()}
            assert emitted == expected, (workload, trace,
                                         set(emitted) ^ set(expected))
            print(f"ok  {workload} trace={trace}: "
                  f"{len(emitted)} metrics, {result['attempted']} frames")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
        print("ok  fails cleanly without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
