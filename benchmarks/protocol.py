"""One timing protocol for the throughput benches' CI gates.

Every ratio gate in ``benchmarks/bench_*.py`` measures its two sides
the same way:

* :func:`compare` runs each side once untimed (caches fill, lazy
  set-up ends), then in ``PAIRS`` alternating pairs, flipping which
  side goes first in every pair, and times each call on the wall
  clock;
* a pair's ratio is the baseline's seconds over the candidate's, so
  it reads as the candidate's speedup when both sides do the same
  work.  The record carries every ratio, their median and
  interquartile range, each side's median and quartiles, and each
  side's wins (a tie counts for neither);
* each call returns its output frames (None where it has none); the
  record carries the frame counts seen over every call of both sides,
  the untimed ones included, so a short or empty run shows;
* with ``parity=True`` every call of both sides, the untimed ones
  included, must hash identically;
* :func:`finish` is the one gate, JSON and exit path: a parity or
  check failure always exits 1, a median ratio below its gate's bound
  exits 1, and a gate the host cannot express records its ``skip``
  reason instead of a verdict.

Quartiles have one definition, :func:`quartiles`.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: alternating pairs every gate measures
PAIRS = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values`` by the inclusive method, so
    every quartile lies within the samples; one sample is its own
    quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def digest(frames: Iterable[np.ndarray]) -> str:
    """SHA-256 over the frames' bytes, in order."""
    sha = hashlib.sha256()
    for frame in frames:
        sha.update(frame.tobytes())
    return sha.hexdigest()


def compare(sides: Dict[str, Callable[[], object]], pairs: int = PAIRS,
            parity: bool = False) -> Dict:
    """Time two sides in ``pairs`` alternating pairs.

    ``sides`` maps the candidate's name, then the baseline's, to a
    callable that runs one whole measurement and returns its output
    frames, or None.
    """
    if len(sides) != 2:
        raise ValueError(f"compare needs two sides, got {list(sides)}")
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    names = list(sides)
    hashes, counts = set(), set()

    def timed(name: str) -> float:
        start = perf_counter()
        output = sides[name]()
        seconds = perf_counter() - start
        if output is not None:
            counts.add(len(output))
        if parity:
            hashes.add(digest(output))
        return seconds

    for name in names:
        timed(name)
    seconds: Dict[str, List[float]] = {name: [] for name in names}
    for pair in range(pairs):
        for name in names if pair % 2 == 0 else names[::-1]:
            seconds[name].append(timed(name))
    fast, base = names
    ratios = [b / a for a, b in zip(seconds[fast], seconds[base])]
    q1, ratio, q3 = quartiles(ratios)
    return {
        "candidate": fast,
        "baseline": base,
        "sides": {name: dict(zip(("q1_s", "median_s", "q3_s"),
                                 quartiles(seconds[name])),
                             seconds=seconds[name])
                  for name in names},
        "ratios": ratios,
        "ratio": ratio,
        "ratio_iqr": [q1, q3],
        "wins": {fast: sum(r > 1 for r in ratios),
                 base: sum(r < 1 for r in ratios)},
        "frames": sorted(counts),
        "parity": len(hashes) == 1 if parity else None,
    }


def summary(name: str, gate: Dict) -> str:
    """A gate's measurement as report lines ('' for a skip that
    measured nothing)."""
    if "ratio" not in gate:
        return ""
    fast, base = gate["candidate"], gate["baseline"]
    q1, q3 = gate["ratio_iqr"]
    sides = ", ".join(f"{side} {row['median_s']:.3g} s "
                      f"[{row['q1_s']:.3g}-{row['q3_s']:.3g}]"
                      for side, row in gate["sides"].items())
    frames = (f" of {'/'.join(map(str, gate['frames']))} frames a run"
              if gate["frames"] else "")
    parity = {True: "; outputs bitwise-identical",
              False: "; outputs DIVERGED", None: ""}[gate["parity"]]
    return (f"  {name}: {fast} vs {base}, median ratio "
            f"{gate['ratio']:.2f}x [IQR {q1:.2f}-{q3:.2f}] over "
            f"{len(gate['ratios'])} pairs{frames}; {fast} won "
            f"{gate['wins'][fast]}, {base} won {gate['wins'][base]}"
            f"{parity}\n"
            f"    median seconds per run [IQR]: {sides}")


def finish(bench: str, json_out: Optional[str], gates: Dict[str, Dict],
           checks: Optional[Dict[str, bool]] = None, **setup) -> int:
    """Print every gate's verdict, write the JSON, return the exit code.

    ``gates`` maps a name to a :func:`compare` record with a ``bound``
    on its median ratio (None: reported, not gated), or to any dict
    with a ``skip`` reason the host cannot express the gate for.
    ``checks`` are named invariants.  A parity or check failure exits
    1 even where the gate is skipped.
    """
    checks = dict(checks or {})
    failures = []
    for name, ok in checks.items():
        if ok:
            print(f"OK: {name}")
        else:
            failures.append(f"check failed: {name}")
    for name, gate in gates.items():
        text = summary(name, gate)
        if text:
            print(text)
        if gate.get("parity") is False:
            failures.append(f"{name}: the two sides' outputs differ")
        bound = gate.get("bound")
        gate["met"] = None
        if gate.get("skip"):
            print(f"SKIP {name}: {gate['skip']}")
        elif bound is not None:
            gate["met"] = gate["ratio"] >= bound
            verdict = (f"{name} {gate['ratio']:.2f}x "
                       f"{'>=' if gate['met'] else '<'} {bound:.2f}x")
            if gate["met"]:
                print(f"OK: {verdict}")
            else:
                failures.append(verdict)
    if json_out:
        payload = dict(bench=bench, cpus=os.cpu_count(), **setup,
                       checks=checks, gates=gates)
        with open(json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {json_out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
