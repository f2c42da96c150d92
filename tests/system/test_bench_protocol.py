"""The benches' one timing protocol (``benchmarks/protocol.py``), driven
by fake sides on a fake clock so every case takes milliseconds."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "benchmarks"))
import protocol  # noqa: E402


class FakeClock:
    """``perf_counter`` stand-in: a side's call advances it by the
    next of that side's scripted durations."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        self.calls = []
        monkeypatch.setattr(protocol, "perf_counter", lambda: self.now)

    def side(self, name, durations, frame=0.0, count=1):
        """A side returning ``count`` frames (None: no output)."""
        script = iter(durations)

        def run():
            self.calls.append(name)
            self.now += next(script)
            return None if count is None else [np.full((2, 2), frame)] * count
        return run


def test_order_flips_every_pair(monkeypatch):
    clock = FakeClock(monkeypatch)
    protocol.compare({"a": clock.side("a", [1] * 5),
                      "b": clock.side("b", [1] * 5)}, pairs=4)
    # the untimed warm-up runs each side once, then every pair flips
    # which side goes first
    assert clock.calls == ["a", "b",
                           "a", "b", "b", "a", "a", "b", "b", "a"]


def test_quartiles_are_the_inclusive_definition():
    assert protocol.quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (2.75, 4.5, 6.25)
    assert protocol.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_known_timings_give_the_median_ratio_iqr_and_wins(monkeypatch):
    clock = FakeClock(monkeypatch)
    record = protocol.compare({
        "fast": clock.side("fast", [9, 1, 1, 2, 1]),
        "base": clock.side("base", [9, 2, 3, 2, 4]),
    }, pairs=4, parity=True)
    assert record["ratios"] == [2.0, 3.0, 1.0, 4.0]
    assert record["ratio"] == 2.5
    assert record["ratio_iqr"] == [1.75, 3.25]
    # the ratio is the baseline's seconds over the candidate's, and the
    # tied pair counts for neither side
    assert (record["candidate"], record["baseline"]) == ("fast", "base")
    assert record["wins"] == {"fast": 3, "base": 0}
    assert record["sides"]["fast"]["seconds"] == [1, 1, 2, 1]
    assert record["sides"]["base"]["median_s"] == 2.5
    assert record["parity"] is True
    assert record["frames"] == [1]


def test_frame_counts_cover_every_run(monkeypatch):
    clock = FakeClock(monkeypatch)
    record = protocol.compare({
        "whole": clock.side("whole", [1] * 3, count=2),
        "short": clock.side("short", [1] * 3, count=0),
    }, pairs=2)
    assert record["frames"] == [0, 2]
    record = protocol.compare({
        "a": clock.side("a", [1] * 2, count=None),
        "b": clock.side("b", [1] * 2, count=None)}, pairs=1)
    assert record["frames"] == []


def test_ratio_below_the_bound_exits_1(monkeypatch, tmp_path):
    clock = FakeClock(monkeypatch)
    record = protocol.compare({"fast": clock.side("fast", [1] * 3),
                               "base": clock.side("base", [1.2] * 3)},
                              pairs=2)
    out = tmp_path / "gate.json"
    assert protocol.finish("t", str(out),
                           {"speedup": dict(record, bound=1.5)}) == 1
    assert json.loads(out.read_text())["gates"]["speedup"]["met"] is False
    assert protocol.finish("t", None,
                           {"speedup": dict(record, bound=1.1)}) == 0


def test_parity_failure_exits_1_even_when_the_ratio_clears(monkeypatch):
    clock = FakeClock(monkeypatch)
    record = protocol.compare({
        "fast": clock.side("fast", [1] * 3, frame=0.0),
        "base": clock.side("base", [4] * 3, frame=1.0),
    }, pairs=2, parity=True)
    assert record["parity"] is False
    assert protocol.finish("t", None,
                           {"speedup": dict(record, bound=1.5)}) == 1
    # a skipped gate does not excuse a parity failure either
    assert protocol.finish("t", None, {"speedup": dict(
        record, bound=1.5, skip="single-core host")}) == 1


def test_failed_check_exits_1():
    assert protocol.finish("t", None, {}, checks={"ledger": False}) == 1
    assert protocol.finish("t", None, {}, checks={"ledger": True}) == 0


def test_skip_writes_its_reason_into_the_json(tmp_path):
    out = tmp_path / "gate.json"
    code = protocol.finish("t", str(out), {"speedup": {
        "bound": 1.6, "skip": "single-core host"}}, scale=3)
    payload = json.loads(out.read_text())
    assert code == 0
    assert payload["gates"]["speedup"] == {
        "bound": 1.6, "skip": "single-core host", "met": None}
    assert payload["scale"] == 3 and payload["bench"] == "t"


def test_compare_rejects_a_pair_count_below_one():
    with pytest.raises(ValueError):
        protocol.compare({"a": list, "b": list}, pairs=0)
