"""Golden ledger of the modelled Zynq clock.

Every modelled second and millijoule the package reports — engine
breakdowns, a lowered plan's per-stage costs, a run's per-frame
accounting, the DVFS and Fig. 10 sweeps and the per-level scheduler's
assignments — is pinned here as ``float.hex`` strings in
``cost_ledger_golden.json``.  A refactor of the cost model must keep
every value bit for bit, so the comparison is exact.

Regenerate the file only for a deliberate model change, and say which
values moved and why::

    PYTHONPATH=src python tests/hw/test_cost_ledger_golden.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.adaptive import PerLevelScheduler
from repro.hw.dvfs import sweep_operating_points
from repro.hw.registry import create_engine
from repro.session import FusionConfig, FusionSession
from repro.sweeps import energy_sweep
from repro.types import FrameShape

GOLDEN = Path(__file__).with_name("cost_ledger_golden.json")

ENGINES = ("arm", "neon", "fpga", "jit", "gpu")
SHAPES = (FrameShape(2, 2), FrameShape(35, 35), FrameShape(40, 40),
          FrameShape(88, 72), FrameShape(91, 73), FrameShape(352, 288))
LEVELS = (1, 2, 3, 4)
FIELDS = ("compute_s", "transfer_s", "command_s", "overhead_s")

#: session configurations whose plans and runs are pinned
SESSIONS = {
    "neon": dict(engine="neon"),
    "fpga": dict(engine="fpga"),
    "adaptive": dict(engine="adaptive"),
    "adaptive-time": dict(engine="adaptive", objective="time"),
    # two probe frames per engine keep a 4-frame run inside the
    # deterministic exploration phase (arm, arm, neon, neon)
    "online": dict(engine="online", probe_frames=2),
    "forced": dict(engine="adaptive", graph_overrides={
        "place": {"visible": "fpga", "thermal": "neon"}}),
}
SESSION_SHAPES = (FrameShape(40, 40), FrameShape(88, 72))
RUN_FRAMES = 4

PER_LEVEL_SHAPES = (FrameShape(35, 35), FrameShape(40, 40),
                    FrameShape(64, 48), FrameShape(88, 72),
                    FrameShape(176, 144), FrameShape(352, 288))
PER_LEVEL_SETS = {"arm,neon,fpga": ("arm", "neon", "fpga"),
                  "fpga,neon": ("fpga", "neon")}


def _hex(value) -> str:
    return float(value).hex()


def _fields(breakdown):
    return [_hex(getattr(breakdown, f)) for f in FIELDS]


def engine_ledger():
    out = {}
    for name in ENGINES:
        engine = create_engine(name)
        for shape in SHAPES:
            for levels in LEVELS:
                out[f"{name}/{shape}/L{levels}"] = {
                    "forward": _fields(engine.forward_time(shape, levels)),
                    "inverse": _fields(engine.inverse_time(shape, levels)),
                    "fusion": _fields(engine.fusion_time(shape, levels)),
                    "frame2": _fields(engine.frame_time(shape, levels, 2)),
                    "frame3": _fields(engine.frame_time(shape, levels, 3)),
                }
    return out


def _pairs(shape, n):
    rng = np.random.default_rng(30)
    return [(rng.uniform(0, 255, shape.array_shape),
             rng.uniform(0, 255, shape.array_shape)) for _ in range(n)]


def session_ledger():
    plans, runs = {}, {}
    for label, overrides in SESSIONS.items():
        for shape in SESSION_SHAPES:
            key = f"{label}/{shape}"
            config = FusionConfig(fusion_shape=shape, levels=3,
                                  quality_metrics=False, **overrides)
            with FusionSession(config) as session:
                plans[key] = {name: [node.engine, _hex(node.model_seconds)]
                              for name, node in session.plan.nodes.items()}
                report = session.run(RUN_FRAMES,
                                     source=iter(_pairs(shape, RUN_FRAMES)))
            runs[key] = [[r.engine, _hex(r.model_seconds),
                          _hex(r.model_millijoules)]
                         for r in report.records]
    return plans, runs


def sweep_ledger():
    dvfs = [[_hex(r.ps_hz), _hex(r.pl_hz), r.engine,
             _hex(r.seconds_per_frame), _hex(r.millijoules_per_frame)]
            for r in sweep_operating_points()]
    energy = {f"L{levels}": [[str(row.shape),
                              {k: _hex(v) for k, v in row.values.items()}]
                             for row in energy_sweep(levels=levels)]
              for levels in (3, 4)}
    return dvfs, energy


def per_level_ledger():
    out = {}
    for label, names in PER_LEVEL_SETS.items():
        scheduler = PerLevelScheduler(
            engines=[create_engine(name) for name in names])
        for shape in PER_LEVEL_SHAPES:
            for levels in (3, 4):
                plan = scheduler.plan(shape, levels)
                out[f"{label}/{shape}/L{levels}"] = [
                    list(plan.forward_assignment),
                    list(plan.inverse_assignment)]
    return out


def ledger():
    plans, runs = session_ledger()
    dvfs, energy = sweep_ledger()
    return {"engines": engine_ledger(), "plans": plans, "runs": runs,
            "dvfs": dvfs, "energy_sweep": energy,
            "per_level": per_level_ledger()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _assert_same(actual, expected):
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], key


class TestCostLedgerGolden:
    def test_engine_breakdowns(self, golden):
        _assert_same(engine_ledger(), golden["engines"])

    def test_plans_and_runs(self, golden):
        plans, runs = session_ledger()
        _assert_same(plans, golden["plans"])
        _assert_same(runs, golden["runs"])

    def test_sweeps(self, golden):
        dvfs, energy = sweep_ledger()
        assert dvfs == golden["dvfs"]
        assert energy == golden["energy_sweep"]

    def test_per_level_assignments(self, golden):
        _assert_same(per_level_ledger(), golden["per_level"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
