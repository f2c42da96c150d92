"""Adaptive scheduling: the paper's crossover behaviour made executable."""

import numpy as np
import pytest

from repro.core.adaptive import (
    CostModelScheduler,
    OnlineScheduler,
    PerLevelScheduler,
    default_engines,
)
from repro.errors import ConfigurationError
from repro.hw.registry import create_engine, engine_names
from repro.types import PAPER_FRAME_SIZES, FrameShape


class TestCostModelScheduler:
    def test_small_frames_choose_neon(self):
        """Below the crossover the SIMD engine must win (paper SecVII)."""
        scheduler = CostModelScheduler(objective="time")
        for shape in (FrameShape(32, 24), FrameShape(35, 35)):
            assert scheduler.choose(shape).engine.name == "neon"

    def test_large_frames_choose_fpga(self):
        scheduler = CostModelScheduler(objective="time")
        for shape in (FrameShape(64, 48), FrameShape(88, 72)):
            assert scheduler.choose(shape).engine.name == "fpga"

    def test_energy_objective_shifts_crossover_later(self):
        """FPGA mode draws +19.2 mW, so the energy-optimal switch point
        is at a larger frame than the time-optimal one."""
        time_sched = CostModelScheduler(objective="time")
        energy_sched = CostModelScheduler(objective="energy")

        def first_fpga(sched):
            for px in range(24, 96):
                if sched.choose(FrameShape(px, px)).engine.name == "fpga":
                    return px
            return None

        assert first_fpga(energy_sched) >= first_fpga(time_sched)

    def test_decision_carries_alternatives(self):
        decision = CostModelScheduler().choose(FrameShape(88, 72))
        assert set(decision.alternatives) == {"arm", "neon", "fpga"}
        assert decision.predicted_s > 0
        assert decision.predicted_mj > 0

    def test_chosen_is_minimum_of_alternatives(self):
        scheduler = CostModelScheduler(objective="time")
        for shape in PAPER_FRAME_SIZES:
            decision = scheduler.choose(shape)
            assert decision.alternatives[decision.engine.name] == min(
                decision.alternatives.values())

    def test_bad_objective(self):
        with pytest.raises(ConfigurationError):
            CostModelScheduler(objective="vibes")

    def test_empty_engine_list(self):
        with pytest.raises(ConfigurationError):
            CostModelScheduler(engines=())


class TestOnlineScheduler:
    def test_explores_all_engines_first(self):
        scheduler = OnlineScheduler(probe_frames=2)
        seen = []
        for _ in range(6):
            engine = scheduler.next_engine()
            seen.append(engine.name)
            scheduler.observe(engine, 0.1)
        assert set(seen) == {"arm", "neon", "fpga"}

    def test_exploits_fastest_after_probing(self):
        scheduler = OnlineScheduler(probe_frames=1, reprobe_every=100)
        latencies = {"arm": 0.10, "neon": 0.08, "fpga": 0.03}
        for _ in range(3):
            engine = scheduler.next_engine()
            scheduler.observe(engine, latencies[engine.name])
        for _ in range(10):
            engine = scheduler.next_engine()
            assert engine.name == "fpga"
            scheduler.observe(engine, latencies["fpga"])

    def test_reprobes_runner_up(self):
        scheduler = OnlineScheduler(probe_frames=1, reprobe_every=5)
        latencies = {"arm": 0.10, "neon": 0.05, "fpga": 0.20}
        picks = []
        for _ in range(20):
            engine = scheduler.next_engine()
            picks.append(engine.name)
            scheduler.observe(engine, latencies[engine.name])
        assert picks.count("arm") >= 2  # runner-up periodically re-probed

    def test_adapts_to_workload_change(self):
        """When the workload shifts (frame size change), re-probing must
        eventually flip the decision."""
        scheduler = OnlineScheduler(probe_frames=1, reprobe_every=3)
        # phase 1: fpga fastest
        phase = {"arm": 0.10, "neon": 0.08, "fpga": 0.03}
        for _ in range(9):
            engine = scheduler.next_engine()
            scheduler.observe(engine, phase[engine.name])
        # phase 2: tiny frames -> neon fastest
        phase = {"arm": 0.012, "neon": 0.008, "fpga": 0.030}
        picks = []
        for _ in range(60):
            engine = scheduler.next_engine()
            picks.append(engine.name)
            scheduler.observe(engine, phase[engine.name])
        # exploitation settles on neon (reprobes still sample others)
        tail = picks[-20:]
        assert tail.count("neon") > len(tail) // 2

    def test_reset_forgets(self):
        scheduler = OnlineScheduler(probe_frames=1)
        for _ in range(3):
            engine = scheduler.next_engine()
            scheduler.observe(engine, 0.05)
        scheduler.reset()
        # back to exploration
        names = {scheduler.next_engine().name for _ in range(1)}
        assert names <= {"arm", "neon", "fpga"}

    def test_negative_observation_rejected(self):
        scheduler = OnlineScheduler()
        engine = scheduler.next_engine()
        with pytest.raises(ConfigurationError):
            scheduler.observe(engine, -1.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineScheduler(probe_frames=0)
        with pytest.raises(ConfigurationError):
            OnlineScheduler(reprobe_every=1)


class TestPerLevelScheduler:
    def test_plan_structure(self):
        plan = PerLevelScheduler().plan(FrameShape(88, 72), levels=3)
        assert len(plan.forward_assignment) == 3
        assert len(plan.inverse_assignment) == 3
        assert plan.predicted_s > 0

    def test_large_frame_mixes_engines(self):
        """At 88x72 the early levels favour FPGA while the deepest level
        (22x18 per tree) sits below the crossover -> NEON."""
        plan = PerLevelScheduler().plan(FrameShape(88, 72), levels=3)
        assert plan.forward_assignment[0] == "fpga"
        assert plan.forward_assignment[-1] == "neon"

    def test_small_frame_avoids_fpga_everywhere(self):
        plan = PerLevelScheduler().plan(FrameShape(32, 24), levels=3)
        assert "fpga" not in plan.forward_assignment[1:]

    def test_beats_or_matches_best_static_engine(self):
        """The mixed plan must never lose to the best single engine by
        more than the switching penalty it chose to pay."""
        shape = FrameShape(88, 72)
        plan = PerLevelScheduler().plan(shape, levels=3)
        static_best = min(e.frame_time(shape, 3).total_s
                          for e in default_engines())
        assert plan.predicted_s <= static_best * 1.001

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            PerLevelScheduler(switch_penalty_s=-1.0)

    @pytest.mark.parametrize("name", ("arm", "neon", "fpga", "jit", "gpu"))
    @pytest.mark.parametrize("shape", (FrameShape(35, 35), FrameShape(88, 72),
                                       FrameShape(352, 288)))
    @pytest.mark.parametrize("levels", (1, 3, 4))
    def test_single_engine_plan_prices_the_engine_frame_time(
            self, name, shape, levels):
        """A one-engine plan is that engine's whole frame, level by
        level: it must agree with ``frame_time`` (the FPGA's per-level
        prices include the coefficient reloads of their level; only
        the double-buffered schedule's per-level fill differs)."""
        engine = create_engine(name)
        plan = PerLevelScheduler(engines=[engine]).plan(shape, levels)
        assert plan.forward_assignment == (name,) * levels
        assert plan.predicted_s == pytest.approx(
            engine.frame_time(shape, levels).total_s, rel=1e-3)

    def test_plans_with_extension_engines(self):
        """The per-level scheduler prices every registered engine
        through the one pass-pricing method, extension engines too."""
        engines = [create_engine(name) for name in engine_names()]
        plan = PerLevelScheduler(engines=engines).plan(FrameShape(88, 72), 3)
        names = set(engine_names())
        assert set(plan.forward_assignment) <= names
        assert set(plan.inverse_assignment) <= names
        static_best = min(e.frame_time(FrameShape(88, 72), 3).total_s
                          for e in engines)
        assert 0 < plan.predicted_s <= static_best * 1.001
