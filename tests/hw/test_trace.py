"""Schedule tracing: event replay must agree with the closed form."""

import json

import numpy as np
import pytest

from repro.errors import HardwareModelError
from repro.hw.driver import PassCost, WaveletDriver
from repro.hw.fpga import FpgaEngine
from repro.hw.trace import (
    LANE_HW,
    LANE_PS,
    ScheduleTracer,
    trace_forward,
)
from repro.types import FrameShape


def _passes(n=20, ps_in=3e-6, ps_out=2e-6, hw=4e-6, cmd=25e-6):
    return [PassCost(ps_in_s=ps_in, ps_out_s=ps_out, hw_s=hw, cmd_s=cmd)
            for _ in range(n)]


class TestTracerOracle:
    @pytest.mark.parametrize("double_buffered", [True, False])
    def test_makespan_matches_driver_closed_form(self, double_buffered):
        passes = _passes(30)
        tracer = ScheduleTracer(double_buffered=double_buffered)
        makespan = tracer.run(passes)
        closed = WaveletDriver().schedule(
            passes, double_buffered=double_buffered).total_s
        assert np.isclose(makespan, closed, rtol=1e-12)

    @pytest.mark.parametrize("double_buffered", [True, False])
    def test_random_costs_still_agree(self, double_buffered, rng):
        passes = [PassCost(*rng.uniform(0, 1e-4, 4)) for _ in range(25)]
        tracer = ScheduleTracer(double_buffered=double_buffered)
        makespan = tracer.run(passes)
        closed = WaveletDriver().schedule(
            passes, double_buffered=double_buffered).total_s
        assert np.isclose(makespan, closed, rtol=1e-9)

    def test_empty_schedule(self):
        assert ScheduleTracer().run([]) == 0.0


class TestEvents:
    def test_event_counts(self):
        tracer = ScheduleTracer(double_buffered=False)
        tracer.run(_passes(5))
        # serial: in + cmd + hw + out per pass
        assert len(tracer.events) == 20
        assert sum(1 for e in tracer.events if e.lane == LANE_HW) == 5

    def test_no_overlap_within_a_lane(self):
        tracer = ScheduleTracer(double_buffered=True)
        tracer.run(_passes(15))
        for lane in (LANE_PS, LANE_HW):
            spans = sorted((e.start_s, e.end_s) for e in tracer.events
                           if e.lane == lane)
            for (s0, e0), (s1, _) in zip(spans, spans[1:]):
                assert s1 >= e0 - 1e-15

    def test_pipelining_overlaps_lanes(self):
        """With double buffering a PS copy must run during a HW pass."""
        tracer = ScheduleTracer(double_buffered=True)
        tracer.run(_passes(10, ps_in=10e-6, hw=30e-6))
        hw_spans = [(e.start_s, e.end_s) for e in tracer.events
                    if e.lane == LANE_HW]
        ps_copies = [e for e in tracer.events
                     if e.lane == LANE_PS and "memcpy" in e.name]
        overlapped = any(
            ps.start_s < hw_end and ps.end_s > hw_start
            for ps in ps_copies for hw_start, hw_end in hw_spans)
        assert overlapped

    def test_utilization_bounds(self):
        tracer = ScheduleTracer()
        tracer.run(_passes(10))
        for lane in (LANE_PS, LANE_HW):
            assert 0.0 < tracer.utilization(lane) <= 1.0


class TestExports:
    def test_chrome_trace_schema(self):
        tracer = ScheduleTracer()
        tracer.run(_passes(4))
        doc = json.loads(tracer.to_chrome_trace())
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(tracer.events)
        assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in spans)

    def test_ascii_gantt_renders(self):
        tracer = ScheduleTracer()
        tracer.run(_passes(6))
        text = tracer.to_ascii_gantt(width=40)
        assert LANE_PS in text and LANE_HW in text
        assert "#" in text

    def test_empty_gantt(self):
        assert "(empty trace)" in ScheduleTracer().to_ascii_gantt()


class TestTraceForward:
    def test_fpga_forward_trace(self):
        """The traced makespan equals the scheduled pass pipeline (the
        engine's total adds coefficient-reload overhead on top)."""
        engine = FpgaEngine()
        shape = FrameShape(40, 40)
        tracer = trace_forward(engine, shape, levels=3)
        passes = engine.work_model(shape, 3).forward_passes()
        scheduled = engine._schedule(passes).total_s  # noqa: SLF001
        assert np.isclose(tracer.makespan_s, scheduled, rtol=1e-9)
        assert tracer.makespan_s < engine.forward_time(shape, 3).total_s

    def test_command_dominates_the_ps_lane(self):
        """The tracer shows the paper's bottleneck: the PS is busy with
        commands, the PL mostly idles at paper-sized frames."""
        tracer = trace_forward(FpgaEngine(), FrameShape(40, 40), 3)
        assert tracer.utilization(LANE_PS) > 0.8
        assert tracer.utilization(LANE_HW) < 0.2

    def test_requires_fpga_engine(self):
        from repro.hw.arm import ArmEngine
        with pytest.raises(HardwareModelError):
            trace_forward(ArmEngine(), FrameShape(40, 40))
