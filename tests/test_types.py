"""Foundational shared types."""

import dataclasses

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DriverError,
    EngineError,
    HardwareModelError,
    ReproError,
    TransformError,
    VideoError,
)
from repro.types import (
    FULL_FRAME,
    PAPER_FRAME_SIZES,
    EnergyReport,
    FrameShape,
    StageProfile,
    TimingBreakdown,
)


class TestFrameShape:
    def test_paper_sizes_in_order(self):
        assert [str(s) for s in PAPER_FRAME_SIZES] == [
            "32x24", "35x35", "40x40", "64x48", "88x72"]
        assert FULL_FRAME == FrameShape(88, 72)

    def test_pixels_and_array_shape(self):
        shape = FrameShape(88, 72)
        assert shape.pixels == 6336
        assert shape.array_shape == (72, 88)  # numpy is (rows, cols)

    def test_scaled(self):
        assert FrameShape(88, 72).scaled(0.5) == FrameShape(44, 36)
        assert FrameShape(3, 3).scaled(0.01) == FrameShape(1, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FrameShape(0, 10)
        with pytest.raises(ConfigurationError):
            FrameShape(10, -1)

    def test_hashable_and_equal(self):
        assert FrameShape(4, 4) == FrameShape(4, 4)
        assert len({FrameShape(4, 4), FrameShape(4, 4)}) == 1


class TestTimingBreakdown:
    def test_total_sums_components(self):
        b = TimingBreakdown(compute_s=1.0, transfer_s=0.5,
                            command_s=0.25, overhead_s=0.25)
        assert b.total_s == 2.0

    def test_addition(self):
        a = TimingBreakdown(compute_s=1.0, command_s=0.5)
        b = TimingBreakdown(compute_s=2.0, transfer_s=1.0)
        total = a + b
        assert total.compute_s == 3.0
        assert total.transfer_s == 1.0
        assert total.command_s == 0.5

    def test_scaled(self):
        b = TimingBreakdown(compute_s=1.0, transfer_s=2.0).scaled(2.0)
        assert b.compute_s == 2.0
        assert b.total_s == 6.0

    def test_frozen(self):
        b = TimingBreakdown(compute_s=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.compute_s = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.command_s += 1.0
        assert b == TimingBreakdown(compute_s=1.0)


class TestEnergyReport:
    def test_joules(self):
        report = EnergyReport(seconds=2.0, power_w=0.533)
        assert np.isclose(report.joules, 1.066)
        assert np.isclose(report.millijoules, 1066.0)


class TestStageProfile:
    def test_percentages(self):
        profile = StageProfile()
        profile.add("a", 3.0)
        profile.add("b", 1.0)
        pct = profile.percentages()
        assert np.isclose(pct["a"], 75.0)
        assert np.isclose(sum(pct.values()), 100.0)

    def test_accumulation(self):
        profile = StageProfile()
        profile.add("x", 1.0)
        profile.add("x", 2.0)
        assert profile.stages["x"] == 3.0

    def test_ranked(self):
        profile = StageProfile()
        profile.add("small", 1.0)
        profile.add("big", 9.0)
        assert profile.ranked()[0][0] == "big"

    def test_empty_profile(self):
        assert StageProfile().percentages() == {}
        assert StageProfile().total_s == 0.0


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for exc in (ConfigurationError, TransformError, VideoError,
                    HardwareModelError, DriverError, EngineError):
            assert issubclass(exc, ReproError)

    def test_hw_errors_are_grouped(self):
        assert issubclass(DriverError, HardwareModelError)
        assert issubclass(EngineError, HardwareModelError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise DriverError("bad ioctl")
