"""Sensor-health monitoring over the fusion stream."""

import numpy as np
import pytest

from repro.core.fusion import fuse_images
from repro.core.quality_monitor import (
    ACTION_FUSE,
    ACTION_PASS_VISIBLE,
    ACTION_PASS_THERMAL,
    QualityMonitor,
)
from repro.errors import FusionError
from repro.video.scene import SyntheticScene


@pytest.fixture
def frame_pair():
    scene = SyntheticScene(width=96, height=80, seed=6)
    return scene.render_visible(0.0), scene.render_thermal(0.0)


def _run(monitor, visible, thermal, frames):
    reading = None
    for _ in range(frames):
        fused = fuse_images(visible, thermal, levels=2)
        reading = monitor.observe(visible, thermal, fused)
    return reading


class TestHealthyOperation:
    def test_healthy_stream_recommends_fusion(self, frame_pair):
        visible, thermal = frame_pair
        monitor = QualityMonitor(warmup=2)
        reading = _run(monitor, visible, thermal, 5)
        assert reading.action == ACTION_FUSE
        assert monitor.alarms == 0

    def test_history_and_mean_quality(self, frame_pair):
        visible, thermal = frame_pair
        monitor = QualityMonitor()
        _run(monitor, visible, thermal, 4)
        assert len(monitor.history) == 4
        assert 0.0 <= monitor.mean_qabf() <= 1.0


class TestFailureDetection:
    def test_dead_thermal_flags_and_falls_back(self, frame_pair):
        visible, thermal = frame_pair
        monitor = QualityMonitor(warmup=3)
        _run(monitor, visible, thermal, 3)          # establish baselines
        dead = np.full_like(thermal, 128.0)         # failed sensor: flat
        fused = fuse_images(visible, dead, levels=2)
        reading = monitor.observe(visible, dead, fused)
        assert not reading.thermal_healthy
        assert reading.visible_healthy
        assert reading.action == ACTION_PASS_VISIBLE
        assert monitor.alarms == 1

    def test_dead_visible_prefers_thermal(self, frame_pair):
        visible, thermal = frame_pair
        monitor = QualityMonitor(warmup=3)
        _run(monitor, visible, thermal, 3)
        dead = np.zeros_like(visible)
        fused = fuse_images(dead, thermal, levels=2)
        reading = monitor.observe(dead, thermal, fused)
        assert reading.action == ACTION_PASS_THERMAL

    def test_recovery_clears_the_flag(self, frame_pair):
        visible, thermal = frame_pair
        monitor = QualityMonitor(warmup=3)
        _run(monitor, visible, thermal, 3)
        dead = np.full_like(thermal, 100.0)
        monitor.observe(visible, dead, fuse_images(visible, dead, levels=2))
        reading = _run(monitor, visible, thermal, 1)
        assert reading.action == ACTION_FUSE

    def test_baseline_not_dragged_down_by_dead_sensor(self, frame_pair):
        """A persistently dead channel must keep alarming (the baseline
        only learns from healthy frames)."""
        visible, thermal = frame_pair
        monitor = QualityMonitor(warmup=3)
        _run(monitor, visible, thermal, 3)
        dead = np.full_like(thermal, 100.0)
        for _ in range(6):
            reading = monitor.observe(
                visible, dead, fuse_images(visible, dead, levels=2))
            assert not reading.thermal_healthy


class TestValidation:
    def test_shape_mismatch_names_the_shapes(self, frame_pair):
        visible, thermal = frame_pair
        monitor = QualityMonitor()
        with pytest.raises(FusionError, match=r"\(80, 96\).*\(96, 80\)"):
            monitor.observe(visible, thermal.T, visible)
        with pytest.raises(FusionError, match=r"\(80, 96\).*\(96, 80\)"):
            monitor.observe(visible, thermal, visible.T, qabf=0.5)
        assert monitor.history == []

    def test_given_qabf_is_the_reading(self, frame_pair):
        """A caller that already graded the triple hands its Q^AB/F in;
        the monitor uses it instead of grading again."""
        visible, thermal = frame_pair
        fused = fuse_images(visible, thermal, levels=2)
        computed = QualityMonitor().observe(visible, thermal, fused)
        given = QualityMonitor().observe(visible, thermal, fused,
                                         qabf=computed.fused_qabf)
        assert given == computed
        assert QualityMonitor().observe(visible, thermal, fused,
                                        qabf=0.25).fused_qabf == 0.25

    def test_parameters(self):
        with pytest.raises(FusionError):
            QualityMonitor(alpha=0.0)
        with pytest.raises(FusionError):
            QualityMonitor(activity_floor=1.0)
        with pytest.raises(FusionError):
            QualityMonitor(warmup=0)

    def test_mean_quality_needs_frames(self):
        with pytest.raises(FusionError):
            QualityMonitor().mean_qabf()
