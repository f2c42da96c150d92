"""I/O formats and runtime telemetry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, VideoError
from repro.io import (
    colorize_fusion,
    read_float_raw,
    read_pgm,
    read_ppm,
    write_float_raw,
    write_pgm,
    write_ppm,
)
from repro.session.telemetry import FrameTelemetry


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 255, (24, 30)).astype(np.uint8)
        path = tmp_path / "frame.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_float_input_clipped(self, tmp_path):
        path = tmp_path / "clip.pgm"
        write_pgm(path, np.array([[-10.0, 300.0]]))
        out = read_pgm(path)
        assert out[0, 0] == 0 and out[0, 1] == 255

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(VideoError):
            write_pgm(tmp_path / "bad.pgm", np.zeros((4, 4, 3)))

    def test_read_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(VideoError):
            read_pgm(path)

    def test_read_handles_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        assert read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(VideoError):
            read_pgm(path)


class TestPpmAndRaw:
    def test_ppm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 255, (8, 10, 3)).astype(np.uint8)
        path = tmp_path / "c.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_ppm_needs_three_channels(self, tmp_path):
        with pytest.raises(VideoError):
            write_ppm(tmp_path / "bad.ppm", np.zeros((4, 4)))

    def test_raw_roundtrip_any_rank(self, tmp_path, rng):
        for shape in ((5,), (3, 4), (2, 3, 4)):
            arr = rng.standard_normal(shape).astype(np.float32)
            path = tmp_path / "a.rpf"
            write_float_raw(path, arr)
            back = read_float_raw(path)
            assert back.shape == shape
            assert np.allclose(back, arr)

    def test_raw_bad_magic(self, tmp_path):
        path = tmp_path / "x.rpf"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(VideoError):
            read_float_raw(path)


class TestColorize:
    def test_output_shape_and_type(self):
        out = colorize_fusion(np.full((6, 6), 100.0),
                              np.linspace(0, 255, 36).reshape(6, 6))
        assert out.shape == (6, 6, 3)
        assert out.dtype == np.uint8

    def test_hot_regions_turn_red(self):
        luma = np.full((4, 4), 100.0)
        heat = np.zeros((4, 4))
        heat[0, 0] = 255.0
        out = colorize_fusion(luma, heat)
        assert out[0, 0, 0] > out[0, 0, 2]          # red over blue when hot
        assert out[3, 3, 0] == out[3, 3, 2] == 100  # neutral when cold

    def test_alpha_zero_is_grayscale(self, rng):
        luma = rng.uniform(0, 255, (5, 5))
        out = colorize_fusion(luma, rng.uniform(0, 255, (5, 5)), alpha=0.0)
        assert np.array_equal(out[..., 0], out[..., 1])
        assert np.array_equal(out[..., 1], out[..., 2])

    def test_validation(self):
        with pytest.raises(VideoError):
            colorize_fusion(np.zeros((4, 4)), np.zeros((5, 5)))
        with pytest.raises(VideoError):
            colorize_fusion(np.zeros((4, 4)), np.zeros((4, 4)), alpha=2.0)


class TestTelemetry:
    def test_summary_statistics(self):
        telemetry = FrameTelemetry(target_fps=25.0)
        for seconds in (0.02, 0.03, 0.04, 0.05, 0.06):
            telemetry.record(seconds, millijoules=10.0)
        summary = telemetry.summary()
        assert summary.frames == 5
        assert np.isclose(summary.latency_mean_s, 0.04)
        assert np.isclose(summary.latency_p50_s, 0.04)
        assert summary.latency_max_s == 0.06
        assert summary.deadline_misses == 2  # 0.05 and 0.06 > 40 ms
        assert np.isclose(summary.millijoules_total, 50.0)

    def test_fps(self):
        telemetry = FrameTelemetry()
        telemetry.record(0.1)
        telemetry.record(0.1)
        assert np.isclose(telemetry.summary().fps, 10.0)

    def test_energy_budget_extrapolation(self):
        telemetry = FrameTelemetry(energy_budget_mj=100.0)
        telemetry.record(0.05, millijoules=10.0)
        assert telemetry.frames_remaining() == 9
        for _ in range(9):
            telemetry.record(0.05, millijoules=10.0)
        assert telemetry.frames_remaining() == 0

    def test_no_budget_returns_none(self):
        telemetry = FrameTelemetry()
        telemetry.record(0.05, 1.0)
        assert telemetry.frames_remaining() is None

    def test_empty_summary_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameTelemetry().summary()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FrameTelemetry(target_fps=0)
        with pytest.raises(ConfigurationError):
            FrameTelemetry(energy_budget_mj=-5)
        telemetry = FrameTelemetry()
        with pytest.raises(ConfigurationError):
            telemetry.record(-1.0)

    def test_percentile_interpolates(self):
        telemetry = FrameTelemetry()
        telemetry.record(0.01)
        telemetry.record(0.03)
        summary = telemetry.summary()
        assert 0.01 < summary.latency_p50_s < 0.03
