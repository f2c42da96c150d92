"""Scaler, FIFO handshake and frame utilities."""

import numpy as np
import pytest

from repro.errors import VideoError
from repro.video.fifo import FrameFifo
from repro.video.frames import VideoFrame, center_crop
from repro.video.scaler import VideoScaler, resize_to


def _four_tap_bilinear(frame, out_shape):
    """The direct bilinear formula (four gathers per output pixel): the
    oracle for the scaler's separable column-then-row pass."""
    rows_out, cols_out = out_shape
    rows_in, cols_in = frame.shape
    data = frame.astype(np.float64)
    r_pos = np.linspace(0, rows_in - 1, rows_out)
    c_pos = np.linspace(0, cols_in - 1, cols_out)
    r0 = np.floor(r_pos).astype(int)
    c0 = np.floor(c_pos).astype(int)
    r1 = np.minimum(r0 + 1, rows_in - 1)
    c1 = np.minimum(c0 + 1, cols_in - 1)
    wr = (r_pos - r0)[:, None]
    wc = (c_pos - c0)[None, :]
    top = data[np.ix_(r0, c0)] * (1 - wc) + data[np.ix_(r0, c1)] * wc
    bot = data[np.ix_(r1, c0)] * (1 - wc) + data[np.ix_(r1, c1)] * wc
    out = top * (1 - wr) + bot * wr
    if np.issubdtype(frame.dtype, np.integer):
        return np.clip(np.round(out), 0, 255).astype(frame.dtype)
    return out


class TestScaler:
    def test_paper_geometry(self, rng):
        """720x243 fields to 640x480 frames (Fig. 7's Video_Scale)."""
        scaler = VideoScaler()
        field = rng.integers(0, 255, (243, 720)).astype(np.uint8)
        assert scaler.scale(field).shape == (480, 640)

    def test_identity_scaling(self, rng):
        img = rng.standard_normal((32, 32))
        scaler = VideoScaler(in_shape=(32, 32), out_shape=(32, 32))
        assert np.allclose(scaler.scale(img), img)

    def test_bilinear_interpolates_midpoints(self):
        img = np.array([[0.0, 10.0]])
        scaler = VideoScaler(in_shape=(1, 2), out_shape=(1, 3))
        out = scaler.scale(img)
        assert np.allclose(out, [[0.0, 5.0, 10.0]])

    def test_nearest_preserves_values(self, rng):
        img = rng.integers(0, 255, (10, 10)).astype(np.uint8)
        scaler = VideoScaler(in_shape=(10, 10), out_shape=(25, 25),
                             method="nearest")
        out = scaler.scale(img)
        assert set(np.unique(out)) <= set(np.unique(img))

    def test_uint8_stays_uint8(self, rng):
        img = rng.integers(0, 255, (16, 16)).astype(np.uint8)
        out = resize_to(img, (24, 24))
        assert out.dtype == np.uint8

    def test_wrong_input_shape_rejected(self, rng):
        scaler = VideoScaler(in_shape=(10, 10), out_shape=(20, 20))
        with pytest.raises(VideoError):
            scaler.scale(rng.standard_normal((11, 10)))

    def test_bad_method(self):
        with pytest.raises(VideoError):
            VideoScaler(method="psychic")

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64, np.float32,
                                       np.int16])
    def test_bilinear_bitwise_matches_four_tap_formula(self, rng, dtype):
        for _ in range(50):
            in_shape = tuple(int(n) for n in rng.integers(1, 150, 2))
            out_shape = tuple(int(n) for n in rng.integers(1, 150, 2))
            img = rng.uniform(-20, 280, in_shape).astype(dtype)
            got = VideoScaler(in_shape, out_shape).scale(img)
            want = _four_tap_bilinear(img, out_shape)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_paper_geometry_bitwise_matches_four_tap_formula(self, rng):
        field = rng.integers(0, 256, (243, 720)).astype(np.uint8)
        got = VideoScaler().scale(field)
        assert got.tobytes() == _four_tap_bilinear(field, (480, 640)).tobytes()

    def test_mean_preserved_approximately(self, rng):
        img = rng.uniform(0, 255, (64, 64))
        out = resize_to(img, (96, 96))
        assert abs(out.mean() - img.mean()) < 2.0


class TestFifo:
    def test_handshake_semantics(self):
        """'a new frame will be stored ... only after the previous frame
        is taken' — capacity-1 ready/valid behaviour."""
        fifo = FrameFifo(capacity=1)
        assert fifo.ready and not fifo.valid
        assert fifo.push(np.zeros((2, 2)))
        assert not fifo.ready and fifo.valid
        assert not fifo.push(np.ones((2, 2)))   # dropped at the producer
        assert fifo.stats.dropped == 1
        fifo.pop()
        assert fifo.ready

    def test_order_preserved(self):
        fifo = FrameFifo(capacity=3)
        for i in range(3):
            fifo.push(np.full((1, 1), i))
        assert [int(fifo.pop()[0, 0]) for _ in range(3)] == [0, 1, 2]

    def test_pop_empty_returns_none(self):
        assert FrameFifo().pop() is None

    def test_stats_accounting(self):
        fifo = FrameFifo(capacity=2)
        for i in range(5):
            fifo.push(np.zeros((1, 1)))
        assert fifo.stats.pushed == 5
        assert fifo.stats.dropped == 3
        assert fifo.stats.accepted == 2

    def test_capacity_validation(self):
        with pytest.raises(VideoError):
            FrameFifo(capacity=0)

    def test_clear(self):
        fifo = FrameFifo(capacity=2)
        fifo.push(np.zeros((1, 1)))
        fifo.clear()
        assert not fifo.valid
        assert fifo.occupancy == 0


class TestVideoFrame:
    def test_gray_conversion_bt601(self):
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        rgb[..., 1] = 100  # pure green
        frame = VideoFrame(pixels=rgb, timestamp_s=0.0, frame_id=0)
        gray = frame.to_gray()
        assert np.allclose(gray.pixels, round(0.587 * 100))

    def test_gray_of_gray_is_identity(self):
        frame = VideoFrame(pixels=np.zeros((4, 4), dtype=np.uint8),
                           timestamp_s=0.0, frame_id=0)
        assert frame.to_gray() is frame

    def test_dimension_validation(self):
        with pytest.raises(VideoError):
            VideoFrame(pixels=np.zeros(5), timestamp_s=0.0, frame_id=0)

    def test_center_crop(self):
        img = np.arange(36).reshape(6, 6)
        crop = center_crop(img, 2, 2)
        assert crop.shape == (2, 2)
        assert crop[0, 0] == img[2, 2]

    def test_center_crop_pads_small_input(self):
        img = np.ones((2, 2))
        crop = center_crop(img, 4, 4)
        assert crop.shape == (4, 4)
