"""Signal helpers: circular convolution algebra and its adjoints."""

import numpy as np
import pytest

from repro.dtcwt import util
from repro.errors import TransformError

import kernel_oracle


class TestCconv:
    def test_identity_filter(self, rng):
        x = rng.standard_normal(32)
        out = kernel_oracle.cconv(x, np.array([1.0]), center=0, axis=0)
        assert np.allclose(out, x)

    def test_delay_is_circular(self, rng):
        x = rng.standard_normal(16)
        # filter = delta at index 1, center 0 -> circular shift by 1
        out = kernel_oracle.cconv(x, np.array([0.0, 1.0]), center=0, axis=0)
        assert np.allclose(out, np.roll(x, 1))

    def test_centered_symmetric_is_zero_phase(self, rng):
        x = rng.standard_normal(64)
        taps = np.array([0.25, 0.5, 0.25])
        out = kernel_oracle.cconv(x, taps, center=1, axis=0)
        expected = 0.25 * np.roll(x, -1) + 0.5 * x + 0.25 * np.roll(x, 1)
        assert np.allclose(out, expected)

    def test_2d_axis_selection(self, rng):
        x = rng.standard_normal((8, 12))
        taps = np.array([0.5, 0.5])
        rows = kernel_oracle.cconv(x, taps, center=0, axis=0)
        cols = kernel_oracle.cconv(x, taps, center=0, axis=1)
        assert not np.allclose(rows, cols)
        assert rows.shape == cols.shape == x.shape

    def test_matches_direct_summation(self, rng):
        x = rng.standard_normal(20)
        taps = rng.standard_normal(7)
        center = 3
        out = kernel_oracle.cconv(x, taps, center=center, axis=0)
        direct = np.array([
            sum(taps[k] * x[(n + center - k) % len(x)]
                for k in range(len(taps)))
            for n in range(len(x))
        ])
        assert np.allclose(out, direct)


class TestAdjointness:
    """ccorr_causal must be the exact transpose of cconv_causal."""

    def test_inner_product_identity(self, rng):
        x = rng.standard_normal(24)
        y = rng.standard_normal(24)
        taps = rng.standard_normal(9)
        lhs = np.dot(kernel_oracle.cconv_causal(x, taps, axis=0), y)
        rhs = np.dot(x, kernel_oracle.ccorr_causal(y, taps, axis=0))
        assert np.isclose(lhs, rhs)

    def test_up_down_sampling_adjoint(self, rng):
        x = rng.standard_normal(16)
        y = rng.standard_normal(8)
        lhs = np.dot(kernel_oracle.downsample2(x, 0, axis=0), y)
        rhs = np.dot(x, kernel_oracle.upsample2(y, 0, axis=0))
        assert np.isclose(lhs, rhs)


class TestSampling:
    def test_downsample_phases(self):
        x = np.arange(10)
        assert list(kernel_oracle.downsample2(x, 0, 0)) == [0, 2, 4, 6, 8]
        assert list(kernel_oracle.downsample2(x, 1, 0)) == [1, 3, 5, 7, 9]

    def test_upsample_inserts_zeros(self):
        x = np.array([1.0, 2.0])
        up = kernel_oracle.upsample2(x, 0, 0)
        assert list(up) == [1.0, 0.0, 2.0, 0.0]
        up1 = kernel_oracle.upsample2(x, 1, 0)
        assert list(up1) == [0.0, 1.0, 0.0, 2.0]

    def test_bad_phase_raises(self):
        with pytest.raises(TransformError):
            kernel_oracle.downsample2(np.arange(4), 2, 0)
        with pytest.raises(TransformError):
            kernel_oracle.upsample2(np.arange(4), -1, 0)


class TestPadding:
    def test_no_padding_needed(self, rng):
        img = rng.standard_normal((16, 24))
        padded, original = util.pad_to_multiple(img, 8)
        assert padded is img
        assert original == (16, 24)

    def test_pads_to_multiple(self, rng):
        img = rng.standard_normal((35, 35))
        padded, original = util.pad_to_multiple(img, 8)
        assert padded.shape == (40, 40)
        assert original == (35, 35)
        assert np.allclose(util.crop_to(padded, original), img)

    def test_padding_replicates_edges(self):
        img = np.arange(9.0).reshape(3, 3)
        padded, _ = util.pad_to_multiple(img, 4)
        assert padded.shape == (4, 4)
        assert np.allclose(padded[3, :3], img[2])
        assert np.allclose(padded[:3, 3], img[:, 2])


class TestValidation:
    def test_as_float_image_rejects_1d(self):
        with pytest.raises(TransformError):
            util.as_float_image(np.arange(8))

    def test_as_float_image_rejects_empty(self):
        with pytest.raises(TransformError):
            util.as_float_image(np.zeros((0, 4)))

    def test_as_float_image_converts(self):
        out = util.as_float_image(np.ones((2, 2), dtype=np.uint8))
        assert out.dtype == np.float64


class TestGroupDelay:
    def test_pure_delay(self):
        taps = np.zeros(8)
        taps[3] = 1.0
        omegas = np.linspace(0.1, 2.0, 20)
        delays = util.group_delay(taps, omegas)
        assert np.allclose(delays, 3.0, atol=1e-9)

    def test_symmetric_filter_half_delay(self):
        taps = np.array([0.5, 0.5])
        omegas = np.linspace(0.1, 2.0, 20)
        assert np.allclose(util.group_delay(taps, omegas), 0.5, atol=1e-9)


class TestOrthonormality:
    def test_haar_is_orthonormal(self):
        h = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert util.is_orthonormal_filter(h)

    def test_scaled_haar_is_not(self):
        assert not util.is_orthonormal_filter(np.array([1.0, 1.0]))
