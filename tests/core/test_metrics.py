"""Fusion quality metrics: ranges, identities, discrimination."""

import numpy as np
import pytest

from repro.core import metrics
from repro.errors import FusionError


@pytest.fixture
def image(rng):
    return rng.uniform(0, 255, (48, 48))


class TestEntropy:
    def test_constant_image_zero_entropy(self):
        assert metrics.entropy(np.full((16, 16), 42.0)) == 0.0

    def test_uniform_noise_high_entropy(self, rng):
        img = rng.uniform(0, 255, (64, 64))
        assert metrics.entropy(img) > 6.0

    def test_bounded_by_log_bins(self, image):
        assert metrics.entropy(image, bins=16) <= 4.0 + 1e-9

    def test_rejects_non_2d(self):
        with pytest.raises(FusionError):
            metrics.entropy(np.arange(10))


class TestMutualInformation:
    def test_symmetric(self, rng):
        a = rng.uniform(0, 255, (32, 32))
        b = a + rng.normal(0, 20, a.shape)
        assert np.isclose(metrics.mutual_information(a, b),
                          metrics.mutual_information(b, a))

    def test_self_information_is_entropy_like(self, image):
        mi_self = metrics.mutual_information(image, image)
        mi_indep = metrics.mutual_information(
            image, np.random.default_rng(1).uniform(0, 255, image.shape))
        assert mi_self > mi_indep + 1.0

    def test_nonnegative(self, rng):
        a = rng.uniform(0, 255, (32, 32))
        b = rng.uniform(0, 255, (32, 32))
        assert metrics.mutual_information(a, b) >= -1e-9

    def test_size_mismatch(self, rng):
        with pytest.raises(FusionError):
            metrics.mutual_information(rng.uniform(0, 1, (8, 8)),
                                       rng.uniform(0, 1, (9, 9)))

    def test_transposed_shape_is_a_mismatch(self, rng):
        """Equal sizes are not enough: a 72x88 frame against an 88x72
        one is a shape bug, named in the error."""
        with pytest.raises(FusionError, match=r"\(72, 88\).*\(88, 72\)"):
            metrics.mutual_information(rng.uniform(0, 255, (72, 88)),
                                       rng.uniform(0, 255, (88, 72)))

    def test_fusion_mi_sums_sources(self, image, rng):
        other = rng.uniform(0, 255, image.shape)
        fused = (image + other) / 2
        total = metrics.fusion_mutual_information(image, other, fused)
        assert np.isclose(
            total,
            metrics.mutual_information(image, fused)
            + metrics.mutual_information(other, fused),
        )


class TestQabf:
    def test_perfect_fusion_of_identical_sources(self, image):
        """Fusing identical images with the identity: Q^AB/F near 1."""
        q = metrics.petrovic_qabf(image, image, image)
        assert q > 0.85

    def test_unrelated_output_scores_low(self, rng, image):
        noise = rng.uniform(0, 255, image.shape)
        q_good = metrics.petrovic_qabf(image, image, image)
        q_bad = metrics.petrovic_qabf(image, image, noise)
        assert q_bad < q_good

    def test_bounded(self, rng):
        a = rng.uniform(0, 255, (32, 32))
        b = rng.uniform(0, 255, (32, 32))
        f = (a + b) / 2
        assert 0.0 <= metrics.petrovic_qabf(a, b, f) <= 1.0

    def test_flat_images_score_zero(self):
        flat = np.zeros((16, 16))
        assert metrics.petrovic_qabf(flat, flat, flat) == 0.0

    def test_shape_mismatch_names_the_shapes(self, rng):
        a = rng.uniform(0, 255, (72, 88))
        with pytest.raises(FusionError, match=r"\(72, 88\).*\(88, 72\)"):
            metrics.petrovic_qabf(a, a.T, a)
        with pytest.raises(FusionError, match=r"\(72, 88\).*\(88, 72\)"):
            metrics.petrovic_qabf(a, a, a.T)

    def test_stack_gives_one_value_per_frame(self, rng):
        a = rng.uniform(0, 255, (3, 16, 12))
        b = rng.uniform(0, 255, (3, 16, 12))
        q = metrics.petrovic_qabf(a, b, (a + b) / 2)
        assert len(q) == 3
        assert q == [metrics.petrovic_qabf(a[i], b[i], (a[i] + b[i]) / 2)
                     for i in range(3)]


class TestSsim:
    def test_identity(self, image):
        assert np.isclose(metrics.ssim(image, image), 1.0)

    def test_degrades_with_noise(self, rng, image):
        noisy_small = image + rng.normal(0, 5, image.shape)
        noisy_large = image + rng.normal(0, 50, image.shape)
        assert metrics.ssim(image, noisy_small) > metrics.ssim(image, noisy_large)

    def test_shape_mismatch(self, rng):
        with pytest.raises(FusionError):
            metrics.ssim(rng.uniform(0, 1, (8, 8)), rng.uniform(0, 1, (9, 9)))


class TestSharpness:
    def test_spatial_frequency_prefers_detail(self, rng):
        sharp = rng.uniform(0, 255, (32, 32))
        blurred = np.full((32, 32), sharp.mean())
        assert metrics.spatial_frequency(sharp) > metrics.spatial_frequency(blurred)

    def test_average_gradient_zero_for_flat(self):
        assert metrics.average_gradient(np.ones((16, 16))) == 0.0


class TestPsnr:
    def test_identical_images_infinite(self, image):
        assert metrics.psnr(image, image) == float("inf")

    def test_known_value(self):
        ref = np.zeros((8, 8))
        img = np.full((8, 8), 16.0)  # MSE = 256 -> PSNR = 10log10(255^2/256)
        expected = 10 * np.log10(255.0 ** 2 / 256.0)
        assert np.isclose(metrics.psnr(ref, img), expected)

    def test_shape_mismatch(self):
        with pytest.raises(FusionError):
            metrics.psnr(np.zeros((4, 4)), np.zeros((5, 5)))


class TestReport:
    def test_report_keys(self, structured_pair):
        vis, th = structured_pair
        report = metrics.fusion_report(vis, th, (vis + th) / 2)
        assert set(report) == {"entropy", "mutual_information", "qabf",
                               "spatial_frequency", "average_gradient"}

    def test_stack_gives_one_report_per_frame(self, structured_pair):
        vis, th = structured_pair
        fused = (vis + th) / 2
        reports = metrics.fusion_report(np.stack([vis, th]),
                                        np.stack([th, vis]),
                                        np.stack([fused, fused]))
        assert reports == [metrics.fusion_report(vis, th, fused),
                           metrics.fusion_report(th, vis, fused)]

    def test_shape_mismatch_names_the_shapes(self, structured_pair):
        vis, th = structured_pair
        with pytest.raises(FusionError, match=r"\(72, 88\).*\(88, 72\)"):
            metrics.fusion_report(vis, th.T, vis)

    def test_rejects_other_ranks(self):
        with pytest.raises(FusionError):
            metrics.fusion_report(*[np.zeros((2, 3, 4, 5))] * 3)
