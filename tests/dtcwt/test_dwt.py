"""Classic DWT baseline: reconstruction, structure, Fig. 1 mosaic."""

import numpy as np
import pytest

from repro.dtcwt import Dwt2D, subband_mosaic
from repro.errors import TransformError


class TestDwtRoundtrip:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(32, 32), (48, 64), (24, 40)])
    def test_pr(self, rng, levels, shape):
        x = rng.standard_normal(shape)
        t = Dwt2D(levels=levels)
        assert np.max(np.abs(t.inverse(t.forward(x)) - x)) < 1e-10

    @pytest.mark.parametrize("filter_length", [4, 6, 8])
    def test_pr_across_filters(self, rng, filter_length):
        x = rng.standard_normal((32, 32))
        t = Dwt2D(levels=2, filter_length=filter_length)
        assert np.max(np.abs(t.inverse(t.forward(x)) - x)) < 1e-10

    def test_orthonormal_energy_preservation(self, rng):
        """Critically-sampled orthonormal DWT preserves energy exactly."""
        x = rng.standard_normal((32, 32))
        pyr = Dwt2D(levels=3).forward(x)
        total = float(np.sum(pyr.lowpass ** 2)) + sum(
            float(np.sum(d ** 2)) for d in pyr.details)
        assert np.isclose(total, float(np.sum(x ** 2)))

    def test_level_mismatch_raises(self, rng):
        pyr = Dwt2D(levels=2).forward(rng.standard_normal((32, 32)))
        with pytest.raises(TransformError):
            Dwt2D(levels=3).inverse(pyr)

    def test_bad_levels(self):
        with pytest.raises(TransformError):
            Dwt2D(levels=0)

    def test_rejects_frame_stacks(self):
        with pytest.raises(TransformError, match="2-D image"):
            Dwt2D(levels=1).forward(np.zeros((2, 8, 8)))


class TestStructure:
    def test_detail_shapes_follow_fig1(self, rng):
        """Each level's sub-bands halve the frame (paper Fig. 1)."""
        pyr = Dwt2D(levels=3).forward(rng.standard_normal((64, 64)))
        assert [d.shape for d in pyr.details] == [
            (3, 32, 32), (3, 16, 16), (3, 8, 8)]
        assert pyr.lowpass.shape == (8, 8)

    def test_details_stack_order(self, rng):
        """The (LH, HL, HH) stacking: a horizontal edge image puts its
        energy into the vertical-high band (LH)."""
        img = np.zeros((32, 32))
        img[16:, :] = 1.0  # horizontal step edge -> vertical frequency
        pyr = Dwt2D(levels=1).forward(img)
        lh, hl, hh = pyr.details[0]
        assert np.sum(lh ** 2) > 10 * np.sum(hl ** 2)
        assert np.sum(lh ** 2) > 10 * np.sum(hh ** 2)


class TestMosaic:
    def test_mosaic_shape(self, rng):
        pyr = Dwt2D(levels=3).forward(rng.standard_normal((64, 64)))
        assert subband_mosaic(pyr).shape == (64, 64)

    def test_mosaic_energy_matches_pyramid(self, rng):
        pyr = Dwt2D(levels=2).forward(rng.standard_normal((32, 32)))
        mosaic = subband_mosaic(pyr)
        total = float(np.sum(pyr.lowpass ** 2)) + sum(
            float(np.sum(d ** 2)) for d in pyr.details)
        assert np.isclose(float(np.sum(mosaic ** 2)), total)

    def test_mosaic_lowpass_top_left(self, rng):
        pyr = Dwt2D(levels=2).forward(rng.standard_normal((32, 32)) + 10.0)
        mosaic = subband_mosaic(pyr)
        assert np.allclose(mosaic[:8, :8], pyr.lowpass)
