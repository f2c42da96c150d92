"""ImageFusion pipeline: staged API, shapes, information transfer."""

import numpy as np
import pytest

from repro.core.fusion import FusionResult, ImageFusion, fuse_images
from repro.core.fusion_rules import WeightedRule
from repro.errors import FusionError


class TestFuse:
    def test_output_shape_matches_input(self, structured_pair):
        vis, th = structured_pair
        fused = fuse_images(vis, th)
        assert fused.shape == vis.shape

    def test_result_fields(self, structured_pair):
        vis, th = structured_pair
        result = ImageFusion(levels=2).fuse(vis, th)
        assert isinstance(result, FusionResult)
        assert result.pyramids[0].levels == 2
        assert result.pyramid_fused.levels == 2
        assert result.fused.shape == vis.shape

    def test_identical_inputs_reconstruct_exactly(self, rng):
        x = rng.standard_normal((40, 40)) * 50 + 100
        fused = fuse_images(x, x)
        assert np.max(np.abs(fused - x)) < 1e-8

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(FusionError):
            fuse_images(rng.standard_normal((16, 16)),
                        rng.standard_normal((24, 24)))

    def test_odd_sizes_supported(self, rng):
        """The paper's 35x35 sweep point must work."""
        a = rng.standard_normal((35, 35))
        b = rng.standard_normal((35, 35))
        assert fuse_images(a, b).shape == (35, 35)

    def test_fused_contains_both_modalities(self, structured_pair):
        """Fusion transfers the thermal blob into the visible context."""
        vis, th = structured_pair
        fused = fuse_images(vis, th)
        # the hot blob region must be brighter in the fused image than
        # the visible image alone shows it
        blob = (slice(25, 36), slice(55, 66))
        assert fused[blob].mean() > vis[blob].mean() + 5.0

    def test_weighted_rule_full_alpha_recovers_input_a(self, structured_pair):
        vis, th = structured_pair
        fusion = ImageFusion(levels=3, rule=WeightedRule(alpha=1.0))
        fused = fusion.fuse(vis, th).fused
        assert np.max(np.abs(fused - vis)) < 1e-8


def fuse_separately(fusion, *frames):
    """The slow reference: one forward per source frame, then the
    coefficient and inverse stages."""
    pyramids = [fusion.decompose(frame) for frame in frames]
    return fusion.reconstruct(fusion.combine(*pyramids))


class TestStagedApi:
    def test_stages_compose_to_fuse(self, structured_pair):
        vis, th = structured_pair
        fusion = ImageFusion(levels=2)
        pyr_a = fusion.decompose(vis)
        pyr_b = fusion.decompose(th)
        fused_pyr = fusion.combine(pyr_a, pyr_b)
        fused = fusion.reconstruct(fused_pyr)
        assert np.array_equal(fused, fusion.fuse(vis, th).fused)

    def test_levels_property(self):
        assert ImageFusion(levels=4).levels == 4

    def test_single_frame_and_stack_do_not_combine(self, rng):
        fusion = ImageFusion(levels=2)
        frames = rng.standard_normal((2, 16, 16))
        single, stack = fusion.decompose(frames[0]), fusion.decompose(frames)
        with pytest.raises(FusionError, match=r"\(\) vs \(2,\)"):
            fusion.combine(single, stack)


class TestFuseBatch:
    def test_bitwise_identical_to_per_pair_fuse(self, rng):
        vis = rng.standard_normal((4, 40, 40)) * 40 + 110
        th = rng.standard_normal((4, 40, 40)) * 40 + 90
        fusion = ImageFusion(levels=2)
        batch = fusion.fuse(vis, th)
        assert isinstance(batch, FusionResult)
        assert batch.fused.shape == (4, 40, 40)
        assert batch.pyramid_fused.frames == (4,)
        for i in range(4):
            assert np.array_equal(batch.fused[i],
                                  fuse_separately(fusion, vis[i], th[i]))
            assert np.array_equal(batch.fused[i],
                                  fusion.fuse(vis[i], th[i]).fused)

    def test_getitem_adapts_to_fusion_result(self, rng):
        vis = rng.standard_normal((2, 32, 32))
        th = rng.standard_normal((2, 32, 32))
        fusion = ImageFusion(levels=2)
        stacked = fusion.fuse(vis, th)
        result = fusion.fuse(vis[1], th[1])
        assert isinstance(result, FusionResult)
        assert result.pyramids[0].levels == 2
        assert result.fused.shape == (32, 32)
        assert np.array_equal(stacked.pyramids[0][1].lowpass,
                              result.pyramids[0].lowpass)
        assert np.array_equal(stacked.pyramid_fused[1].highpasses[0],
                              result.pyramid_fused.highpasses[0])

    def test_staged_batch_api_composes(self, rng):
        vis = rng.standard_normal((3, 32, 32))
        th = rng.standard_normal((3, 32, 32))
        fusion = ImageFusion(levels=2)
        stack_a = fusion.decompose(vis)
        stack_b = fusion.decompose(th)
        fused = fusion.reconstruct(fusion.combine(stack_a, stack_b))
        assert np.array_equal(fused, fusion.fuse(vis, th).fused)

    def test_source_major_stack_matches_per_group_fuse(self, rng):
        """One forward of a source-major (N*B, H, W) stack (source s
        owns rows s*B..(s+1)*B), sliced per source, combined and
        reconstructed, is the per-source reference for every group."""
        frames = rng.standard_normal((3, 2, 32, 32)) * 40 + 100
        fusion = ImageFusion(levels=2)
        stacked = fusion.decompose(frames.reshape(6, 32, 32))
        pyramids = [stacked[s * 2:(s + 1) * 2] for s in range(3)]
        fused = fusion.reconstruct(fusion.combine(*pyramids))
        for b in range(2):
            assert np.array_equal(fused[b],
                                  fuse_separately(fusion, *frames[:, b]))
            for s in range(3):
                assert np.array_equal(pyramids[s][b].lowpass,
                                      fusion.decompose(frames[s, b]).lowpass)

    def test_accepts_frame_lists(self, rng):
        vis = [rng.standard_normal((16, 16)) for _ in range(2)]
        th = [rng.standard_normal((16, 16)) for _ in range(2)]
        assert ImageFusion(levels=1).fuse(vis, th).fused.shape \
            == (2, 16, 16)

    def test_rejects_2d_inputs_and_shape_mismatch(self, rng):
        fusion = ImageFusion(levels=2)
        with pytest.raises(FusionError, match="share a shape"):
            fusion.fuse(rng.standard_normal((16, 16)),
                        rng.standard_normal((2, 16, 16)))
        with pytest.raises(FusionError, match="share a shape"):
            fusion.fuse(rng.standard_normal((2, 16, 16)),
                        rng.standard_normal((3, 16, 16)))
        with pytest.raises(FusionError, match="2-D frames or"):
            fusion.fuse(rng.standard_normal((2, 2, 16, 16)),
                        rng.standard_normal((2, 2, 16, 16)))
        with pytest.raises(FusionError, match="empty"):
            fusion.fuse(np.empty((0, 16, 16)), np.empty((0, 16, 16)))

    def test_odd_sizes_supported(self, rng):
        vis = rng.standard_normal((2, 35, 35))
        th = rng.standard_normal((2, 35, 35))
        assert ImageFusion(levels=3).fuse(vis, th).fused.shape \
            == (2, 35, 35)
