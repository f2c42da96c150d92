"""ImageFusion pipeline: staged API, shapes, information transfer."""

import numpy as np
import pytest

from repro.core.fusion import (
    BatchFusionResult,
    FusionResult,
    ImageFusion,
    fuse_images,
)
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
        assert result.pyramid_a.levels == 2
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


class TestStagedApi:
    def test_stages_compose_to_fuse(self, structured_pair):
        vis, th = structured_pair
        fusion = ImageFusion(levels=2)
        pyr_a = fusion.decompose(vis)
        pyr_b = fusion.decompose(th)
        fused_pyr = fusion.combine(pyr_a, pyr_b)
        fused = fusion.reconstruct(fused_pyr)
        assert np.allclose(fused, fusion.fuse(vis, th).fused)

    def test_levels_property(self):
        assert ImageFusion(levels=4).levels == 4


class TestFuseBatch:
    def test_bitwise_identical_to_per_pair_fuse(self, rng):
        vis = rng.standard_normal((4, 40, 40)) * 40 + 110
        th = rng.standard_normal((4, 40, 40)) * 40 + 90
        fusion = ImageFusion(levels=2)
        batch = fusion.fuse_batch(vis, th)
        assert isinstance(batch, BatchFusionResult)
        assert len(batch) == 4
        for i in range(4):
            assert np.array_equal(batch.fused[i],
                                  fusion.fuse(vis[i], th[i]).fused)

    def test_getitem_adapts_to_fusion_result(self, rng):
        vis = rng.standard_normal((2, 32, 32))
        th = rng.standard_normal((2, 32, 32))
        result = ImageFusion(levels=2).fuse_batch(vis, th)[1]
        assert isinstance(result, FusionResult)
        assert result.pyramid_a.levels == 2
        assert result.fused.shape == (32, 32)

    def test_staged_batch_api_composes(self, rng):
        vis = rng.standard_normal((3, 32, 32))
        th = rng.standard_normal((3, 32, 32))
        fusion = ImageFusion(levels=2)
        stack_a = fusion.decompose_batch(vis)
        stack_b = fusion.decompose_batch(th)
        fused = fusion.reconstruct_batch(
            fusion.combine(stack_a, stack_b))
        assert np.array_equal(fused, fusion.fuse_batch(vis, th).fused)

    def test_source_major_stack_matches_per_group_fuse(self, rng):
        """fuse_stack on a pre-filled (N*B, H, W) stack (source s owns
        rows s*B..(s+1)*B) is fuse() per group; decompose_sources is
        its forward alone."""
        frames = rng.standard_normal((3, 2, 32, 32)) * 40 + 100
        fusion = ImageFusion(levels=2)
        stack = frames.reshape(6, 32, 32)
        result = fusion.fuse_stack(stack, 3)
        pyramids = fusion.decompose_sources(stack, 3)
        for b in range(2):
            single = fusion.fuse(*frames[:, b])
            assert np.array_equal(result.fused[b], single.fused)
            for s in range(3):
                assert np.array_equal(pyramids[s][b].lowpass,
                                      single.pyramids[s].lowpass)

    def test_accepts_frame_lists(self, rng):
        vis = [rng.standard_normal((16, 16)) for _ in range(2)]
        th = [rng.standard_normal((16, 16)) for _ in range(2)]
        assert ImageFusion(levels=1).fuse_batch(vis, th).fused.shape \
            == (2, 16, 16)

    def test_rejects_2d_inputs_and_shape_mismatch(self, rng):
        fusion = ImageFusion(levels=2)
        with pytest.raises(FusionError, match="fuse_batch expects"):
            fusion.fuse_batch(rng.standard_normal((16, 16)),
                              rng.standard_normal((16, 16)))
        with pytest.raises(FusionError, match="share a shape"):
            fusion.fuse_batch(rng.standard_normal((2, 16, 16)),
                              rng.standard_normal((3, 16, 16)))
        with pytest.raises(FusionError):
            fusion.fuse_batch(rng.standard_normal((2, 2, 16, 16)),
                              rng.standard_normal((2, 2, 16, 16)))
        with pytest.raises(FusionError, match="empty"):
            fusion.fuse_batch(np.empty((0, 16, 16)), np.empty((0, 16, 16)))

    def test_odd_sizes_supported(self, rng):
        vis = rng.standard_normal((2, 35, 35))
        th = rng.standard_normal((2, 35, 35))
        assert ImageFusion(levels=3).fuse_batch(vis, th).fused.shape \
            == (2, 35, 35)
