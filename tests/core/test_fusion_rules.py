"""Fusion rules: selection semantics and rule invariants."""

from itertools import product

import numpy as np
import pytest

from repro.core.fusion_rules import (
    FUSION_RULES,
    MaxMagnitudeRule,
    WeightedRule,
    WindowActivityRule,
    _box_sum,
    rule_by_name,
)
from repro.dtcwt import Dtcwt2D
from repro.errors import FusionError


@pytest.fixture
def pyramids(rng):
    t = Dtcwt2D(levels=2)
    a = t.forward(rng.standard_normal((32, 32)))
    b = t.forward(rng.standard_normal((32, 32)))
    return a, b


class TestMaxMagnitude:
    def test_selects_larger_magnitude(self, pyramids):
        a, b = pyramids
        fused = MaxMagnitudeRule().fuse(a, b)
        for level in range(2):
            fa, fb = a.highpasses[level], b.highpasses[level]
            ff = fused.highpasses[level]
            expected = np.where(np.abs(fa) >= np.abs(fb), fa, fb)
            assert np.array_equal(ff, expected)

    def test_fused_magnitude_dominates_both(self, pyramids):
        a, b = pyramids
        fused = MaxMagnitudeRule().fuse(a, b)
        for level in range(2):
            mags = np.abs(fused.highpasses[level])
            assert np.all(mags >= np.abs(a.highpasses[level]) - 1e-12)
            assert np.all(mags >= np.abs(b.highpasses[level]) - 1e-12)

    def test_lowpass_is_average(self, pyramids):
        a, b = pyramids
        fused = MaxMagnitudeRule().fuse(a, b)
        assert np.allclose(fused.lowpass, (a.lowpass + b.lowpass) / 2.0)

    def test_self_fusion_is_identity(self, pyramids):
        a, _ = pyramids
        fused = MaxMagnitudeRule().fuse(a, a)
        for level in range(2):
            assert np.array_equal(fused.highpasses[level], a.highpasses[level])
        assert np.allclose(fused.lowpass, a.lowpass)

    def test_symmetric_up_to_ties(self, rng):
        t = Dtcwt2D(levels=1)
        a = t.forward(rng.standard_normal((16, 16)))
        b = t.forward(rng.standard_normal((16, 16)))
        ab = MaxMagnitudeRule().fuse(a, b)
        ba = MaxMagnitudeRule().fuse(b, a)
        assert np.allclose(np.abs(ab.highpasses[0]), np.abs(ba.highpasses[0]))

    def test_inputs_not_modified(self, pyramids):
        a, b = pyramids
        snap = a.highpasses[0].copy()
        MaxMagnitudeRule().fuse(a, b)
        assert np.array_equal(a.highpasses[0], snap)


class TestWeighted:
    def test_alpha_one_returns_a(self, pyramids):
        a, b = pyramids
        fused = WeightedRule(alpha=1.0).fuse(a, b)
        for level in range(2):
            assert np.allclose(fused.highpasses[level], a.highpasses[level])
        assert np.allclose(fused.lowpass, a.lowpass)

    def test_alpha_half_is_mean(self, pyramids):
        a, b = pyramids
        fused = WeightedRule(alpha=0.5).fuse(a, b)
        expected = (a.highpasses[0] + b.highpasses[0]) / 2.0
        assert np.allclose(fused.highpasses[0], expected)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(FusionError):
            WeightedRule(alpha=alpha)


class TestWindowActivity:
    def test_window_validation(self):
        with pytest.raises(FusionError):
            WindowActivityRule(window=2)
        with pytest.raises(FusionError):
            WindowActivityRule(window=-3)

    def test_selects_regionally(self, rng):
        """A strong local feature should win its whole neighbourhood."""
        t = Dtcwt2D(levels=1)
        quiet = t.forward(rng.standard_normal((32, 32)) * 0.01)
        loud_img = np.zeros((32, 32))
        loud_img[8:24, 8:24] = rng.standard_normal((16, 16)) * 10.0
        loud = t.forward(loud_img)
        fused = WindowActivityRule(window=3).fuse(quiet, loud)
        center = fused.highpasses[0][:, 6:10, 6:10]
        assert np.allclose(center, loud.highpasses[0][:, 6:10, 6:10])

    def test_consistency_suppresses_isolated_flips(self, pyramids):
        a, b = pyramids
        with_check = WindowActivityRule(window=3, consistency=True).fuse(a, b)
        without = WindowActivityRule(window=3, consistency=False).fuse(a, b)
        # both are valid selections from {a, b}
        for fused in (with_check, without):
            sel_a = np.isclose(fused.highpasses[0], a.highpasses[0])
            sel_b = np.isclose(fused.highpasses[0], b.highpasses[0])
            assert np.all(sel_a | sel_b)


class TestCompatibility:
    def test_level_mismatch(self, rng):
        a = Dtcwt2D(levels=1).forward(rng.standard_normal((16, 16)))
        b = Dtcwt2D(levels=2).forward(rng.standard_normal((16, 16)))
        with pytest.raises(FusionError):
            MaxMagnitudeRule().fuse(a, b)

    def test_shape_mismatch(self, rng):
        a = Dtcwt2D(levels=1).forward(rng.standard_normal((16, 16)))
        b = Dtcwt2D(levels=1).forward(rng.standard_normal((32, 32)))
        with pytest.raises(FusionError):
            MaxMagnitudeRule().fuse(a, b)


class TestFuseStack:
    """Every built-in rule is a vectorized ufunc-style operation: one
    stacked call fuses B frame groups bitwise-identically to B
    per-frame calls, at any source count."""

    @pytest.mark.parametrize("rule", [
        MaxMagnitudeRule(),
        WeightedRule(alpha=0.3),
        WindowActivityRule(window=3, consistency=True),
        WindowActivityRule(window=3, consistency=False),
    ])
    def test_stack_matches_per_pair(self, rng, rule):
        t = Dtcwt2D(levels=2)
        for n_sources in (2, 3):
            sources = [rng.standard_normal((3, 32, 32))
                       for _ in range(n_sources)]
            stack = rule.fuse(*(t.forward(s) for s in sources))
            assert stack.frames == (3,)
            for i in range(3):
                single = rule.fuse(*(t.forward(s[i]) for s in sources))
                assert np.array_equal(stack[i].lowpass, single.lowpass)
                for got, ref in zip(stack[i].highpasses,
                                    single.highpasses):
                    assert np.array_equal(got, ref)

    def test_count_mismatch_rejected(self, rng):
        t = Dtcwt2D(levels=1)
        a = t.forward(rng.standard_normal((2, 16, 16)))
        b = t.forward(rng.standard_normal((3, 16, 16)))
        mismatch = r"frame axes: \(2,\) vs \(3,\)"
        with pytest.raises(FusionError, match=mismatch):
            MaxMagnitudeRule().fuse(a, b)
        with pytest.raises(FusionError, match=mismatch):
            MaxMagnitudeRule().fuse(a, a, b)

    def test_structure_mismatch_rejected(self, rng):
        a = Dtcwt2D(levels=1).forward(rng.standard_normal((2, 16, 16)))
        b = Dtcwt2D(levels=2).forward(rng.standard_normal((2, 16, 16)))
        with pytest.raises(FusionError):
            MaxMagnitudeRule().fuse(a, b)

    def test_mixed_kinds_rejected(self, rng):
        t = Dtcwt2D(levels=1)
        frames = rng.standard_normal((2, 16, 16))
        stack = t.forward(frames)
        single = t.forward(frames[0])
        with pytest.raises(FusionError, match=r"\(\) vs \(2,\)"):
            MaxMagnitudeRule().fuse(single, stack)
        with pytest.raises(FusionError,
                           match=r"frame axes: \(2,\) vs \(\)$"):
            MaxMagnitudeRule().fuse(stack, stack, single)

    def test_single_operand_rejected(self, rng):
        a = Dtcwt2D(levels=1).forward(rng.standard_normal((16, 16)))
        with pytest.raises(FusionError, match=">= 2 pyramids"):
            MaxMagnitudeRule().fuse(a)


class TestFactory:
    def test_known_rules(self):
        assert isinstance(rule_by_name("max-magnitude"), MaxMagnitudeRule)
        assert isinstance(rule_by_name("weighted", alpha=0.3), WeightedRule)
        assert isinstance(rule_by_name("window-activity"), WindowActivityRule)

    def test_unknown_rule(self):
        with pytest.raises(FusionError):
            rule_by_name("telepathy")

    def test_registry_keys_are_rule_names(self):
        assert sorted(FUSION_RULES) == [
            "max-magnitude", "weighted", "window-activity"]
        for name, rule in FUSION_RULES.items():
            assert rule.name == name


# -- reference formulas: the pairwise hooks the N-ary hooks replaced ----
def _ref_max_magnitude(a, b):
    return np.where(np.abs(a) >= np.abs(b), a, b)


def _ref_max_magnitude_argmax(bands):
    stacked = np.stack(bands)
    choice = np.argmax(np.abs(stacked), axis=0)
    return np.take_along_axis(stacked, choice[None], axis=0)[0]


def _ref_weighted(alpha, a, b):
    return alpha * a + (1.0 - alpha) * b


def _ref_window_activity(window, consistency, a, b):
    choose_a = _box_sum(np.abs(a), window) >= _box_sum(np.abs(b), window)
    if consistency:
        votes = _box_sum(choose_a.astype(np.float64), window)
        choose_a = votes > window * window / 2.0
    return np.where(choose_a, a, b)


def _ref_mean(a, b):
    return (a + b) / 2.0


def _tie_heavy_bands(rng, n_sources, frames=2, size=12):
    """Complex bands with small integer parts: equal magnitudes (and
    equal window activities) are common, so every tie-break is hit.
    About half the draws scale them by a random real, so blends
    round."""
    shape = (6, frames, size, size)
    scale = rng.standard_normal() if rng.integers(2) else 1.0
    return [scale * (rng.integers(-2, 3, shape)
                     + 1j * rng.integers(-2, 3, shape))
            for _ in range(n_sources)]


def _bitwise(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


class TestRuleDifferential:
    """The one N-ary hook per band returns the bits of the pairwise
    formulas at N=2, and of the argmax max-magnitude at N=3-4."""

    @pytest.mark.parametrize("seed", range(4))
    def test_max_magnitude_pairwise(self, seed):
        rng = np.random.default_rng(seed)
        a, b = _tie_heavy_bands(rng, 2)
        rule = MaxMagnitudeRule()
        _bitwise(rule.fuse_highpass([a, b]), _ref_max_magnitude(a, b))
        _bitwise(rule.fuse_lowpass([a.real, b.real]),
                 _ref_mean(a.real, b.real))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_weighted_pairwise(self, seed, alpha):
        rng = np.random.default_rng(seed)
        a, b = _tie_heavy_bands(rng, 2)
        rule = WeightedRule(alpha=alpha)
        _bitwise(rule.fuse_highpass([a, b]), _ref_weighted(alpha, a, b))
        _bitwise(rule.fuse_lowpass([a.real, b.real]),
                 _ref_weighted(alpha, a.real, b.real))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("window,consistency",
                             list(product((1, 3, 5), (True, False))))
    def test_window_activity_pairwise(self, seed, window, consistency):
        rng = np.random.default_rng(seed)
        a, b = _tie_heavy_bands(rng, 2)
        rule = WindowActivityRule(window=window, consistency=consistency)
        _bitwise(rule.fuse_highpass([a, b]),
                 _ref_window_activity(window, consistency, a, b))
        _bitwise(rule.fuse_lowpass([a.real, b.real]),
                 _ref_mean(a.real, b.real))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_sources", [3, 4])
    def test_max_magnitude_many(self, seed, n_sources):
        rng = np.random.default_rng(seed)
        bands = _tie_heavy_bands(rng, n_sources)
        _bitwise(MaxMagnitudeRule().fuse_highpass(bands),
                 _ref_max_magnitude_argmax(bands))
