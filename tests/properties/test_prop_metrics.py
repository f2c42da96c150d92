"""Differential properties: the stacked quality metrics against the
frame-at-a-time oracle in ``tests/metrics_oracle.py``.

B frames per argument must grade every frame exactly — bit for bit —
as the oracle grades that frame alone: at every B, for odd shapes,
float32 and float64 inputs, frames in C, Fortran, strided and
reversed layouts (the oracle's whole-image sums add in memory order),
constant frames (``np.histogram``'s widened range), frames without
any gradient (Q^AB/F's zero-weight branch), pixels exactly on
histogram bin edges, and batches graded in several passes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metrics_oracle import (
    oracle_average_gradient,
    oracle_entropy,
    oracle_fusion_mutual_information,
    oracle_fusion_report,
    oracle_mutual_information,
    oracle_petrovic_qabf,
    oracle_spatial_frequency,
)
from repro.core import metrics
from repro.errors import FusionError

_SETTINGS = dict(deadline=None, max_examples=60)

KINDS = ("noise", "integer", "constant", "edges", "steps", "narrow")


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_same_report(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for key in want:
        assert bits(got[key]) == bits(want[key]), key


def oracle_reports(visible, thermal, fused):
    """The oracle's report of every frame, or None if it refuses one
    (``np.histogram`` rejects a fused frame whose range is too narrow
    for 256 finite-sized bins)."""
    try:
        return [oracle_fusion_report(v, t, f)
                for v, t, f in zip(visible, thermal, fused)]
    except ValueError:
        return None


def frame(rng, kind: str, shape, dtype):
    """One frame of the named kind."""
    if kind == "noise":
        image = rng.uniform(-20.0, 300.0, shape)
    elif kind == "integer":
        image = rng.integers(0, 256, shape).astype(np.float64)
    elif kind == "constant":
        image = np.full(shape, float(rng.integers(0, 256)))
    elif kind == "edges":
        # every pixel on an edge of the 64- or the 256-bin histogram
        # over [lo, hi], or one ulp either side of it; both extremes
        # present so the range is exact
        lo, hi = sorted(rng.uniform(0.0, 255.0, 2))
        edges = np.concatenate([np.linspace(lo, hi, 65),
                                np.linspace(lo, hi, 257)])
        choices = np.clip(np.concatenate([
            edges, np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf)]), lo, hi)
        image = rng.choice(choices, shape)
        image.flat[0], image.flat[-1] = lo, hi
    elif kind == "narrow":
        # a range of a few ulps: rounding makes neighbouring bin edges
        # equal, where np.histogram2d's searchsorted rule and
        # np.histogram's one-step correction part ways
        base = rng.uniform(1.0, 255.0)
        image = base + np.spacing(base) * rng.integers(0, 9, shape)
    else:  # "steps": a few grey levels, so most bins are empty
        image = rng.choice(rng.uniform(0.0, 255.0, 3), shape)
    return image.astype(dtype)


LAYOUTS = ("C", "F", "strided", "strided-F", "reversed")


def lay_out(image: np.ndarray, layout: str) -> np.ndarray:
    """The same values in another memory layout."""
    if layout == "C":
        return np.ascontiguousarray(image)
    if layout == "F":
        return np.asfortranarray(image)
    if layout == "reversed":  # negative row stride
        return np.ascontiguousarray(image[::-1])[::-1]
    height, width = image.shape
    big = np.zeros((2 * height, 2 * width), image.dtype,
                   order="F" if layout == "strided-F" else "C")
    big[::2, ::2] = image
    return big[::2, ::2]


@st.composite
def stacks(draw, max_frames=9):
    """(visible, thermal, fused) arguments of B frames of one shape,
    and the frames the oracle grades one at a time.  An argument is
    a sequence of frames in their own layouts, a C-ordered
    ``(B, H, W)`` array or a Fortran-ordered one."""
    count = draw(st.integers(1, max_frames))
    shape = (draw(st.integers(2, 13)), draw(st.integers(2, 13)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arguments, frames = [], []
    for dtype in (np.float64, np.float64,
                  draw(st.sampled_from([np.float32, np.float64]))):
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=count,
                              max_size=count))
        images = [frame(rng, kind, shape, dtype) for kind in kinds]
        form = draw(st.sampled_from(["frames", "C", "F"]))
        if form == "frames":
            argument = [lay_out(image, draw(st.sampled_from(LAYOUTS)))
                        for image in images]
            frames.append(argument)
        else:
            argument = np.stack(images)
            if form == "F":
                argument = np.asfortranarray(argument)
            frames.append(list(argument))
        arguments.append(argument)
    return arguments, frames


class TestStackedReport:
    @settings(**_SETTINGS)
    @given(images=stacks())
    def test_every_frame_matches_the_oracle(self, images):
        arguments, frames = images
        want = oracle_reports(*frames)
        if want is None:
            with pytest.raises(FusionError, match="too narrow"):
                metrics.fusion_report(*arguments)
            return
        reports = metrics.fusion_report(*arguments)
        assert len(reports) == len(want)
        for report, expected in zip(reports, want):
            assert_same_report(report, expected)

    @settings(**_SETTINGS)
    @given(images=stacks(), data=st.data())
    def test_any_number_of_passes(self, images, data):
        """The pass size never shows in the numbers."""
        arguments, frames = images
        want = oracle_reports(*frames)
        fused = frames[2]
        budget = data.draw(st.integers(1, fused[0].size * len(fused)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_PASS_PIXELS", budget)
            qabfs = metrics.petrovic_qabf(*arguments)
            if want is None:
                with pytest.raises(FusionError):
                    metrics.fusion_report(*arguments)
                return
            reports = metrics.fusion_report(*arguments)
        for report, qabf, expected in zip(reports, qabfs, want):
            assert_same_report(report, expected)
            assert bits(qabf) == bits(expected["qabf"])

    @settings(**_SETTINGS)
    @given(images=stacks(max_frames=1))
    def test_two_d_frames_give_one_report(self, images):
        visible, thermal, fused = (image[0] for image in images[1])
        want = oracle_reports([visible], [thermal], [fused])
        if want is None:
            with pytest.raises(FusionError):
                metrics.fusion_report(visible, thermal, fused)
        else:
            assert_same_report(
                metrics.fusion_report(visible, thermal, fused), want[0])


class TestStackedQabf:
    @settings(**_SETTINGS)
    @given(images=stacks())
    def test_every_frame_matches_the_oracle(self, images):
        arguments, (visible, thermal, fused) = images
        got = metrics.petrovic_qabf(*arguments)
        assert [bits(q) for q in got] == [
            bits(oracle_petrovic_qabf(visible[i], thermal[i], fused[i]))
            for i in range(len(fused))]

    def test_flat_sources_take_the_zero_weight_branch(self):
        flat = np.full((3, 7, 5), 9.0)
        fused = np.random.default_rng(0).uniform(0, 255, flat.shape)
        assert metrics.petrovic_qabf(flat, flat, fused) == [0.0] * 3
        assert oracle_petrovic_qabf(flat[0], flat[0], fused[0]) == 0.0


class TestSingleFrameMetrics:
    """The 2-D entry points share the stacked implementation."""

    @settings(**_SETTINGS)
    @given(images=stacks(max_frames=1))
    def test_each_metric_matches_the_oracle(self, images):
        a, b, f = (image[0] for image in images[1])
        for bins in (256, 16):
            try:
                want = bits(oracle_entropy(f, bins=bins))
            except ValueError:  # np.histogram: range too narrow
                with pytest.raises(FusionError):
                    metrics.entropy(f, bins=bins)
            else:
                assert bits(metrics.entropy(f, bins=bins)) == want
        assert bits(metrics.mutual_information(a, f)) == bits(
            oracle_mutual_information(a, f))
        assert bits(metrics.mutual_information(b, f, bins=8)) == bits(
            oracle_mutual_information(b, f, bins=8))
        assert bits(metrics.fusion_mutual_information(a, b, f)) == bits(
            oracle_fusion_mutual_information(a, b, f))
        assert bits(metrics.spatial_frequency(f)) == bits(
            oracle_spatial_frequency(f))
        assert bits(metrics.average_gradient(f)) == bits(
            oracle_average_gradient(f))


class TestBinning:
    """Every pixel lands in the bin NumPy's histograms put it in, so
    the counts match bin for bin, not only the metrics built on them."""

    @settings(**_SETTINGS)
    @given(images=stacks())
    def test_histogram2d_counts(self, images):
        frames = np.stack(images[1][0])
        idx = metrics._bin_index(frames, 64, joint=True)
        for frame, frame_idx in zip(frames, idx):
            joint, _, _ = np.histogram2d(frame.ravel(),
                                         np.zeros(frame.size), bins=64)
            assert np.array_equal(
                np.bincount(frame_idx.ravel(), minlength=64),
                joint.sum(axis=1))

    @settings(**_SETTINGS)
    @given(images=stacks())
    def test_histogram_counts(self, images):
        frames = np.stack(images[1][0])
        try:
            want = [np.histogram(frame, bins=256)[0] for frame in frames]
        except ValueError:  # a range too narrow for 256 bins
            with pytest.raises(FusionError, match="too narrow"):
                metrics._bin_index(frames, 256)
            return
        idx = metrics._bin_index(frames, 256)
        for frame_idx, counts in zip(idx, want):
            assert np.array_equal(
                np.bincount(frame_idx.ravel(), minlength=256), counts)
