"""Differential properties: the capture chain's footprint path against
the full frames it replaces.

A :class:`~repro.video.VideoScaler` given a ``target`` computes only
the scaled pixels a bilinear resize to ``target`` reads, and returns
that resize; the chain's visible luma likewise grays only the webcam
pixels its resize reads.  Both must return the same bytes (shape,
dtype and every bit) as the full path they stand in for: scale (or
gray) the whole frame, cast it to float64, then :func:`resize_to` it,
skipped when the shapes already match.  The webcam given that resize's
footprint finishes only those pixels: they must be the whole frame's,
bit for bit, and every random stream must advance as for a whole
frame.  A session fed by its hinted
default source must fuse the same bytes as ``process()`` on the
unhinted full-frame pairs, under every executor.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.session import CaptureChainSource, FusionConfig, FusionSession
from repro.video.capture import CaptureChain
from repro.video.frames import VideoFrame
from repro.video.scaler import VideoScaler, resize_to
from repro.video.scene import SyntheticScene
from repro.video.webcam import WebcamSimulator

_SETTINGS = dict(deadline=None, max_examples=30)

FIG7 = (480, 640)

#: the Fig. 7 frame itself, the default fusion shape, odd sizes either
#: side of it and upscales past it
_TARGETS = [FIG7, (72, 88), (1, 1), (35, 35), (479, 641), (481, 639),
            (600, 800), (243, 720)]

shapes = st.tuples(st.integers(1, 96), st.integers(1, 96))
targets = st.one_of(st.sampled_from(_TARGETS), shapes,
                    st.tuples(st.integers(1, 700), st.integers(1, 900)))


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def full_path(full: np.ndarray, target) -> np.ndarray:
    """The session's path: cast, then resize unless already there."""
    data = full.astype(np.float64)
    return data if data.shape == tuple(target) else resize_to(data, target)


class TestThermalScaler:
    @settings(**_SETTINGS)
    @example(in_shape=(243, 720), out_shape=FIG7, target=(72, 88),
             method="bilinear", dtype=np.uint8, seed=0)
    @example(in_shape=(243, 720), out_shape=FIG7, target=FIG7,
             method="bilinear", dtype=np.uint8, seed=0)
    @example(in_shape=(243, 720), out_shape=FIG7, target=(600, 800),
             method="nearest", dtype=np.uint8, seed=0)
    @given(in_shape=st.one_of(st.just((243, 720)), shapes,
                              st.tuples(st.integers(1, 300),
                                        st.integers(1, 800))),
           out_shape=st.one_of(st.just(FIG7), shapes),
           target=targets,
           method=st.sampled_from(["bilinear", "nearest"]),
           dtype=st.sampled_from([np.uint8, np.float64]),
           seed=st.integers(0, 2**16))
    def test_target_equals_scale_cast_resize(self, in_shape, out_shape,
                                             target, method, dtype, seed):
        rng = np.random.default_rng(seed)
        frame = rng.uniform(0, 256, in_shape).astype(dtype)
        full = VideoScaler(in_shape, out_shape, method).scale(frame)
        hinted = VideoScaler(in_shape, out_shape, method, target=target)
        want = full_path(full, target)
        assert_same_array(hinted.scale(frame), want)
        # the footprint alone gives the same bytes
        assert_same_array(hinted.scale(hinted.read(frame)), want)

    @settings(**_SETTINGS)
    @given(in_shape=shapes, out_shape=shapes,
           method=st.sampled_from(["bilinear", "nearest"]),
           seed=st.integers(0, 2**16))
    def test_footprint_is_exactly_what_scale_reads(self, in_shape,
                                                   out_shape, method, seed):
        """Pixels outside the footprint never reach the output, and the
        footprint alone scales to the whole frame's bytes."""
        scaler = VideoScaler(in_shape, out_shape, method)
        frame = np.random.default_rng(seed).uniform(-1e3, 1e3, in_shape)
        rows, cols = scaler.footprint()
        assert np.all(np.diff(rows) > 0) and np.all(np.diff(cols) > 0)
        poisoned = np.full(in_shape, np.nan)
        poisoned[np.ix_(rows, cols)] = frame[np.ix_(rows, cols)]
        want = scaler.scale(frame)
        assert_same_array(scaler.scale(poisoned), want)
        assert_same_array(scaler.scale(scaler.read(frame)), want)


class TestWebcamFootprint:
    @settings(**_SETTINGS)
    @example(size=(288, 352), target=(72, 88), auto_exposure=True,
             frames=3, seed=1)
    @example(size=(288, 352), target=(288, 352), auto_exposure=True,
             frames=2, seed=1)
    @example(size=(288, 352), target=(72, 88), auto_exposure=False,
             frames=2, seed=1)
    @given(size=st.tuples(st.integers(8, 96), st.integers(8, 96)),
           target=targets, auto_exposure=st.booleans(),
           frames=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_footprint_capture_is_the_whole_frames_pixels(
            self, size, target, auto_exposure, frames, seed):
        rows, cols = size
        footprint = VideoScaler(in_shape=size, out_shape=target).footprint()
        hinted, whole = (
            WebcamSimulator(SyntheticScene(width=cols, height=rows,
                                           seed=seed),
                            auto_exposure=auto_exposure, seed=seed)
            for _ in range(2))
        for _ in range(frames):
            got, want = hinted.capture(footprint), whole.capture()
            assert_same_array(got.pixels,
                              want.pixels[np.ix_(*footprint)])
            assert got.timestamp_s == want.timestamp_s
            assert got.frame_id == want.frame_id
        assert (hinted._rng.bit_generator.state
                == whole._rng.bit_generator.state)
        assert (hinted.scene._noise_rng.bit_generator.state
                == whole.scene._noise_rng.bit_generator.state)


class TestVisibleLuma:
    @settings(**_SETTINGS)
    @example(size=(288, 352), target=(72, 88), seed=0)
    @example(size=(288, 352), target=(288, 352), seed=0)
    @example(size=(288, 352), target=FIG7, seed=0)
    @given(size=st.tuples(st.integers(8, 96), st.integers(8, 96)),
           target=targets, seed=st.integers(0, 2**16))
    def test_luma_equals_gray_cast_resize(self, size, target, seed):
        rows, cols = size
        chain = CaptureChain(scene=SyntheticScene(width=cols, height=rows),
                             frame_shape=target)
        rng = np.random.default_rng(seed)
        frame = VideoFrame(rng.integers(0, 256, (rows, cols, 3),
                                        dtype=np.uint8), 0.0, 0)
        want = full_path(frame.to_gray().pixels, target)
        assert_same_array(chain.visible_luma(frame), want)


class TestHintedSession:
    @pytest.fixture(scope="class")
    def full_frame_records(self):
        """``process()`` on the unhinted Fig. 7 pairs."""
        config = FusionConfig(seed=3, engine="neon")
        with FusionSession(config) as session:
            pairs = CaptureChainSource(scene=config.make_scene()).frames()
            return [session.process(pair.visible, pair.thermal,
                                    timestamp_s=pair.timestamp_s)
                    for pair in itertools.islice(pairs, 3)]

    @pytest.mark.parametrize("executor", ["serial", "batch", "pipeline"])
    def test_hinted_default_source_fuses_the_same_bytes(
            self, executor, full_frame_records):
        config = FusionConfig(seed=3, engine="neon", executor=executor,
                              batch_size=2)
        with FusionSession(config) as session:
            assert session.capture_source().chain.scaler.target == (72, 88)
            report = session.run(3)
        assert len(report.records) == 3
        for want, got in zip(full_frame_records, report.records):
            assert_same_array(got.frame.pixels, want.frame.pixels)
            assert got.model_millijoules == want.model_millijoules
