"""Differential properties: the cached-layer, in-place scene renders and
camera chains against the full-frame oracle in ``tests/scene_oracle.py``.

Every render and capture must return the same bytes (shape, dtype and
every bit, signed zeros included) as the oracle, and leave every random
stream — the scene's noise and depth generators and the webcam's — in
the same state, for any seed, timestamp (negative, huge, on a bounce
edge), scene size down to 8x8, set of warm objects, optics blur,
noise level, exposure mode and interleaving of modalities, including
reassigning ``illumination`` or ``ambient_c`` between renders.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scene_oracle import (
    OracleScene,
    OracleThermalCamera,
    OracleWebcam,
    oracle_to_gray,
)
from repro.session import SyntheticSource
from repro.video.frames import VideoFrame
from repro.video.scene import SyntheticScene, WarmObject
from repro.video.thermal import SENSOR_PROFILES, ThermalCameraSimulator
from repro.video.webcam import WebcamSimulator

_SETTINGS = dict(deadline=None, max_examples=40)

#: times where the default objects sit exactly on a bounce edge
#: (0.25 + 0.05 t hits 1.0 at t = 15 and wraps 2.0 -> 0.0 at t = 35)
_EDGE_TIMES = [0.0, 15.0, 35.0, 55.0, -15.0, -25.0, 1e6, 1e9, -1e9]

times = st.one_of(
    st.sampled_from(_EDGE_TIMES),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False))

objects = st.builds(
    WarmObject,
    x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
    vx=st.floats(-1.0, 1.0), vy=st.floats(-1.0, 1.0),
    radius=st.floats(0.01, 0.5),
    temperature_c=st.floats(-10.0, 120.0),
    visible_contrast=st.floats(-60.0, 60.0))


@st.composite
def scene_args(draw):
    """Constructor arguments shared by a scene and its oracle twin."""
    return dict(
        width=draw(st.integers(8, 48)),
        height=draw(st.integers(8, 48)),
        seed=draw(st.integers(0, 2**16)),
        ambient_c=draw(st.floats(-20.0, 40.0)),
        illumination=draw(st.floats(0.0, 1.5)),
        # an empty list means the two default objects
        objects=draw(st.lists(objects, max_size=3)),
    )


def twins(args):
    """A scene and its oracle, each with its own copy of the objects."""
    def copy():
        return dict(args, objects=[WarmObject(**vars(o))
                                   for o in args["objects"]])
    return SyntheticScene(**copy()), OracleScene(**copy())


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same_frame(got: VideoFrame, want: VideoFrame):
    assert_same_array(got.pixels, want.pixels)
    assert (got.timestamp_s, got.frame_id, got.source, got.metadata) \
        == (want.timestamp_s, want.frame_id, want.source, want.metadata)


def assert_same_streams(scene, oracle):
    assert scene._noise_rng.bit_generator.state \
        == oracle._noise_rng.bit_generator.state
    assert scene._depth_rng.bit_generator.state \
        == oracle._depth_rng.bit_generator.state


renders = st.one_of(
    st.tuples(st.just("visible"),
              st.fixed_dictionaries({"noise_sigma": st.floats(0.0, 20.0)})),
    st.tuples(st.just("thermal"),
              st.fixed_dictionaries({"netd_c": st.floats(0.0, 2.0),
                                     "blur": st.integers(0, 3)})),
    st.tuples(st.just("depth"),
              st.fixed_dictionaries({"noise_mm": st.floats(0.0, 50.0)})),
    st.tuples(st.just("illumination"), st.floats(0.0, 1.5)),
    st.tuples(st.just("ambient_c"), st.floats(-20.0, 40.0)),
)


class TestSceneRenders:
    @settings(**_SETTINGS)
    @given(args=scene_args(),
           calls=st.lists(st.tuples(renders, times), min_size=1, max_size=6))
    def test_renders_match_oracle(self, args, calls):
        scene, oracle = twins(args)
        for (what, kwargs), t_s in calls:
            if what in ("illumination", "ambient_c"):
                setattr(scene, what, kwargs)
                setattr(oracle, what, kwargs)
                continue
            method = f"render_{what}"
            assert_same_array(getattr(scene, method)(t_s, **kwargs),
                              getattr(oracle, method)(t_s, **kwargs))
            assert_same_streams(scene, oracle)

    @settings(**_SETTINGS)
    @given(args=scene_args(), t_s=times)
    def test_object_masks_match_oracle(self, args, t_s):
        scene, oracle = twins(args)
        got = list(scene._object_masks(t_s))
        want = oracle._object_masks(t_s)
        assert len(got) == len(want)
        for (mask, obj), (ref, ref_obj) in zip(got, want):
            assert vars(obj) == vars(ref_obj)
            assert_same_array(mask, ref)

    @settings(**_SETTINGS)
    @given(args=scene_args(), fps=st.sampled_from([25.0, 60.0, 1e-4]))
    def test_three_modality_source_matches_oracle(self, args, fps):
        scene, oracle = twins(args)
        modalities = ("visible", "thermal", "depth")
        got = SyntheticSource(scene=scene, fps=fps, modalities=modalities)
        want = SyntheticSource(scene=oracle, fps=fps, modalities=modalities)
        for group, ref, _ in zip(got.frames(), want.frames(), range(3)):
            for frame, ref_frame in zip(group.frames, ref.frames):
                assert_same_array(frame, ref_frame)
            assert_same_streams(scene, oracle)


class TestCameraChains:
    @settings(**_SETTINGS)
    @given(args=scene_args(), auto_exposure=st.booleans(),
           seed=st.integers(0, 2**16),
           fps=st.sampled_from([1.0, 30.0, 1e-3]),
           frames=st.integers(1, 3))
    def test_webcam_matches_oracle(self, args, auto_exposure, seed, fps,
                                   frames):
        scene, oracle = twins(args)
        cam = WebcamSimulator(scene, width=scene.width, height=scene.height,
                              fps=fps, auto_exposure=auto_exposure, seed=seed)
        ref = OracleWebcam(oracle, width=oracle.width, height=oracle.height,
                           fps=fps, auto_exposure=auto_exposure, seed=seed)
        for _ in range(frames):
            frame, want = cam.capture(), ref.capture()
            assert_same_frame(frame, want)
            assert_same_frame(frame.to_gray(), oracle_to_gray(want))
            assert_same_streams(scene, oracle)
            assert cam._rng.bit_generator.state \
                == ref._rng.bit_generator.state

    @settings(**_SETTINGS)
    @given(args=scene_args(), profile=st.sampled_from(sorted(SENSOR_PROFILES)),
           netd_c=st.floats(0.0, 2.0), fps=st.sampled_from([60.0, 7.0]),
           frames=st.integers(1, 3))
    def test_thermal_camera_matches_oracle(self, args, profile, netd_c, fps,
                                           frames):
        scene, oracle = twins(args)
        cam = ThermalCameraSimulator(scene, profile=profile, fps=fps,
                                     netd_c=netd_c)
        ref = OracleThermalCamera(oracle, profile=profile, fps=fps,
                                  netd_c=netd_c)
        for k in range(frames):
            if k % 2:
                assert cam.capture_bt656() == ref.capture_bt656()
            else:
                assert_same_frame(cam.capture(), ref.capture())
            assert_same_streams(scene, oracle)


def _extremes() -> np.ndarray:
    """Every level of each channel against every extreme of the other
    two: a (256, 12, 3) frame."""
    levels = np.arange(256, dtype=np.uint8)
    columns = []
    for channel in range(3):
        for lo_hi in ((0, 0), (0, 255), (255, 0), (255, 255)):
            column = np.empty((256, 3), dtype=np.uint8)
            others = [c for c in range(3) if c != channel]
            column[:, channel] = levels
            column[:, others[0]], column[:, others[1]] = lo_hi
            columns.append(column)
    return np.stack(columns, axis=1)


class TestToGray:
    def test_every_channel_extreme_matches_oracle(self):
        frame = VideoFrame(_extremes(), timestamp_s=0.5, frame_id=3,
                           source="webcam", metadata={"k": 1})
        assert_same_frame(frame.to_gray(), oracle_to_gray(frame))

    @settings(**_SETTINGS)
    @given(pixels=hnp.arrays(np.uint8, st.tuples(st.integers(1, 24),
                                                 st.integers(1, 24),
                                                 st.just(3))),
           layout=st.sampled_from(["C", "F", "reversed"]))
    def test_random_rgb_matches_oracle(self, pixels, layout):
        if layout == "F":
            pixels = np.asfortranarray(pixels)
        elif layout == "reversed":
            pixels = pixels[::-1, ::-1]
        frame = VideoFrame(pixels, timestamp_s=0.0, frame_id=0)
        assert_same_frame(frame.to_gray(), oracle_to_gray(frame))

    def test_gray_frames_pass_through(self):
        frame = VideoFrame(np.zeros((4, 4), np.uint8), 0.0, 0)
        assert frame.to_gray() is frame
        assert oracle_to_gray(frame) is frame


@pytest.mark.parametrize("scene_kwargs", [{}, {"width": 96, "height": 80,
                                               "seed": 11}])
def test_default_capture_chain_matches_oracle(scene_kwargs):
    """The default-size scene (352x288) through both cameras."""
    scene, oracle = twins(dict(scene_kwargs, objects=[]))
    cams = (WebcamSimulator(scene), ThermalCameraSimulator(scene))
    refs = (OracleWebcam(oracle), OracleThermalCamera(oracle))
    for _ in range(3):
        for cam, ref in zip(cams, refs):
            assert_same_frame(cam.capture(), ref.capture())
            assert_same_streams(scene, oracle)
    assert cams[0]._rng.bit_generator.state \
        == refs[0]._rng.bit_generator.state
