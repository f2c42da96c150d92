"""Scene model and camera simulators: modality semantics."""

import numpy as np
import pytest

from repro.errors import VideoError
from repro.video.scene import SyntheticScene, WarmObject
from repro.video.thermal import SENSOR_PROFILES, ThermalCameraSimulator
from repro.video.webcam import WebcamSimulator


class TestScene:
    def test_deterministic_given_seed(self):
        a = SyntheticScene(seed=5).render_visible(1.0)
        b = SyntheticScene(seed=5).render_visible(1.0)
        assert np.array_equal(a, b)

    def test_thermal_sees_hot_object(self, scene):
        thermal = scene.render_thermal(0.0)
        row, col = scene.hottest_position(0.0)
        hot_region = thermal[max(0, row - 3): row + 4, max(0, col - 3): col + 4]
        assert hot_region.mean() > np.median(thermal) + 20

    def test_visible_has_more_texture_than_thermal(self, scene):
        """The visible band carries high-frequency structure the LWIR
        optics wash out — the complementarity fusion exploits."""
        vis = scene.render_visible(0.0)
        th = scene.render_thermal(0.0)
        vis_hf = np.abs(np.diff(vis, axis=1)).mean()
        th_hf = np.abs(np.diff(th, axis=1)).mean()
        assert vis_hf > 2.0 * th_hf

    def test_objects_move(self, scene):
        p0 = scene.hottest_position(0.0)
        p1 = scene.hottest_position(5.0)
        assert p0 != p1

    def test_bounce_keeps_objects_in_frame(self):
        obj = WarmObject(x=0.9, y=0.9, vx=0.5, vy=0.7, radius=0.05)
        for t in np.linspace(0, 20, 50):
            x, y = obj.position_at(float(t))
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_pixel_ranges(self, scene):
        for render in (scene.render_visible, scene.render_thermal):
            img = render(0.0)
            assert img.min() >= 0.0
            assert img.max() <= 255.0

    def test_size_validation(self):
        with pytest.raises(VideoError):
            SyntheticScene(width=4, height=4)


class TestWebcam:
    def test_frames_are_rgb_uint8(self, scene):
        cam = WebcamSimulator(scene)
        frame = cam.capture()
        assert frame.pixels.dtype == np.uint8
        assert frame.pixels.ndim == 3
        assert frame.source == "webcam"

    def test_timestamps_follow_fps(self, scene):
        cam = WebcamSimulator(scene, fps=30.0)
        t0 = cam.capture().timestamp_s
        t1 = cam.capture().timestamp_s
        assert np.isclose(t1 - t0, 1.0 / 30.0)

    def test_gray_conversion(self, scene):
        frame = WebcamSimulator(scene).capture_gray()
        assert frame.is_gray
        assert frame.pixels.dtype == np.uint8

    def test_auto_exposure_centers_mean(self, scene):
        cam = WebcamSimulator(scene, auto_exposure=True)
        gray = cam.capture_gray().as_float()
        assert 100 < gray.mean() < 156

    def test_fps_validation(self, scene):
        with pytest.raises(VideoError):
            WebcamSimulator(scene, fps=0)


class TestThermalCamera:
    def test_sensor_profiles(self, scene):
        micro = ThermalCameraSimulator(scene, profile="microcam-384")
        assert micro.capture().pixels.shape == SENSOR_PROFILES["microcam-384"]
        lepton = ThermalCameraSimulator(scene, profile="lepton")
        assert lepton.capture().pixels.shape == (60, 80)

    def test_unknown_profile(self, scene):
        with pytest.raises(VideoError):
            ThermalCameraSimulator(scene, profile="predator-vision")

    def test_bt656_stream_decodes(self, scene):
        from repro.video.bt656 import Bt656Decoder
        cam = ThermalCameraSimulator(scene)
        decoder = Bt656Decoder(cam.bt656_config)
        frames = decoder.push_bytes(cam.capture_bt656())
        assert len(frames) == 1
        assert frames[0].shape == (243, 720)

    def test_hot_target_survives_the_chain(self, scene):
        """The hot blob must still be the brightest thing after BT.656
        encode/decode — the fusion input is meaningful."""
        from repro.video.bt656 import Bt656Decoder
        cam = ThermalCameraSimulator(scene)
        decoder = Bt656Decoder(cam.bt656_config)
        frame = decoder.push_bytes(cam.capture_bt656())[0]
        assert frame.max() > np.median(frame) + 30

    def test_frame_ids_increment(self, scene):
        cam = ThermalCameraSimulator(scene)
        assert cam.capture().frame_id == 0
        assert cam.capture().frame_id == 1


MODALITIES = ("visible", "thermal", "depth")


def _scene(**overrides):
    return SyntheticScene(**dict(dict(width=40, height=32, seed=3),
                                 **overrides))


class TestRenderCache:
    """The scene keeps its time-independent layers between renders: a
    frame it hands out must never alias them or another frame, and a
    reassigned field must rebuild them."""

    @pytest.mark.parametrize("modality", MODALITIES)
    def test_mutating_a_frame_changes_no_later_frame(self, modality):
        scene, twin = _scene(), _scene()
        first = scene.render(modality, 0.0)
        assert np.array_equal(first, twin.render(modality, 0.0))
        first[...] = -1.0
        second = scene.render(modality, 0.5)
        assert np.array_equal(second, twin.render(modality, 0.5))
        assert not np.shares_memory(first, second)
        for _, layers in scene._backgrounds.values():
            assert not np.shares_memory(second, layers)

    def test_camera_frames_never_alias(self):
        scene, twin = _scene(), _scene()
        cams = (WebcamSimulator(scene), ThermalCameraSimulator(scene))
        refs = (WebcamSimulator(twin), ThermalCameraSimulator(twin))
        for cam, ref in zip(cams, refs):
            first = cam.capture().pixels
            ref.capture()
            first[...] = 0
            second = cam.capture().pixels
            assert np.array_equal(second, ref.capture().pixels)
            assert not np.shares_memory(first, second)
        rgb = WebcamSimulator(_scene()).capture()
        assert not np.shares_memory(rgb.to_gray().pixels, rgb.pixels)

    @pytest.mark.parametrize("field, value, changed",
                             [("illumination", 0.2, "visible"),
                              ("ambient_c", 30.0, "thermal")])
    def test_reassigned_field_never_serves_a_stale_background(
            self, field, value, changed):
        scene, stale = _scene(), _scene()
        fresh = _scene(**{field: value})
        for s in (scene, stale, fresh):         # build every layer
            for modality in MODALITIES:
                s.render(modality, 0.0)
        setattr(scene, field, value)
        for modality in MODALITIES:
            got = scene.render(modality, 1.0)
            assert np.array_equal(got, fresh.render(modality, 1.0))
            if modality == changed:
                assert not np.array_equal(got, stale.render(modality, 1.0))
            else:
                stale.render(modality, 1.0)     # keep the streams level
