"""Full-stack integration: faults, recording, and the session."""

import numpy as np
import pytest

from repro.session import CaptureChainSource, FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.bt656 import Bt656Decoder
from repro.video.faults import DropoutChannel, NoisyByteChannel, corrupt_stream
from repro.video.recorder import PgmSequenceSource, StreamRecorder
from repro.video.scene import SyntheticScene
from repro.video.thermal import ThermalCameraSimulator


class TestFaultRecovery:
    def test_pipeline_survives_transient_channel_faults(self):
        """Decode -> scale -> FIFO -> fuse keeps producing output frames
        while the thermal link is noisy, and error counters tell the
        operator what happened."""
        scene = SyntheticScene(width=96, height=80, seed=12)
        camera = ThermalCameraSimulator(scene)
        decoder = Bt656Decoder(camera.bt656_config)
        noise = NoisyByteChannel(bit_error_rate=5e-5, seed=1)
        dropout = DropoutChannel(dropout_rate=0.001, burst_bytes=64, seed=2)

        decoded_frames = 0
        for _ in range(8):
            stream = corrupt_stream(camera.capture_bt656(), [noise, dropout])
            decoded_frames += len(decoder.push_bytes(stream))

        assert decoded_frames >= 5     # most frames still arrive
        assert noise.stats.bits_flipped > 0
        # no exception escaped: resilience is the assertion

    def test_fused_output_quality_degrades_gracefully(self):
        """Mild channel noise must not destroy fusion quality."""
        from repro.core.fusion import fuse_images
        from repro.core.metrics import psnr
        scene = SyntheticScene(width=96, height=80, seed=12)
        camera = ThermalCameraSimulator(scene)
        visible = scene.render_visible(0.0)[:80, :96]

        clean_decoder = Bt656Decoder(camera.bt656_config)
        clean = clean_decoder.push_bytes(camera.capture_bt656())[0]

        noisy_cam = ThermalCameraSimulator(
            SyntheticScene(width=96, height=80, seed=12))
        channel = NoisyByteChannel(bit_error_rate=1e-5, seed=3)
        noisy_decoder = Bt656Decoder(noisy_cam.bt656_config)
        noisy = noisy_decoder.push_bytes(
            corrupt_stream(noisy_cam.capture_bt656(), [channel]))[0]

        thermal_clean = clean[::3, ::8].astype(float)[:80, :88]
        thermal_noisy = noisy[::3, ::8].astype(float)[:80, :88]
        vis = visible[: thermal_clean.shape[0], : thermal_clean.shape[1]]

        fused_clean = fuse_images(vis, thermal_clean, levels=2)
        fused_noisy = fuse_images(vis, thermal_noisy, levels=2)
        assert psnr(fused_clean, fused_noisy) > 25.0


class TestRecordReplay:
    def test_recorded_run_replays_identically(self, tmp_path):
        """Record a capture-chain session's fused output, play it back,
        and get the same frames — the reproducibility workflow."""
        scene = SyntheticScene(width=96, height=80, seed=13)
        with FusionSession(FusionConfig(
                engine="neon", fusion_shape=FrameShape(40, 40), levels=2,
                quality_metrics=False)) as session:
            report = session.run(3, source=CaptureChainSource(scene=scene))
        with StreamRecorder(tmp_path / "session") as recorder:
            for record in report.records:
                recorder.write(record.frame)

        playback = PgmSequenceSource(tmp_path / "session")
        assert len(playback) == 3
        for record in report.records:
            frame = playback.capture()
            assert np.array_equal(frame.pixels, record.frame.pixels)

    def test_playback_drives_further_processing(self, tmp_path, rng):
        """A played-back stream is a first-class frame source."""
        frames = [rng.integers(0, 255, (32, 32)).astype(np.uint8)
                  for _ in range(4)]
        with StreamRecorder(tmp_path / "raw") as recorder:
            for frame in frames:
                recorder.write(frame)
        source = PgmSequenceSource(tmp_path / "raw", loop=True)
        total = sum(float(source.capture().pixels.mean()) for _ in range(8))
        assert total > 0  # looped twice without exhausting


class TestSessionIntegration:
    def test_session_handles_monitor_fallback(self):
        """If the scene's thermal channel dies mid-session the monitor
        flips the action; the session keeps producing frames."""
        session = FusionSession(FusionConfig(
            engine="online", fusion_shape=FrameShape(48, 40), levels=2,
            scene=SyntheticScene(width=96, height=80, seed=5),
            monitor=True, quality_metrics=False,
        ))
        report = session.run(4)
        assert report.frames == 4
        assert report.actions.get("fuse", 0) >= 3

    def test_session_is_deterministic_given_seed(self):
        def run():
            session = FusionSession(FusionConfig(
                engine="online", fusion_shape=FrameShape(48, 40), levels=2,
                scene=SyntheticScene(width=96, height=80, seed=21),
                quality_metrics=False,
            ))
            return session.run(4)

        first = run()
        second = run()
        assert first.engine_usage == second.engine_usage
        assert np.isclose(first.telemetry["millijoules_total"],
                          second.telemetry["millijoules_total"])
