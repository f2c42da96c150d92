"""The Fig. 7 capture pipeline end to end: webcam + BT.656 thermal
link, scaler and FIFO (:class:`CaptureChainSource`) fused by a
:class:`FusionSession`."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.session import CaptureChainSource, FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.scene import SyntheticScene


def _session(scene, **overrides):
    config = FusionConfig(engine="neon", fusion_shape=FrameShape(40, 40),
                          levels=2, scene=scene, quality_metrics=False)
    return FusionSession(config.with_overrides(**overrides))


@pytest.fixture
def pipeline(scene):
    with _session(scene) as session:
        yield session


class TestPipeline:
    def test_produces_requested_frames(self, pipeline):
        report = pipeline.run(2)
        assert report.frames == 2
        assert len(report.records) == 2

    def test_fused_frames_are_uint8_at_fusion_shape(self, pipeline):
        report = pipeline.run(1)
        frame = report.records[0].frame
        assert frame.pixels.shape == (40, 40)
        assert frame.pixels.dtype == np.uint8
        assert frame.source == "fused"

    def test_model_costs_accumulate(self, pipeline):
        report = pipeline.run(2)
        assert report.model_seconds_total > 0
        assert report.model_millijoules_total > 0
        assert report.model_fps > 0
        per_frame = report.records[0].model_seconds
        assert np.isclose(report.model_seconds_total, 2 * per_frame)

    def test_no_decode_errors_on_clean_stream(self, pipeline):
        report = pipeline.run(2)
        assert report.decode_errors == 0

    def test_fused_output_combines_modalities(self, pipeline):
        record = pipeline.run(1).records[0]
        fused = record.frame.pixels.astype(float)
        # correlated with both registered sources
        corr_vis = np.corrcoef(fused.ravel(), record.visible.ravel())[0, 1]
        corr_th = np.corrcoef(fused.ravel(), record.thermal.ravel())[0, 1]
        assert corr_vis > 0.2
        assert corr_th > 0.2

    def test_bad_frame_count(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.run(0)

    def test_keep_records_off_saves_memory(self, scene):
        with _session(scene, keep_records=False) as session:
            report = session.run(2)
        assert report.frames == 2
        assert report.records == []


class TestPipelineExecutorParity:
    """Every executor fuses the capture chain exactly as a manual
    ``process()`` loop over the same chain does."""

    @staticmethod
    def _chain():
        return CaptureChainSource(
            scene=SyntheticScene(width=96, height=80, seed=11))

    @pytest.fixture(scope="class")
    def stepped_records(self):
        with _session(None) as session:
            pairs = self._chain().frames()
            return [session.process(pair.visible, pair.thermal,
                                    timestamp_s=pair.timestamp_s)
                    for pair, _ in zip(pairs, range(3))]

    @pytest.mark.parametrize("executor", ["serial", "pipeline", "batch"])
    def test_run_matches_manual_step_loop(self, executor, stepped_records):
        with _session(None, executor=executor) as session:
            report = session.run(3, source=self._chain())
        assert report.frames == 3
        for ref, got in zip(stepped_records, report.records):
            assert np.array_equal(ref.frame.pixels, got.frame.pixels)
            assert ref.model_seconds == got.model_seconds
            assert ref.model_millijoules == got.model_millijoules
            assert ref.frame.frame_id == got.frame.frame_id


#: captured before the scene layers were cached and the camera chains
#: made in place: sha256 over the visible then thermal float64 bytes
#: of the first 24 ``CaptureChainSource(seed=1)`` pairs, the decoder
#: and FIFO counters after them, and sha256 over the fused pixels of
#: ``FusionSession(FusionConfig(seed=1)).run(24)`` (88x72 on the FPGA
#: lane, the default path).  Any drift is a change to the frames, not
#: a retune.
CAPTURE_GOLDEN = {
    "pairs": "db4606e8653fde53b144f67b911496ad3c3fdaefd3eb61196e094b84690bcf28",
    "decoder": {"frames": 24, "lines": 5832, "xy_errors": 0,
                "corrected_xy": 0, "resyncs": 0},
    "fifo": {"pushed": 24, "dropped": 0, "popped": 24},
    "fused": "063f7eba05dcf4bed44275188b13564998aa9b4558ec97914f0ae550d21452cb",
}


class TestCaptureChainGolden:
    def test_first_pairs_and_transport_counters(self):
        source = CaptureChainSource(seed=1)
        digest = hashlib.sha256()
        for pair in itertools.islice(source.frames(), 24):
            digest.update(pair.visible.tobytes())
            digest.update(pair.thermal.tobytes())
        assert digest.hexdigest() == CAPTURE_GOLDEN["pairs"]
        assert dataclasses.asdict(source.chain.decoder.stats) \
            == CAPTURE_GOLDEN["decoder"]
        assert dataclasses.asdict(source.chain.fifo.stats) \
            == CAPTURE_GOLDEN["fifo"]

    @pytest.mark.parametrize("executor", ["serial", "pipeline"])
    def test_default_session_fuses_the_same_frames(self, executor):
        with FusionSession(FusionConfig(seed=1, executor=executor)) as session:
            report = session.run(24)
        digest = hashlib.sha256()
        for record in report.records:
            digest.update(record.frame.pixels.tobytes())
        assert digest.hexdigest() == CAPTURE_GOLDEN["fused"]
