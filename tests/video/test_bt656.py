"""BT.656 codec: timing codes, roundtrip fidelity, error resilience."""

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.video.bt656 import (
    Bt656Config,
    Bt656Decoder,
    _VALID_XY,
    _xy_code,
    encode_frame,
)


class TestXyCodes:
    def test_all_eight_codes_distinct(self):
        assert len(_VALID_XY) == 8

    def test_msb_always_set(self):
        for code in _VALID_XY:
            assert code & 0x80

    def test_protection_bits_follow_standard(self):
        """P3=V^H, P2=F^H, P1=F^V, P0=F^V^H (ITU-R BT.656)."""
        for f in (0, 1):
            for v in (0, 1):
                for h in (0, 1):
                    code = _xy_code(f, v, h)
                    assert (code >> 3) & 1 == v ^ h
                    assert (code >> 2) & 1 == f ^ h
                    assert (code >> 1) & 1 == f ^ v
                    assert code & 1 == f ^ v ^ h

    def test_known_sav_eav_values(self):
        """The classic field-0 active-video codes: SAV=0x80, EAV=0x9D."""
        assert _xy_code(0, 0, 0) == 0x80
        assert _xy_code(0, 0, 1) == 0x9D
        assert _xy_code(0, 1, 0) == 0xAB
        assert _xy_code(0, 1, 1) == 0xB6


class TestRoundtrip:
    def test_exact_luma_recovery(self, rng):
        config = Bt656Config(active_width=64, active_lines=32,
                             vblank_lines=4, hblank_samples=8)
        frame = rng.integers(1, 255, (32, 64)).astype(np.uint8)
        stream = encode_frame(frame, config)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert len(decoded) == 1
        assert np.array_equal(decoded[0], frame)

    def test_default_geometry_is_papers(self):
        config = Bt656Config()
        assert config.active_width == 720
        assert config.active_lines == 243

    def test_payload_never_contains_sync_values(self, rng):
        """0x00/0xFF are reserved; extreme luma must be clipped."""
        config = Bt656Config(active_width=16, active_lines=8,
                             vblank_lines=2, hblank_samples=4)
        frame = np.full((8, 16), 255, dtype=np.uint8)
        stream = encode_frame(frame, config)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert decoded[0].max() == 0xFE

    def test_resampling_to_active_geometry(self, rng):
        """Arbitrary sensor sizes are fit to the active region."""
        config = Bt656Config(active_width=96, active_lines=64,
                             vblank_lines=2, hblank_samples=4)
        sensor = rng.integers(1, 255, (60, 80)).astype(np.uint8)
        decoded = Bt656Decoder(config).push_bytes(encode_frame(sensor, config))
        assert decoded[0].shape == (64, 96)

    def test_multiple_frames_in_one_stream(self, rng):
        config = Bt656Config(active_width=32, active_lines=16,
                             vblank_lines=2, hblank_samples=4)
        frames = [rng.integers(1, 255, (16, 32)).astype(np.uint8)
                  for _ in range(3)]
        stream = b"".join(encode_frame(f, config) for f in frames)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert len(decoded) == 3
        for original, got in zip(frames, decoded):
            assert np.array_equal(got, original)

    def test_chunked_delivery(self, rng):
        """Chunked delivery must decode identically (the decoder carries
        its state across chunks, like the hardware)."""
        config = Bt656Config(active_width=24, active_lines=8,
                             vblank_lines=2, hblank_samples=4)
        frame = rng.integers(1, 255, (8, 24)).astype(np.uint8)
        stream = encode_frame(frame, config)
        decoder = Bt656Decoder(config)
        collected = []
        for i in range(0, len(stream), 7):
            collected.extend(decoder.push_bytes(stream[i:i + 7]))
        assert len(collected) == 1
        assert np.array_equal(collected[0], frame)

    def test_encoder_rejects_bad_input(self):
        with pytest.raises(DecodeError):
            encode_frame(np.zeros(10))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_encoder_rejects_empty_plane(self, shape):
        with pytest.raises(DecodeError, match="empty"):
            encode_frame(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encoder_rejects_non_finite_plane(self, bad):
        plane = np.full((4, 4), 100.0)
        plane[2, 1] = bad
        with pytest.raises(DecodeError, match="non-finite"):
            encode_frame(plane)


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("active_width", 0),
        ("active_lines", 0),
        ("active_width", -3),
        ("vblank_lines", -1),
        ("post_blank_lines", -1),
        ("hblank_samples", -4),
        ("hblank_samples", 3),
    ])
    def test_geometry_that_breaks_the_codec_is_rejected(self, field, value):
        with pytest.raises(DecodeError, match=field):
            Bt656Config(**{field: value})

    def test_smallest_valid_geometry_roundtrips(self):
        config = Bt656Config(active_width=1, active_lines=1, vblank_lines=0,
                             post_blank_lines=1, hblank_samples=0)
        frame = np.array([[0x42]], dtype=np.uint8)
        decoded = Bt656Decoder(config).push_bytes(encode_frame(frame, config))
        assert [f.tolist() for f in decoded] == [[[0x42]]]


class TestErrorResilience:
    @pytest.fixture
    def config(self):
        return Bt656Config(active_width=32, active_lines=16,
                           vblank_lines=2, hblank_samples=4)

    def test_single_bit_xy_error_corrected(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        stream = bytearray(encode_frame(frame, config))
        # find an XY code (byte after FF 00 00) and flip one bit
        for i in range(len(stream) - 3):
            if stream[i] == 0xFF and stream[i + 1] == 0 and stream[i + 2] == 0:
                stream[i + 3] ^= 0x02
                break
        decoder = Bt656Decoder(config)
        decoded = decoder.push_bytes(bytes(stream))
        assert decoder.stats.corrected_xy >= 1
        assert len(decoded) == 1

    def test_recovers_after_garbage_prefix(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        garbage = bytes(rng.integers(1, 255, 500).astype(np.uint8))
        stream = garbage + encode_frame(frame, config)
        decoded = Bt656Decoder(config).push_bytes(stream)
        assert len(decoded) >= 1
        assert np.array_equal(decoded[-1], frame)

    def test_truncated_frame_counts_resync(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        stream = encode_frame(frame, config)
        decoder = Bt656Decoder(config)
        decoder.push_bytes(stream[: len(stream) // 2])  # half a frame
        decoder.push_bytes(encode_frame(frame, config))  # then a good one
        assert decoder.stats.resyncs >= 1

    def test_stats_track_lines(self, config, rng):
        frame = rng.integers(1, 255, (16, 32)).astype(np.uint8)
        decoder = Bt656Decoder(config)
        decoder.push_bytes(encode_frame(frame, config))
        assert decoder.stats.lines == 16
        assert decoder.stats.frames == 1
