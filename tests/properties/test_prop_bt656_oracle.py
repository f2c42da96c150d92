"""Differential properties: the vectorized BT.656 codec against the
byte-at-a-time oracle in ``tests/bt656_oracle.py``.

The decoder must hand back the same frames (values, shapes and dtype)
and the same :class:`DecoderStats` as the reference state machine for
every stream, however it is chunked: clean, bit-flipped, with byte
dropouts, truncated, behind garbage, spliced with preamble fragments,
or made only of sync-like bytes.
The encoder must emit the same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bt656_oracle import OracleBt656Decoder, oracle_encode_frame
from repro.video.bt656 import Bt656Config, Bt656Decoder, _xy_code, encode_frame
from repro.video.faults import DropoutChannel, NoisyByteChannel

_SETTINGS = dict(deadline=None, max_examples=60)

configs = st.builds(
    Bt656Config,
    active_width=st.integers(1, 12),
    active_lines=st.integers(1, 6),
    vblank_lines=st.integers(0, 3),
    post_blank_lines=st.integers(0, 3),
    hblank_samples=st.integers(0, 4).map(lambda k: 2 * k),
)

planes = hnp.arrays(np.uint8, st.tuples(st.integers(1, 10),
                                        st.integers(1, 10)))

#: bytes that drive the preamble rules: sync values, every valid XY
#: code, single-bit-corrupted ones and the blanking levels
_SYNC_ALPHABET = sorted({0xFF, 0x00, 0x80, 0x10, 0x9D ^ 0x04, 0xB6 ^ 0x40}
                        | {_xy_code(f, v, h) for f in (0, 1)
                           for v in (0, 1) for h in (0, 1)})

#: preamble fragments spliced into clean streams
_FRAGMENTS = [b"\xff", b"\xff\xff", b"\xff\x00", b"\xff\x00\xff",
              b"\xff\x00\x00", b"\xff\x00\x00\xff", b"\x00\x00"]


@st.composite
def streams(draw, config):
    """Encoded fields, then one fault from the capture substrate."""
    planes_drawn = draw(st.lists(planes, min_size=1, max_size=3))
    stream = b"".join(encode_frame(p, config, field_bit=k % 2)
                      for k, p in enumerate(planes_drawn))
    fault = draw(st.sampled_from(
        ["clean", "noisy", "dropout", "truncated", "garbage", "spliced"]))
    seed = draw(st.integers(0, 2**16))
    if fault == "noisy":
        ber = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
        stream = NoisyByteChannel(ber, seed=seed).transmit(stream)
    elif fault == "dropout":
        channel = DropoutChannel(draw(st.sampled_from([0.005, 0.02, 0.1])),
                                 burst_bytes=draw(st.integers(1, 16)),
                                 seed=seed)
        stream = channel.transmit(stream)
    elif fault == "truncated":
        stream = stream[:draw(st.integers(0, len(stream)))]
    elif fault == "garbage":
        stream = draw(st.binary(max_size=64)) + stream
    elif fault == "spliced":
        for _ in range(draw(st.integers(1, 6))):
            at = draw(st.integers(0, len(stream)))
            stream = (stream[:at] + draw(st.sampled_from(_FRAGMENTS))
                      + stream[at:])
    return stream


@st.composite
def chunkings(draw, length):
    """Chunk sizes covering ``length`` bytes, down to single bytes."""
    if draw(st.booleans()):
        size = draw(st.integers(1, 8))
        return [size] * (length // size + 1)
    return draw(st.lists(st.integers(1, 300), min_size=1, max_size=40)) + [length]


def _decode(decoder, stream, sizes):
    frames, pos = [], 0
    for size in sizes:
        if pos >= len(stream):
            break
        frames.extend(decoder.push_bytes(stream[pos:pos + size]))
        pos += size
    return frames


def _assert_same_decode(config, stream, sizes):
    oracle = OracleBt656Decoder(config)
    expected = oracle.push_bytes(stream)
    decoder = Bt656Decoder(config)
    got = _decode(decoder, stream, sizes)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert decoder.stats == oracle.stats


class TestDecoderMatchesOracle:
    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_faulted_streams_any_chunking(self, data):
        config = data.draw(configs)
        stream = data.draw(streams(config))
        _assert_same_decode(config, stream,
                            data.draw(chunkings(len(stream))))

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_sync_alphabet_streams(self, data):
        """Dense runs of FF/00/XY bytes hit every preamble transition."""
        config = data.draw(configs)
        stream = bytes(data.draw(st.lists(st.sampled_from(_SYNC_ALPHABET),
                                          max_size=400)))
        _assert_same_decode(config, stream,
                            data.draw(chunkings(len(stream))))

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_one_byte_chunks(self, data):
        config = data.draw(configs)
        stream = data.draw(streams(config))
        _assert_same_decode(config, stream, [1] * len(stream))


class TestEncoderMatchesOracle:
    @settings(**_SETTINGS)
    @given(config=configs, plane=planes, field_bit=st.integers(0, 1))
    def test_uint8_planes_byte_for_byte(self, config, plane, field_bit):
        assert (encode_frame(plane, config, field_bit)
                == oracle_encode_frame(plane, config, field_bit))

    @settings(**_SETTINGS)
    @given(config=configs,
           plane=hnp.arrays(np.float64, st.tuples(st.integers(1, 6),
                                                  st.integers(1, 6)),
                            elements=st.floats(-50, 400)))
    def test_float_planes_byte_for_byte(self, config, plane):
        assert encode_frame(plane, config) == oracle_encode_frame(plane, config)

    def test_default_geometry_byte_for_byte(self, rng):
        plane = rng.integers(0, 256, (288, 384)).astype(np.uint8)
        assert (encode_frame(plane, field_bit=1)
                == oracle_encode_frame(plane, field_bit=1))


class TestPreambleEdgeCases:
    """The two rules a per-FF walk most easily gets wrong."""

    config = Bt656Config(active_width=3, active_lines=1, vblank_lines=0,
                         post_blank_lines=0, hblank_samples=0)
    sav = bytes((0xFF, 0x00, 0x00, _xy_code(0, 0, 0)))
    eav_active = bytes((0xFF, 0x00, 0x00, _xy_code(0, 0, 1)))
    eav_blank = bytes((0xFF, 0x00, 0x00, _xy_code(0, 1, 1)))

    def _check_every_split(self, stream):
        for cut in range(len(stream) + 1):
            _assert_same_decode(self.config, stream, [cut or 1, len(stream)])
        _assert_same_decode(self.config, stream, [1] * len(stream))

    def test_ff_00_ff_drops_the_second_ff(self):
        """``FF 00 FF``: the FF is consumed, not a new preamble, so the
        ``00 00 9D`` after it is payload of the open line."""
        stream = (self.sav + bytes((0x80, 0x21, 0x80, 0x22))
                  + bytes((0xFF, 0x00, 0xFF, 0x00, 0x00, 0x9D))
                  + self.eav_active + self.eav_blank)
        decoder = Bt656Decoder(self.config)
        frames = decoder.push_bytes(stream)
        assert len(frames) == 1
        assert frames[0].tolist() == [[0x21, 0x22, 0x00]]
        assert decoder.stats.resyncs == 0
        self._check_every_split(stream)

    def test_ff_00_00_ff_is_an_xy_code(self):
        """``FF 00 00 FF``: the last FF is the (invalid) XY byte, not the
        start of a preamble, so the following ``00 00 9D`` is no EAV."""
        stream = (self.sav + bytes((0x80, 0x21, 0x80, 0x22, 0x80, 0x23))
                  + bytes((0xFF, 0x00, 0x00, 0xFF, 0x00, 0x00, 0x9D))
                  + self.eav_blank)
        decoder = Bt656Decoder(self.config)
        assert decoder.push_bytes(stream) == []
        assert decoder.stats.xy_errors == 1
        assert decoder.stats.lines == 0
        self._check_every_split(stream)

    @pytest.mark.parametrize("tail", [b"\xff", b"\xff\x00", b"\xff\x00\x00"])
    def test_preamble_cut_at_chunk_end_is_carried(self, tail):
        stream = (self.sav + bytes((0x80, 0x21, 0x80, 0x22, 0x80, 0x23))
                  + self.eav_active + self.eav_blank)
        split = stream.index(self.eav_active) + len(tail)
        decoder = Bt656Decoder(self.config)
        assert decoder.push_bytes(stream[:split]) == []
        frames = decoder.push_bytes(stream[split:])
        assert [f.tolist() for f in frames] == [[[0x21, 0x22, 0x23]]]
