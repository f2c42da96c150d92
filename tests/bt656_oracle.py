"""Byte-at-a-time BT.656 reference codec: the oracle for the fast one.

This is the original implementation of :mod:`repro.video.bt656`, kept
verbatim in behaviour: a decoder that walks the stream one byte at a
time through the HUNT -> P1 -> P2 -> XY states of the hardware block,
and an encoder that appends one line at a time to a ``bytearray``.
The differential tests check that the vectorized codec in ``src/``
yields the same frames, the same :class:`DecoderStats` and the same
bytes for every input and every way of chunking it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DecodeError
from repro.video.bt656 import (
    Bt656Config,
    DecoderStats,
    _BLANK_CHROMA,
    _BLANK_LUMA,
    _VALID_XY,
    _clip_video,
    _xy_code,
)


def oracle_encode_frame(luma: np.ndarray, config: Bt656Config = Bt656Config(),
                        field_bit: int = 0) -> bytes:
    """Line-by-line encoder (``bytearray`` appends)."""
    luma = np.asarray(luma)
    if luma.ndim != 2:
        raise DecodeError(f"encoder expects a 2-D luma plane, got {luma.shape}")
    rows, cols = config.active_lines, config.active_width
    row_idx = np.linspace(0, luma.shape[0] - 1, rows).round().astype(int)
    col_idx = np.linspace(0, luma.shape[1] - 1, cols).round().astype(int)
    active = _clip_video(luma[np.ix_(row_idx, col_idx)])

    out = bytearray()

    def emit_line(line: Optional[np.ndarray], v: int) -> None:
        out.extend((0xFF, 0x00, 0x00, _xy_code(field_bit, v, 1)))
        out.extend((_BLANK_CHROMA, _BLANK_LUMA) * (config.hblank_samples // 2))
        out.extend((0xFF, 0x00, 0x00, _xy_code(field_bit, v, 0)))
        if line is None:
            out.extend((_BLANK_CHROMA, _BLANK_LUMA) * cols)
        else:
            payload = np.empty(cols * 2, dtype=np.uint8)
            payload[0::2] = _BLANK_CHROMA
            payload[1::2] = line
            out.extend(payload.tobytes())

    for _ in range(config.vblank_lines):
        emit_line(None, v=1)
    for r in range(rows):
        emit_line(active[r], v=0)
    for _ in range(config.post_blank_lines):
        emit_line(None, v=1)
    return bytes(out)


class OracleBt656Decoder:
    """Byte-at-a-time BT.656 decoder state machine."""

    _HUNT, _P1, _P2, _ACTIVE = range(4)

    def __init__(self, config: Bt656Config = Bt656Config()):
        self.config = config
        self.stats = DecoderStats()
        self._state = self._HUNT
        self._line: List[int] = []
        self._lines: List[np.ndarray] = []
        self._in_active_video = False
        self._prev_v = 1
        self._payload_phase = 0

    def push_bytes(self, data: bytes) -> List[np.ndarray]:
        completed: List[np.ndarray] = []
        for byte in data:
            frame = self._push_byte(byte)
            if frame is not None:
                completed.append(frame)
        return completed

    def _push_byte(self, byte: int) -> Optional[np.ndarray]:
        if self._state == self._HUNT:
            if byte == 0xFF:
                self._state = self._P1
            elif self._in_active_video:
                self._payload(byte)
            return None
        if self._state == self._P1:
            self._state = self._P2 if byte == 0x00 else self._HUNT
            if byte == 0xFF:  # FF FF ... stay hunting on the new FF
                self._state = self._P1
            return None
        if self._state == self._P2:
            if byte == 0x00:
                self._state = self._ACTIVE
            else:
                self._state = self._HUNT
            return None
        # _ACTIVE: this byte is the XY code
        self._state = self._HUNT
        return self._timing_code(byte)

    def _timing_code(self, xy: int) -> Optional[np.ndarray]:
        decoded = self._decode_xy(xy)
        if decoded is None:
            self.stats.xy_errors += 1
            self.stats.resyncs += 1
            self._in_active_video = False
            self._line.clear()
            return None
        _f, v, h = decoded
        frame: Optional[np.ndarray] = None
        if h == 0:  # SAV
            if v == 0:
                self._in_active_video = True
                self._line.clear()
                self._payload_phase = 0
            else:
                self._in_active_video = False
        else:  # EAV
            if self._in_active_video and self._line:
                self._finish_line()
            self._in_active_video = False
            if v == 1 and self._prev_v == 0 and self._lines:
                frame = self._finish_frame()
        self._prev_v = v
        return frame

    def _decode_xy(self, xy: int) -> Optional[Tuple[int, int, int]]:
        if xy in _VALID_XY:
            return _VALID_XY[xy]
        for valid, decoded in _VALID_XY.items():
            if bin(valid ^ xy).count("1") == 1:
                self.stats.corrected_xy += 1
                return decoded
        return None

    def _payload(self, byte: int) -> None:
        # 4:2:2 order Cb Y Cr Y: keep every second byte (luma)
        if self._payload_phase % 2 == 1:
            self._line.append(byte)
        self._payload_phase += 1

    def _finish_line(self) -> None:
        width = self.config.active_width
        line = np.asarray(self._line[:width], dtype=np.uint8)
        if len(line) == width:
            self._lines.append(line)
            self.stats.lines += 1
        else:
            self.stats.resyncs += 1
        self._line.clear()

    def _finish_frame(self) -> Optional[np.ndarray]:
        expected = self.config.active_lines
        lines = self._lines
        self._lines = []
        if len(lines) != expected:
            self.stats.resyncs += 1
            if not lines:
                return None
        self.stats.frames += 1
        return np.stack(lines)
