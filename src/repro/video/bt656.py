"""ITU-R BT.656 stream encoder/decoder (the PL-side camera interface).

The paper's thermal camera emits analog video digitized as a BT.656
byte stream, decoded by a custom ``BT656_Decoder`` block on the FPGA
(Fig. 7).  This module implements the standard faithfully enough to
exercise the same logic in simulation:

* **Timing reference codes**: every line starts/ends with the 4-byte
  sequences ``FF 00 00 XY``.  ``XY = 1 F V H P3 P2 P1 P0`` carries the
  field bit, vertical-blanking bit and H bit (0 = SAV, start of active
  video; 1 = EAV, end of active video); ``P3..P0`` are the standard
  Hamming protection bits, which the decoder checks.
* **Payload**: 4:2:2 multiplexed ``Cb Y Cr Y`` samples during active
  video; blanking intervals carry the idle pattern ``80 10``.

:class:`Bt656Decoder` tokenizes each pushed chunk as a whole instead of
stepping through it byte by byte.  Only ``0xFF`` bytes can start a
preamble, so it locates them with one NumPy pass and walks just those
positions (about 530 per clean field) through the hardware block's
``FF -> 00 -> 00 -> XY`` rules; the runs of bytes between them are
payload, taken as NumPy slices, and a line's luma is the odd lane of
its payload.  XY codes are validated and single-bit corrected through a
256-entry lookup table (the 3-bit Hamming distance between valid codes
allows single-bit repair; anything else counts as an error, like the
``Error`` output pin of the paper's decoder).  V transitions delimit
frames.  A preamble cut off by the end of a chunk is carried into the
next :meth:`Bt656Decoder.push_bytes`, so any chunking of a stream
decodes to the same frames and :class:`DecoderStats`.

:func:`encode_frame` builds a field as one ``(lines, line_bytes)``
array filled by slicing.  The byte-at-a-time state machine and the
line-by-line encoder this module started from are kept under
``tests/bt656_oracle.py`` as the reference both are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DecodeError

#: Idle (blanking) chroma/luma levels.
_BLANK_CHROMA = 0x80
_BLANK_LUMA = 0x10


def _xy_code(f: int, v: int, h: int) -> int:
    """Timing reference byte with ITU protection bits."""
    p3 = v ^ h
    p2 = f ^ h
    p1 = f ^ v
    p0 = f ^ v ^ h
    return (0x80 | (f << 6) | (v << 5) | (h << 4)
            | (p3 << 3) | (p2 << 2) | (p1 << 1) | p0)


#: All eight valid XY codes, for single-error correction in the decoder.
_VALID_XY = {(_xy_code(f, v, h)): (f, v, h)
             for f in (0, 1) for v in (0, 1) for h in (0, 1)}


def _xy_entry(xy: int) -> Optional[Tuple[int, int, int, bool]]:
    """``(f, v, h, corrected)`` for one XY byte, or ``None`` if it is
    more than one bit away from every valid code."""
    if xy in _VALID_XY:
        return (*_VALID_XY[xy], False)
    for valid, decoded in _VALID_XY.items():
        if bin(valid ^ xy).count("1") == 1:
            return (*decoded, True)
    return None


#: XY byte -> decoded timing code, for every byte value.
_XY_TABLE = tuple(_xy_entry(xy) for xy in range(256))


def _clip_video(values: np.ndarray) -> np.ndarray:
    """BT.656 reserves 0x00 and 0xFF for sync codes; clip payload."""
    return np.clip(values, 0x01, 0xFE).astype(np.uint8)


@dataclass
class Bt656Config:
    """Stream geometry.  Defaults follow the paper's 720x243 @60 Hz
    field format (NTSC-style) feeding the video scaler."""

    active_width: int = 720
    active_lines: int = 243
    vblank_lines: int = 20
    #: blanking lines after the active region (closes the frame so a
    #: standalone field decodes without waiting for the next one)
    post_blank_lines: int = 3
    hblank_samples: int = 64  # payload words during horizontal blanking

    def __post_init__(self) -> None:
        for name, low in (("active_width", 1), ("active_lines", 1),
                          ("vblank_lines", 0), ("post_blank_lines", 0),
                          ("hblank_samples", 0)):
            if getattr(self, name) < low:
                raise DecodeError(f"Bt656Config.{name} must be >= {low}, "
                                  f"got {getattr(self, name)}")
        if self.hblank_samples % 2:
            raise DecodeError(
                f"Bt656Config.hblank_samples must be even (whole Cb Y / "
                f"Cr Y pairs), got {self.hblank_samples}")


def encode_frame(luma: np.ndarray, config: Bt656Config = Bt656Config(),
                 field_bit: int = 0) -> bytes:
    """Encode one grayscale frame as a BT.656 byte stream.

    The luma plane is resized by sampling/replication to the configured
    active geometry; chroma is set to the neutral value (the thermal
    camera is monochrome).
    """
    luma = np.asarray(luma)
    if luma.ndim != 2:
        raise DecodeError(f"encoder expects a 2-D luma plane, got {luma.shape}")
    if luma.size == 0:
        raise DecodeError(f"encoder got an empty luma plane {luma.shape}")
    if np.issubdtype(luma.dtype, np.inexact) and not np.isfinite(luma).all():
        raise DecodeError("encoder got non-finite (NaN or inf) luma samples")
    rows, cols = config.active_lines, config.active_width
    # nearest-neighbour fit to the active geometry
    row_idx = np.linspace(0, luma.shape[0] - 1, rows).round().astype(int)
    col_idx = np.linspace(0, luma.shape[1] - 1, cols).round().astype(int)
    active = _clip_video(luma[row_idx][:, col_idx])

    # one line: EAV, horizontal blanking, SAV, payload.  Every blanking
    # and payload word starts on an even offset, so the idle pattern is
    # the chroma/luma alternation of the whole line.
    sav = 4 + config.hblank_samples
    line = np.empty(sav + 4 + 2 * cols, dtype=np.uint8)
    line[0::2] = _BLANK_CHROMA
    line[1::2] = _BLANK_LUMA
    line[0:3] = line[sav:sav + 3] = (0xFF, 0x00, 0x00)
    line[3] = _xy_code(field_bit, 1, 1)
    line[sav + 3] = _xy_code(field_bit, 1, 0)

    first, last = config.vblank_lines, config.vblank_lines + rows
    out = np.tile(line, (last + config.post_blank_lines, 1))
    out[first:last, 3] = _xy_code(field_bit, 0, 1)
    out[first:last, sav + 3] = _xy_code(field_bit, 0, 0)
    out[first:last, sav + 5::2] = active
    return out.tobytes()


@dataclass
class DecoderStats:
    """Counters mirroring the hardware block's status outputs."""

    frames: int = 0
    lines: int = 0
    xy_errors: int = 0
    corrected_xy: int = 0
    resyncs: int = 0


class Bt656Decoder:
    """BT.656 decoder that tokenizes whole chunks (see module docs)."""

    def __init__(self, config: Bt656Config = Bt656Config()):
        self.config = config
        self.stats = DecoderStats()
        #: the start of a preamble cut off by the end of the last chunk
        self._pending = b""
        #: payload slices of the current active line, since its SAV
        self._payload: List[np.ndarray] = []
        self._payload_len = 0
        self._lines: List[np.ndarray] = []
        self._in_active_video = False
        self._prev_v = 1

    # ------------------------------------------------------------------
    def push_bytes(self, data: bytes) -> List[np.ndarray]:
        """Feed stream bytes; returns any frames completed by this chunk."""
        # an immutable copy: payload slices outlive this call
        data = self._pending + bytes(data)
        self._pending = b""
        buf = np.frombuffer(data, dtype=np.uint8)
        n = len(data)
        completed: List[np.ndarray] = []
        pos = 0  # next byte the hunt has not consumed
        for i in np.flatnonzero(buf == 0xFF).tolist():
            if i < pos:  # consumed inside the previous preamble
                continue
            if self._in_active_video and i > pos:
                self._add_payload(buf[pos:i])
            if i + 3 >= n:
                # the preamble runs past this chunk: walk it again at
                # the head of the next one (no XY byte, so nothing
                # observable has happened yet)
                self._pending = data[i:]
                return completed
            # i is FF: expect 00 00 XY.  A failed byte is consumed
            # without starting a preamble, except FF right after FF.
            if data[i + 1]:
                pos = i + 1 if data[i + 1] == 0xFF else i + 2
                continue
            if data[i + 2]:
                pos = i + 3
                continue
            frame = self._timing_code(data[i + 3])
            if frame is not None:
                completed.append(frame)
            pos = i + 4
        if self._in_active_video and pos < n:
            self._add_payload(buf[pos:])
        return completed

    def _add_payload(self, chunk: np.ndarray) -> None:
        self._payload.append(chunk)
        self._payload_len += len(chunk)

    # ------------------------------------------------------------------
    def _timing_code(self, xy: int) -> Optional[np.ndarray]:
        decoded = _XY_TABLE[xy]
        frame: Optional[np.ndarray] = None
        if decoded is None:
            self.stats.xy_errors += 1
            self.stats.resyncs += 1
            self._in_active_video = False
        else:
            _f, v, h, corrected = decoded
            if corrected:
                self.stats.corrected_xy += 1
            if h == 0:  # SAV
                self._in_active_video = v == 0
            else:  # EAV
                # a line holds luma once its payload has one Cb Y pair
                if self._in_active_video and self._payload_len >= 2:
                    self._finish_line()
                self._in_active_video = False
                if v == 1 and self._prev_v == 0 and self._lines:
                    frame = self._finish_frame()
            self._prev_v = v
        # every timing code ends the line in progress
        self._payload = []
        self._payload_len = 0
        return frame

    def _finish_line(self) -> None:
        width = self.config.active_width
        payload = self._payload
        # 4:2:2 order Cb Y Cr Y: luma is every second byte
        luma = (payload[0] if len(payload) == 1
                else np.concatenate(payload))[1::2]
        if len(luma) >= width:
            self._lines.append(luma[:width])
            self.stats.lines += 1
        else:
            self.stats.resyncs += 1

    def _finish_frame(self) -> np.ndarray:
        lines = self._lines
        self._lines = []
        if len(lines) != self.config.active_lines:
            self.stats.resyncs += 1
        self.stats.frames += 1
        # stacking copies, so frames never alias the pushed chunks
        return np.stack(lines)
