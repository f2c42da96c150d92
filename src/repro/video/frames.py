"""Frame and stream types shared by the capture substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import VideoError

#: BT.601 luma weight times each 8-bit level, per channel
_BT601_RED, _BT601_GREEN, _BT601_BLUE = (
    w * np.arange(256, dtype=np.float64) for w in (0.299, 0.587, 0.114))


@dataclass
class VideoFrame:
    """One captured frame.

    ``pixels`` is a 2-D (grayscale) or 3-D (channels-last) uint8 array;
    ``timestamp_s`` the capture time on the simulated clock; ``source``
    a free-form tag ("webcam", "thermal", "fused", ...).
    """

    pixels: np.ndarray
    timestamp_s: float
    frame_id: int
    source: str = "unknown"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim not in (2, 3):
            raise VideoError(
                f"frame must be 2-D or 3-D, got shape {self.pixels.shape}"
            )

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def is_gray(self) -> bool:
        return self.pixels.ndim == 2

    def to_gray(self) -> "VideoFrame":
        """ITU-R BT.601 luma conversion (the paper grayscales the webcam)."""
        if self.is_gray:
            return self
        if self.pixels.shape[2] != 3:
            raise VideoError(
                f"expected 3 channels for gray conversion, got {self.pixels.shape}"
            )
        return VideoFrame(
            pixels=bt601_luma(self.pixels),
            timestamp_s=self.timestamp_s,
            frame_id=self.frame_id,
            source=self.source,
            metadata=dict(self.metadata),
        )

    def as_float(self) -> np.ndarray:
        """Float64 copy of the pixel data for transform input."""
        return self.pixels.astype(np.float64)


def bt601_luma(rgb: np.ndarray) -> np.ndarray:
    """8-bit BT.601 luma of channels-last uint8 RGB pixels."""
    # the products of a float64 conversion, summed in the same order
    luma = _BT601_RED.take(rgb[..., 0])
    luma += _BT601_GREEN.take(rgb[..., 1])
    luma += _BT601_BLUE.take(rgb[..., 2])
    np.round(luma, out=luma)
    return np.clip(luma, 0, 255, out=luma).astype(np.uint8)


def center_crop(pixels: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Crop the central ``rows x cols`` window (pads by edge if short)."""
    if pixels.shape[0] < rows or pixels.shape[1] < cols:
        pad_r = max(0, rows - pixels.shape[0])
        pad_c = max(0, cols - pixels.shape[1])
        pixels = np.pad(pixels,
                        ((pad_r // 2, pad_r - pad_r // 2),
                         (pad_c // 2, pad_c - pad_c // 2)) +
                        (((0, 0),) if pixels.ndim == 3 else ()),
                        mode="edge")
    r0 = (pixels.shape[0] - rows) // 2
    c0 = (pixels.shape[1] - cols) // 2
    return pixels[r0: r0 + rows, c0: c0 + cols]


class FrameSource:
    """Minimal stream interface: ``capture()`` yields successive frames."""

    fps: float = 30.0

    def capture(self) -> VideoFrame:  # pragma: no cover - interface
        raise NotImplementedError

    def stream(self, count: int) -> Iterator[VideoFrame]:
        for _ in range(count):
            yield self.capture()
