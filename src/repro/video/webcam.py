"""USB webcam simulator (the paper's Logitech C160 on the PS USB-OTG).

Renders the shared scene in the visible band as an RGB frame, applies
simple camera behaviour (auto-exposure gain, sensor noise, 8-bit
quantization) and delivers frames at the configured rate on the
simulated clock.  The paper grayscales these frames before fusion;
:meth:`WebcamSimulator.capture_gray` does both steps.

A capture chain built for a fusion shape asks only for the pixels its
resize reads (a footprint): the camera then finishes only those, while
the render, the exposure metering and every noise draw stay whole.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import VideoError
from .frames import FrameSource, VideoFrame
from .scene import SyntheticScene


class WebcamSimulator(FrameSource):
    """Visible-band camera: VGA-ish sensor over USB.

    Parameters
    ----------
    scene:
        The shared world to image.
    width/height:
        Sensor geometry (default 352x288, CIF, like cheap USB cams).
    fps:
        Frame rate on the simulated clock.
    auto_exposure:
        When on, frames are gain-corrected toward a mid-gray target,
        mimicking the C160's AE loop.
    """

    def __init__(self, scene: Optional[SyntheticScene] = None,
                 width: int = 352, height: int = 288, fps: float = 30.0,
                 auto_exposure: bool = True, seed: int = 7):
        if fps <= 0:
            raise VideoError(f"fps must be positive, got {fps}")
        self.scene = scene if scene is not None else SyntheticScene()
        if (self.scene.width, self.scene.height) != (width, height):
            # render at scene resolution; the pipeline rescales anyway
            width, height = self.scene.width, self.scene.height
        self.width = width
        self.height = height
        self.fps = fps
        self.auto_exposure = auto_exposure
        self._rng = np.random.default_rng(seed)
        self._frame_id = 0

    def capture(self, footprint: Optional[Tuple[np.ndarray, np.ndarray]]
                = None) -> VideoFrame:
        """Next RGB frame (channels-last uint8).

        ``footprint`` (sorted rows, sorted cols) asks for only those
        pixels: the frame is ``capture().pixels[np.ix_(rows, cols)]``,
        bit for bit.  The scene is still rendered whole, auto-exposure
        still meters the whole render and the sensor noise is still
        drawn for every pixel, so both random streams advance exactly
        as for a whole frame; only the finishing (gain, tint, round,
        clip, quantize) is confined to the footprint.
        """
        t_s = self._frame_id / self.fps
        luma = self.scene.render_visible(t_s)
        gain = None
        if self.auto_exposure:
            mean = float(luma.mean())
            if mean > 1e-6:
                gain = 128.0 / mean
        # the same draws, in the same order, as normal(0, 1, shape).  A
        # fresh array, not a reused one: freeing this block (2.4 MB at
        # 352x288) every frame keeps glibc's malloc serving the frame's
        # smaller arrays from already-mapped heap; a reused buffer cost
        # the default session about 1,100 page faults a frame
        rgb = self._rng.standard_normal(luma.shape + (3,))
        if footprint is not None:
            rows, cols = footprint
            # flat pixel indices: one take each, faster than np.ix_
            pixels = rows[:, None] * luma.shape[1] + cols
            luma = luma.take(pixels)
            rgb = rgb.reshape(-1, 3).take(pixels, axis=0)
        # every step below is elementwise, so the footprint's pixels
        # finish exactly as they do in the whole frame
        if gain is not None:
            luma *= gain
            np.clip(luma, 0.0, 255.0, out=luma)
        # a mild Bayer-ish chroma model: visible scene tinted by height.
        # Each channel is added into its plane of the channels-last noise
        # draw, which then rounds, clips and quantizes in place
        # (n + r is r + n, bit for bit).
        r = luma * 1.02
        np.clip(r, 0, 255, out=r)
        b = luma * 0.96
        b += 4.0
        np.clip(b, 0, 255, out=b)
        rgb[..., 0] += r
        rgb[..., 1] += luma
        rgb[..., 2] += b
        np.round(rgb, out=rgb)
        frame = VideoFrame(
            pixels=np.clip(rgb, 0, 255, out=rgb).astype(np.uint8),
            timestamp_s=t_s,
            frame_id=self._frame_id,
            source="webcam",
            metadata={"interface": "usb-otg", "format": "rgb"},
        )
        self._frame_id += 1
        return frame

    def capture_gray(self) -> VideoFrame:
        """Captured frame converted to luma (the fusion input)."""
        return self.capture().to_gray()
