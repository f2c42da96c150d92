"""USB webcam simulator (the paper's Logitech C160 on the PS USB-OTG).

Renders the shared scene in the visible band as an RGB frame, applies
simple camera behaviour (auto-exposure gain, sensor noise, 8-bit
quantization) and delivers frames at the configured rate on the
simulated clock.  The paper grayscales these frames before fusion;
:meth:`WebcamSimulator.capture_gray` does both steps.
"""

from __future__ import annotations

from typing import Optional

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

    def capture(self) -> VideoFrame:
        """Next RGB frame (channels-last uint8)."""
        t_s = self._frame_id / self.fps
        luma = self.scene.render_visible(t_s)
        if self.auto_exposure:
            mean = float(luma.mean())
            if mean > 1e-6:
                luma *= 128.0 / mean
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
        rgb = self._rng.normal(0.0, 1.0, luma.shape + (3,))
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
