"""Full-frame scene renders and camera chains: the oracle for the
in-place ones.

This is the original implementation of :class:`repro.video.SyntheticScene`,
:meth:`WebcamSimulator.capture`, :meth:`ThermalCameraSimulator.capture`
and :meth:`VideoFrame.to_gray`, kept verbatim in behaviour: 2-D
``np.mgrid`` coordinate grids, every layer rebuilt for every render,
eight ``np.roll`` copies per thermal blur pass, five temporaries and
an ``np.stack`` per webcam frame, and a float64 copy of the RGB frame
for the luma conversion.  The differential tests check that the
cached-layer, in-place renders in ``src/`` return the same bytes and
leave every random stream in the same state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import VideoError
from repro.video.frames import VideoFrame
from repro.video.scene import WarmObject
from repro.video.thermal import ThermalCameraSimulator
from repro.video.webcam import WebcamSimulator


@dataclass
class OracleScene:
    """The scene renders as they were: every layer, every frame."""

    width: int = 352
    height: int = 288
    seed: int = 2016
    ambient_c: float = 18.0
    illumination: float = 0.75
    objects: List[WarmObject] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 8:
            raise VideoError("scene must be at least 8x8 pixels")
        if not self.objects:
            self.objects = [
                WarmObject(x=0.25, y=0.55, vx=0.05, vy=0.012, radius=0.06,
                           temperature_c=34.0, visible_contrast=8.0),
                WarmObject(x=0.70, y=0.35, vx=-0.03, vy=0.02, radius=0.10,
                           temperature_c=60.0, visible_contrast=25.0),
            ]
        rng = np.random.default_rng(self.seed)
        self._texture = rng.normal(0.0, 1.0, (self.height, self.width))
        self._texture = (self._texture
                         + np.roll(self._texture, 1, 0)
                         + np.roll(self._texture, 1, 1)
                         + np.roll(self._texture, (1, 1), (0, 1))) / 4.0
        self._grid_y, self._grid_x = np.mgrid[0:self.height, 0:self.width]
        self._gx = self._grid_x / max(1, self.width - 1)
        self._gy = self._grid_y / max(1, self.height - 1)
        self._noise_rng = np.random.default_rng(self.seed + 1)
        self._depth_rng = np.random.default_rng(self.seed + 2)

    def _object_masks(self, t_s: float) -> List[Tuple[np.ndarray, WarmObject]]:
        masks = []
        for obj in self.objects:
            ox, oy = obj.position_at(t_s)
            dist2 = ((self._gx - ox) ** 2 + (self._gy - oy) ** 2)
            masks.append((np.exp(-dist2 / (2.0 * obj.radius ** 2)), obj))
        return masks

    def render_visible(self, t_s: float, noise_sigma: float = 1.5) -> np.ndarray:
        base = 90.0 + 60.0 * self.illumination * self._gy
        image = base + 18.0 * self._texture
        image += 35.0 * (self._gx > 0.62)
        image += 12.0 * np.sin(2 * np.pi * self._gx * 12)
        for mask, obj in self._object_masks(t_s):
            image += obj.visible_contrast * mask
        image += self._noise_rng.normal(0.0, noise_sigma, image.shape)
        return np.clip(image, 0.0, 255.0)

    def render_thermal(self, t_s: float, netd_c: float = 0.08,
                       blur: int = 2) -> np.ndarray:
        temps = np.full((self.height, self.width), self.ambient_c)
        temps += 2.0 * self._gy
        for mask, obj in self._object_masks(t_s):
            temps += (obj.temperature_c - self.ambient_c) * mask
        temps += self._noise_rng.normal(0.0, netd_c, temps.shape)
        for _ in range(max(0, blur)):
            temps = (temps
                     + np.roll(temps, 1, 0) + np.roll(temps, -1, 0)
                     + np.roll(temps, 1, 1) + np.roll(temps, -1, 1)) / 5.0
        lo, hi = self.ambient_c - 20.0, self.ambient_c + 50.0
        return np.clip((temps - lo) / (hi - lo) * 255.0, 0.0, 255.0)

    def render_depth(self, t_s: float, noise_mm: float = 4.0) -> np.ndarray:
        depth_m = np.full((self.height, self.width), 4.0)
        depth_m -= 1.5 * self._gy
        depth_m += 0.4 * (self._gx > 0.62)
        for mask, obj in self._object_masks(t_s):
            protrusion = 1.0 + 10.0 * obj.radius
            depth_m -= protrusion * (mask > 0.35)
        depth_m += self._depth_rng.normal(0.0, noise_mm / 1000.0,
                                          depth_m.shape)
        lo, hi = 0.2, 4.5
        scaled = (np.clip(depth_m, lo, hi) - lo) / (hi - lo)
        return (1.0 - scaled) * 255.0

    def render(self, modality: str, t_s: float) -> np.ndarray:
        return {"visible": self.render_visible,
                "thermal": self.render_thermal,
                "depth": self.render_depth}[modality](t_s)


class OracleWebcam(WebcamSimulator):
    """The webcam chain as it was: five temporaries and a stack."""

    def capture(self) -> VideoFrame:
        t_s = self._frame_id / self.fps
        luma = self.scene.render_visible(t_s)
        if self.auto_exposure:
            mean = float(luma.mean())
            if mean > 1e-6:
                luma = np.clip(luma * (128.0 / mean), 0.0, 255.0)
        r = np.clip(luma * 1.02, 0, 255)
        g = luma
        b = np.clip(luma * 0.96 + 4.0, 0, 255)
        rgb = np.stack([r, g, b], axis=-1)
        rgb += self._rng.normal(0.0, 1.0, rgb.shape)
        frame = VideoFrame(
            pixels=np.clip(np.round(rgb), 0, 255).astype(np.uint8),
            timestamp_s=t_s,
            frame_id=self._frame_id,
            source="webcam",
            metadata={"interface": "usb-otg", "format": "rgb"},
        )
        self._frame_id += 1
        return frame


class OracleThermalCamera(ThermalCameraSimulator):
    """The thermal sensor sampling as it was: indices per frame."""

    def capture(self) -> VideoFrame:
        t_s = self._frame_id / self.fps
        full = self.scene.render_thermal(t_s, netd_c=self.netd_c)
        r_idx = np.linspace(0, full.shape[0] - 1, self.rows).round().astype(int)
        c_idx = np.linspace(0, full.shape[1] - 1, self.cols).round().astype(int)
        pixels = full[r_idx][:, c_idx]
        frame = VideoFrame(
            pixels=np.clip(np.round(pixels), 0, 255).astype(np.uint8),
            timestamp_s=t_s,
            frame_id=self._frame_id,
            source="thermal",
            metadata={"profile": self.profile, "interface": "bt656/fmc"},
        )
        self._frame_id += 1
        return frame


def oracle_to_gray(frame: VideoFrame) -> VideoFrame:
    """ITU-R BT.601 luma through a float64 copy of the whole frame."""
    if frame.is_gray:
        return frame
    if frame.pixels.shape[2] != 3:
        raise VideoError(
            f"expected 3 channels for gray conversion, got {frame.pixels.shape}"
        )
    rgb = frame.pixels.astype(np.float64)
    luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    return VideoFrame(
        pixels=np.clip(np.round(luma), 0, 255).astype(np.uint8),
        timestamp_s=frame.timestamp_s,
        frame_id=frame.frame_id,
        source=frame.source,
        metadata=dict(frame.metadata),
    )
