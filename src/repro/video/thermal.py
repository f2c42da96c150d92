"""Thermal camera simulator (Thermoteknix MicroCAM 384H XTi class).

The paper's LWIR camera outputs analog video that reaches the PL as a
BT.656 stream (Fig. 7).  This simulator renders the shared scene's
temperature field at the microbolometer's native resolution, embeds it
in the NTSC-style 720x243 field geometry and, on request, produces the
actual BT.656 byte stream for the decoder model — so the pipeline
exercises decode -> scale -> FIFO exactly like the hardware.

A low-resolution profile (80x60) mirrors the FLIR Lepton module the
paper cites as the motivation for its small 88x72 fusion frames.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import VideoError
from .bt656 import Bt656Config, encode_frame
from .frames import FrameSource, VideoFrame
from .scene import SyntheticScene

#: Native sensor geometries by camera profile.
SENSOR_PROFILES = {
    "microcam-384": (288, 384),   # rows, cols — MicroCAM 384H XTi
    "lepton": (60, 80),           # FLIR Lepton (paper's example constraint)
}


class ThermalCameraSimulator(FrameSource):
    """LWIR camera producing sensor frames and BT.656 field streams."""

    def __init__(self, scene: Optional[SyntheticScene] = None,
                 profile: str = "microcam-384", fps: float = 60.0,
                 netd_c: float = 0.08,
                 bt656_config: Optional[Bt656Config] = None):
        if profile not in SENSOR_PROFILES:
            raise VideoError(
                f"unknown thermal profile {profile!r}; known: "
                f"{sorted(SENSOR_PROFILES)}"
            )
        if fps <= 0:
            raise VideoError(f"fps must be positive, got {fps}")
        self.scene = scene if scene is not None else SyntheticScene()
        self.profile = profile
        self.rows, self.cols = SENSOR_PROFILES[profile]
        self.fps = fps
        self.netd_c = netd_c
        self.bt656_config = bt656_config if bt656_config is not None else Bt656Config()
        self._frame_id = 0
        # the sensor samples the scene at fixed rows and columns
        self._rows_idx = np.linspace(0, self.scene.height - 1,
                                     self.rows).round().astype(int)
        self._cols_idx = np.linspace(0, self.scene.width - 1,
                                     self.cols).round().astype(int)

    def capture(self) -> VideoFrame:
        """Next sensor-resolution LWIR frame (uint8)."""
        t_s = self._frame_id / self.fps
        full = self.scene.render_thermal(t_s, netd_c=self.netd_c)
        # sample the scene down to the sensor geometry
        pixels = full.take(self._rows_idx, axis=0).take(self._cols_idx, axis=1)
        np.round(pixels, out=pixels)
        frame = VideoFrame(
            pixels=np.clip(pixels, 0, 255, out=pixels).astype(np.uint8),
            timestamp_s=t_s,
            frame_id=self._frame_id,
            source="thermal",
            metadata={"profile": self.profile, "interface": "bt656/fmc"},
        )
        self._frame_id += 1
        return frame

    def capture_bt656(self) -> bytes:
        """Next frame as the BT.656 byte stream the PL decoder receives."""
        frame = self.capture()
        return encode_frame(frame.pixels, self.bt656_config,
                            field_bit=frame.frame_id % 2)
