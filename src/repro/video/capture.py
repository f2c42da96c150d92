"""The paper's Fig. 7 capture substrate, assembled once.

:class:`CaptureChain` wires webcam + thermal camera + BT.656 decoder +
scaler + handshaked FIFO exactly like the hardware architecture
section describes.  It is the single construction site for that wiring;
:class:`repro.session.CaptureChainSource` wraps it as the frame source
:class:`repro.session.FusionSession` fuses from, so capture and fusion
run as one data flow.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bt656 import Bt656Decoder
from .fifo import FrameFifo
from .frames import VideoFrame
from .scaler import VideoScaler
from .scene import SyntheticScene
from .thermal import ThermalCameraSimulator
from .webcam import WebcamSimulator


class CaptureChain:
    """Webcam over USB plus thermal over BT.656 -> decode -> scale -> FIFO."""

    def __init__(self, scene: Optional[SyntheticScene] = None,
                 fifo_capacity: int = 1):
        self.scene = scene if scene is not None else SyntheticScene()
        self.webcam = WebcamSimulator(self.scene)
        self.thermal = ThermalCameraSimulator(self.scene)
        self.decoder = Bt656Decoder(self.thermal.bt656_config)
        self.scaler = VideoScaler(
            in_shape=(self.thermal.bt656_config.active_lines,
                      self.thermal.bt656_config.active_width),
            out_shape=(480, 640),
        )
        self.fifo = FrameFifo(capacity=fifo_capacity)

    # ------------------------------------------------------------------
    @property
    def fifo_dropped(self) -> int:
        return self.fifo.stats.dropped

    @property
    def decode_errors(self) -> int:
        return self.decoder.stats.xy_errors + self.decoder.stats.resyncs

    def acquire_thermal(self) -> Optional[np.ndarray]:
        """One camera field through decode -> scale -> FIFO."""
        stream = self.thermal.capture_bt656()
        for decoded in self.decoder.push_bytes(stream):
            self.fifo.push(self.scaler.scale(decoded))
        return self.fifo.pop()

    def capture_pair(self) -> Optional[Tuple[VideoFrame, np.ndarray]]:
        """One (webcam frame, scaled thermal field) pair, or ``None``
        when the FIFO starved this field."""
        visible = self.webcam.capture()
        thermal_scaled = self.acquire_thermal()
        if thermal_scaled is None:
            return None
        return visible, thermal_scaled
