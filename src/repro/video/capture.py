"""The paper's Fig. 7 capture substrate, assembled once.

:class:`CaptureChain` wires webcam + thermal camera + BT.656 decoder +
scaler + handshaked FIFO exactly like the hardware architecture
section describes.  It is the single construction site for that wiring;
:class:`repro.session.CaptureChainSource` wraps it as the frame source
:class:`repro.session.FusionSession` fuses from, so capture and fusion
run as one data flow.

Built with a ``frame_shape`` hint (the shape fusion resizes every
frame to), the chain delivers frames already at that shape: the webcam
finishes, and the chain grays and scales, only the pixels that resize
reads, while every random draw stays whole; without it, it delivers
the full Fig. 7 frames.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bt656 import Bt656Decoder
from .fifo import FrameFifo
from .frames import VideoFrame, bt601_luma
from .scaler import VideoScaler
from .scene import SyntheticScene
from .thermal import ThermalCameraSimulator
from .webcam import WebcamSimulator


class CaptureChain:
    """Webcam over USB plus thermal over BT.656 -> decode -> scale -> FIFO.

    ``frame_shape`` (rows, cols), when given, is the shape a bilinear
    resize takes both frames to next: the scaler and the visible
    luma then compute only what that resize reads and return its
    result (see :class:`VideoScaler`'s ``target``).
    """

    def __init__(self, scene: Optional[SyntheticScene] = None,
                 fifo_capacity: int = 1,
                 frame_shape: Optional[Tuple[int, int]] = None):
        self.scene = scene if scene is not None else SyntheticScene()
        self.webcam = WebcamSimulator(self.scene)
        self.thermal = ThermalCameraSimulator(self.scene)
        self.decoder = Bt656Decoder(self.thermal.bt656_config)
        self.scaler = VideoScaler(
            in_shape=(self.thermal.bt656_config.active_lines,
                      self.thermal.bt656_config.active_width),
            out_shape=(480, 640),
            target=frame_shape,
        )
        self.fifo = FrameFifo(capacity=fifo_capacity)
        webcam_shape = (self.webcam.height, self.webcam.width)
        #: the visible frame's resize, or None when it is not resized
        self.visible_scaler = (
            None if frame_shape is None or tuple(frame_shape) == webcam_shape
            else VideoScaler(in_shape=webcam_shape, out_shape=frame_shape))

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

    def visible_luma(self, frame: VideoFrame) -> np.ndarray:
        """The float64 luma of one webcam frame (whole, or the resize's
        footprint that :meth:`capture_pair` captures); with a
        ``frame_shape`` hint, resized to it from the luma of only the
        pixels the resize reads."""
        if self.visible_scaler is None:
            return frame.to_gray().as_float()
        luma = bt601_luma(self.visible_scaler.read(frame.pixels))
        return self.visible_scaler.scale(luma.astype(np.float64))

    def capture_pair(self) -> Optional[Tuple[VideoFrame, np.ndarray]]:
        """One (webcam RGB frame, scaled thermal field) pair, or
        ``None`` when the FIFO starved this field.  The field is the
        uint8 480x640 frame, or the float64 ``frame_shape`` one with
        the hint; with a hint that resizes the webcam frame, that frame
        holds only the pixels the resize reads (its footprint)."""
        visible = self.webcam.capture(
            None if self.visible_scaler is None
            else self.visible_scaler.footprint())
        thermal_scaled = self.acquire_thermal()
        if thermal_scaled is None:
            return None
        return visible, thermal_scaled
