"""Capture substrate: synthetic scene, cameras, BT.656, scaler, FIFO."""

from .bt656 import Bt656Config, Bt656Decoder, DecoderStats, encode_frame
from .capture import CaptureChain
from .display import histogram_strip, render_text, stamp_text, triptych
from .faults import (
    DropoutChannel,
    FaultStats,
    NoisyByteChannel,
    StallingCamera,
    corrupt_stream,
)
from .fifo import FifoStats, FrameFifo
from .frames import FrameSource, VideoFrame, center_crop
from .recorder import PgmSequenceSource, StreamRecorder
from .scaler import VideoScaler, resize_to
from .scene import SyntheticScene, WarmObject
from .thermal import SENSOR_PROFILES, ThermalCameraSimulator
from .webcam import WebcamSimulator

__all__ = [
    "Bt656Config", "Bt656Decoder", "DecoderStats", "encode_frame",
    "CaptureChain",
    "FifoStats", "FrameFifo",
    "FrameSource", "VideoFrame", "center_crop",
    "VideoScaler", "resize_to",
    "SyntheticScene", "WarmObject",
    "SENSOR_PROFILES", "ThermalCameraSimulator",
    "WebcamSimulator",
    "histogram_strip", "render_text", "stamp_text", "triptych",
    "DropoutChannel", "FaultStats", "NoisyByteChannel",
    "StallingCamera", "corrupt_stream",
    "PgmSequenceSource", "StreamRecorder",
]
