"""Video scaler block (Fig. 7's ``Video_Scale``: 720x243 -> 640x480).

The thermal camera's decoded fields are NTSC-shaped (720 samples by 243
active lines); the PL scaler resamples them to the 640x480 @60 Hz frame
the rest of the pipeline consumes.  Bilinear interpolation in fixed
point (the hardware uses DSP multipliers) with a nearest-neighbour
option for the cheap configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import VideoError

#: output rows blended per step of the bilinear row pass
_ROW_BLOCK = 64


@dataclass(frozen=True)
class VideoScaler:
    """Resamples frames between fixed geometries."""

    in_shape: Tuple[int, int] = (243, 720)   # (rows, cols)
    out_shape: Tuple[int, int] = (480, 640)
    method: str = "bilinear"

    def __post_init__(self) -> None:
        if self.method not in ("bilinear", "nearest"):
            raise VideoError(f"unknown scaling method {self.method!r}")
        for shape in (self.in_shape, self.out_shape):
            if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
                raise VideoError(f"bad scaler geometry {shape}")

    def scale(self, frame: np.ndarray) -> np.ndarray:
        """Resample ``frame`` (must match ``in_shape``) to ``out_shape``."""
        frame = np.asarray(frame)
        if frame.shape != self.in_shape:
            raise VideoError(
                f"scaler configured for {self.in_shape}, got {frame.shape}"
            )
        if self.method == "nearest":
            return self._nearest(frame)
        return self._bilinear(frame)

    def _nearest(self, frame: np.ndarray) -> np.ndarray:
        rows_out, cols_out = self.out_shape
        r_idx = np.linspace(0, frame.shape[0] - 1, rows_out).round().astype(int)
        c_idx = np.linspace(0, frame.shape[1] - 1, cols_out).round().astype(int)
        return frame[np.ix_(r_idx, c_idx)]

    def _bilinear(self, frame: np.ndarray) -> np.ndarray:
        rows_out, cols_out = self.out_shape
        rows_in, cols_in = frame.shape

        r_pos = np.linspace(0, rows_in - 1, rows_out)
        c_pos = np.linspace(0, cols_in - 1, cols_out)
        r0 = np.floor(r_pos).astype(int)
        c0 = np.floor(c_pos).astype(int)
        r1 = np.minimum(r0 + 1, rows_in - 1)
        c1 = np.minimum(c0 + 1, cols_in - 1)
        wr = (r_pos - r0)[:, None]
        wc = (c_pos - c0)[None, :]

        # separable: blend columns once per input row (in float64), then
        # blend rows of that.  Each output element sees the same products
        # and sums as the direct four-tap formula, so it is bitwise equal.
        cols = frame[:, c0] * (1 - wc)
        cols += frame[:, c1] * wc
        integer = np.issubdtype(frame.dtype, np.integer)
        out = np.empty(self.out_shape,
                       dtype=frame.dtype if integer else np.float64)
        # row blocks keep the float temporaries small enough for the
        # allocator to reuse instead of faulting in fresh pages per call
        for start in range(0, rows_out, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            block = cols[r0[rows]] * (1 - wr[rows])
            block += cols[r1[rows]] * wr[rows]
            if integer:
                np.round(block, out=block)
                np.clip(block, 0, 255, out=block)
            out[rows] = block
        return out


def resize_to(frame: np.ndarray, shape: Tuple[int, int],
              method: str = "bilinear") -> np.ndarray:
    """Convenience: one-off resize of an arbitrary frame."""
    scaler = VideoScaler(in_shape=frame.shape[:2], out_shape=shape,
                         method=method)
    return scaler.scale(frame)
