"""Video scaler block (Fig. 7's ``Video_Scale``: 720x243 -> 640x480).

The thermal camera's decoded fields are NTSC-shaped (720 samples by 243
active lines); the PL scaler resamples them to the 640x480 @60 Hz frame
the rest of the pipeline consumes.  Bilinear interpolation in fixed
point (the hardware uses DSP multipliers) with a nearest-neighbour
option for the cheap configuration.

A scaler reads only its *footprint*: the input rows and columns its
taps touch.  It gathers them (a no-op when they are the whole frame)
and blends on indices remapped onto that gather, so it also accepts
the footprint alone.  Given a ``target``, it computes only the output
pixels a bilinear resize to ``target`` reads, and returns that resize,
bit for bit what scale -> cast -> :func:`resize_to` makes of the whole
frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..errors import VideoError

#: output rows blended per step of the bilinear row pass
_ROW_BLOCK = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Taps(NamedTuple):
    """One axis of a resample: per output index, the input index of its
    left tap, of its right tap and the right tap's weight.  Nearest
    copies the left tap (``right`` is ``left``, ``weight`` is None)."""

    left: np.ndarray
    right: np.ndarray
    weight: Optional[np.ndarray]

    @classmethod
    def of(cls, n_in: int, n_out: int, method: str) -> "_Taps":
        """The one index formula of the scaler."""
        pos = np.linspace(0, n_in - 1, n_out)
        if method == "nearest":
            index = pos.round().astype(int)
            return cls(index, index, None)
        left = np.floor(pos).astype(int)
        return cls(left, np.minimum(left + 1, n_in - 1), pos - left)

    def take(self, keep: np.ndarray) -> "_Taps":
        """The taps of the output indices ``keep`` only."""
        return _Taps(self.left[keep], self.right[keep],
                     None if self.weight is None else self.weight[keep])

    def footprint(self) -> Tuple[np.ndarray, "_Taps"]:
        """The sorted input indices the taps read, and the taps
        remapped onto positions in that list."""
        read = np.unique(np.concatenate((self.left, self.right)))
        remapped = _Taps(
            _frozen(np.searchsorted(read, self.left)),
            _frozen(np.searchsorted(read, self.right)),
            None if self.weight is None else _frozen(self.weight))
        return _frozen(read), remapped


class _Plan(NamedTuple):
    """What one scaler reads and how it blends it."""

    rows: np.ndarray        # input rows read, sorted
    cols: np.ndarray        # input columns read, sorted
    row_taps: _Taps         # remapped onto ``rows``
    col_taps: _Taps         # remapped onto ``cols``
    resize: Optional["VideoScaler"]  # out_shape -> target, if it differs


@dataclass(frozen=True)
class VideoScaler:
    """Resamples frames between fixed geometries.

    ``target`` (rows, cols), when set, is where a bilinear resize takes
    the scaled frame next: :meth:`scale` then returns that float64
    frame directly.
    """

    in_shape: Tuple[int, int] = (243, 720)   # (rows, cols)
    out_shape: Tuple[int, int] = (480, 640)
    method: str = "bilinear"
    target: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.method not in ("bilinear", "nearest"):
            raise VideoError(f"unknown scaling method {self.method!r}")
        for name in ("in_shape", "out_shape", "target"):
            shape = getattr(self, name)
            if shape is None:
                continue
            if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
                raise VideoError(f"bad scaler geometry {shape}")
            object.__setattr__(self, name, tuple(int(n) for n in shape))

    def footprint(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted input rows and columns :meth:`scale` reads."""
        plan = _plan(self)
        return plan.rows, plan.cols

    def read(self, pixels: np.ndarray) -> np.ndarray:
        """The footprint of an ``in_shape`` frame (channels-last
        pixels too): ``pixels[np.ix_(*self.footprint())]``, without a
        copy of an axis read whole."""
        plan = _plan(self)
        if len(plan.rows) < pixels.shape[0]:
            pixels = pixels[plan.rows]
        if len(plan.cols) < pixels.shape[1]:
            pixels = pixels[:, plan.cols]
        return pixels

    def scale(self, frame: np.ndarray) -> np.ndarray:
        """Resample ``frame`` to ``out_shape``.

        ``frame`` is the whole ``in_shape`` frame or its footprint
        (:meth:`read`); both give the same bytes.  Without ``target``
        this returns the ``out_shape`` frame (integer input keeps its
        dtype, bilinear rounds and clips it to 8 bits and turns other
        input into float64).  With ``target`` it returns the float64
        ``target`` frame that a bilinear :func:`resize_to` makes of
        that frame cast to float64, computed from only the output
        pixels the resize reads; when ``target`` is ``out_shape``
        there is nothing to resize and the frame comes back cast.
        """
        frame = np.asarray(frame)
        plan = _plan(self)
        if frame.shape == self.in_shape:
            frame = self.read(frame)
        elif frame.shape != (len(plan.rows), len(plan.cols)):
            raise VideoError(
                f"scaler configured for {self.in_shape}, got {frame.shape}"
            )
        if plan.row_taps.weight is None:
            out = frame[np.ix_(plan.row_taps.left, plan.col_taps.left)]
        else:
            out = _bilinear(frame, plan.row_taps, plan.col_taps)
        if self.target is None:
            return out
        out = out.astype(np.float64, copy=False)
        return out if plan.resize is None else plan.resize.scale(out)


@functools.lru_cache(maxsize=32)
def _plan(scaler: VideoScaler) -> _Plan:
    rows = _Taps.of(scaler.in_shape[0], scaler.out_shape[0], scaler.method)
    cols = _Taps.of(scaler.in_shape[1], scaler.out_shape[1], scaler.method)
    resize = None
    if scaler.target is not None and scaler.target != scaler.out_shape:
        resize = VideoScaler(in_shape=scaler.out_shape,
                             out_shape=scaler.target)
        keep_rows, keep_cols = resize.footprint()
        rows, cols = rows.take(keep_rows), cols.take(keep_cols)
    read_rows, row_taps = rows.footprint()
    read_cols, col_taps = cols.footprint()
    return _Plan(read_rows, read_cols, row_taps, col_taps, resize)


def _bilinear(frame: np.ndarray, rows: _Taps, cols: _Taps) -> np.ndarray:
    # separable: blend columns once per input row (in float64), then
    # blend rows of that.  Each output element sees the same products
    # and sums as the direct four-tap formula, so it is bitwise equal.
    wc = cols.weight[None, :]
    wr = rows.weight[:, None]
    blended = frame[:, cols.left] * (1 - wc)
    blended += frame[:, cols.right] * wc
    integer = np.issubdtype(frame.dtype, np.integer)
    out = np.empty((len(rows.left), len(cols.left)),
                   dtype=frame.dtype if integer else np.float64)
    # row blocks keep the float temporaries small enough for the
    # allocator to reuse instead of faulting in fresh pages per call
    for start in range(0, len(rows.left), _ROW_BLOCK):
        block_rows = slice(start, start + _ROW_BLOCK)
        block = blended[rows.left[block_rows]] * (1 - wr[block_rows])
        block += blended[rows.right[block_rows]] * wr[block_rows]
        if integer:
            np.round(block, out=block)
            np.clip(block, 0, 255, out=block)
        out[block_rows] = block
    return out


def resize_to(frame: np.ndarray, shape: Tuple[int, int],
              method: str = "bilinear") -> np.ndarray:
    """Convenience: one-off resize of an arbitrary frame."""
    scaler = VideoScaler(in_shape=frame.shape[:2], out_shape=shape,
                         method=method)
    return scaler.scale(frame)
