"""Dependency-free image and data I/O.

The paper's demo displays frames through OpenCV; this reproduction has
no imaging dependency, so it reads and writes the Netpbm formats every
viewer understands:

* PGM (P5) — 8-bit grayscale, used for captured/fused frames,
* PPM (P6) — 24-bit color, used for the colorized fusion overlay,
* plus a raw little-endian float dump for coefficient archives.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from .errors import VideoError

PathLike = Union[str, Path]


def _clip_u8(image: np.ndarray) -> np.ndarray:
    return np.clip(np.round(np.asarray(image, dtype=np.float64)),
                   0, 255).astype(np.uint8)


#: Netpbm magic of each binary 8-bit format this module handles.
_KINDS = {b"P5": "PGM", b"P6": "PPM"}


def _write_netpbm(path: PathLike, magic: bytes, data: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def _read_netpbm(path: PathLike, magic: bytes,
                 channels: int) -> np.ndarray:
    """Pixels of a binary 8-bit Netpbm file: ``(rows, cols)`` for one
    channel, else ``(rows, cols, channels)``.  Header comments are
    skipped."""
    kind = _KINDS[magic]
    raw = Path(path).read_bytes()
    found, rest = raw.split(b"\n", 1)
    if found.strip() != magic:
        raise VideoError(f"{path}: not a binary {kind} (magic {found!r})")
    fields = []
    while len(fields) < 3:
        line, rest = rest.split(b"\n", 1)
        line = line.split(b"#")[0].strip()
        if line:
            fields.extend(line.split())
    cols, rows, maxval = (int(v) for v in fields[:3])
    if maxval != 255:
        raise VideoError(
            f"{path}: only 8-bit {kind} supported, maxval={maxval}")
    count = rows * cols * channels
    pixels = np.frombuffer(rest[:count], dtype=np.uint8)
    if pixels.size != count:
        raise VideoError(f"{path}: truncated pixel data")
    shape = (rows, cols) if channels == 1 else (rows, cols, channels)
    return pixels.reshape(shape).copy()


def write_pgm(path: PathLike, image: np.ndarray) -> None:
    """Write an 8-bit grayscale PGM (binary P5)."""
    data = _clip_u8(image)
    if data.ndim != 2:
        raise VideoError(f"PGM wants a 2-D image, got shape {data.shape}")
    _write_netpbm(path, b"P5", data)


def read_pgm(path: PathLike) -> np.ndarray:
    """Read a binary (P5) PGM written by :func:`write_pgm`."""
    return _read_netpbm(path, b"P5", 1)


def write_ppm(path: PathLike, image: np.ndarray) -> None:
    """Write a 24-bit color PPM (binary P6), channels-last RGB."""
    data = _clip_u8(image)
    if data.ndim != 3 or data.shape[2] != 3:
        raise VideoError(f"PPM wants (H, W, 3), got shape {data.shape}")
    _write_netpbm(path, b"P6", data)


def read_ppm(path: PathLike) -> np.ndarray:
    """Read a binary (P6) PPM written by :func:`write_ppm`."""
    return _read_netpbm(path, b"P6", 3)


def write_float_raw(path: PathLike, array: np.ndarray) -> None:
    """Dump an array as little-endian float32 with a tiny header.

    Header: magic ``RPF1``, ndim, then each dimension as uint32 —
    enough to archive coefficient pyramids without pickling.
    """
    arr = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"RPF1")
        fh.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(arr.tobytes())


def read_float_raw(path: PathLike) -> np.ndarray:
    """Read an array written by :func:`write_float_raw`."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RPF1":
        raise VideoError(f"{path}: bad magic {raw[:4]!r}")
    ndim = struct.unpack("<I", raw[4:8])[0]
    shape: Tuple[int, ...] = tuple(
        struct.unpack("<I", raw[8 + 4 * i: 12 + 4 * i])[0]
        for i in range(ndim)
    )
    offset = 8 + 4 * ndim
    count = int(np.prod(shape)) if shape else 0
    data = np.frombuffer(raw[offset:], dtype="<f4", count=count)
    return data.reshape(shape).copy()


def colorize_fusion(fused_luma: np.ndarray,
                    thermal: np.ndarray,
                    alpha: float = 0.5) -> np.ndarray:
    """Classic hot-overlay display: fused luma + thermal-driven chroma.

    The fused image carries the detail; the thermal intensity tints hot
    regions toward red/yellow the way fusion demos (including the
    paper's Fig. 8 video) present results.  Returns (H, W, 3) uint8.
    """
    if not 0.0 <= alpha <= 1.0:
        raise VideoError(f"alpha must be within [0, 1], got {alpha}")
    luma = _clip_u8(fused_luma).astype(np.float64)
    heat = _clip_u8(thermal).astype(np.float64) / 255.0
    if luma.shape != heat.shape:
        raise VideoError("fused and thermal frames must share a shape")
    red = luma + alpha * heat * (255.0 - luma)
    green = luma + alpha * np.clip(heat - 0.5, 0, 1) * (255.0 - luma)
    blue = luma * (1.0 - alpha * heat)
    return _clip_u8(np.stack([red, green, blue], axis=-1))
