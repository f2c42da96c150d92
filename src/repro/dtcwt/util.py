"""Low-level signal helpers for the wavelet substrate.

All transforms in :mod:`repro.dtcwt` use **periodic (circular) extension**.
Circular convolution makes perfect reconstruction a matter of linear
algebra: the synthesis operator is the exact transpose of the analysis
operator, so an orthonormal filter bank reconstructs to machine precision
with no boundary bookkeeping.  The price is wrap-around at frame borders,
which is acceptable for the small frames the paper evaluates (see
DESIGN.md, "Key design decisions").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import TransformError


def as_float_image(image: np.ndarray, dtype: np.dtype = np.float64) -> np.ndarray:
    """Validate and convert one image ``(H, W)`` or a frame stack
    ``(N, H, W)`` to a floating point array.

    Accepts anything :func:`numpy.asarray` turns into such an array (a
    list of same-shape 2-D frames included); a stack is transformed in
    single NumPy calls, so it must be rectangular.
    """
    arr = np.asarray(image)
    if arr.ndim not in (2, 3):
        raise TransformError(
            f"expected a 2-D image or an (N, H, W) frame stack, got "
            f"shape {arr.shape}")
    if arr.size == 0:
        raise TransformError(f"cannot transform an empty image, got "
                             f"shape {arr.shape}")
    return arr.astype(dtype, copy=False)


def pad_to_multiple(
    image: np.ndarray, multiple: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Edge-replicate pad so the two trailing dimensions divide ``multiple``.

    Shape-polymorphic: a single image ``(H, W)`` or any stack
    ``(..., H, W)`` — every leading frame is padded identically, which
    is what keeps batched transforms bitwise-equal to per-frame ones.
    Returns the padded array and the original ``(rows, cols)`` so the
    caller can crop after an inverse transform.  The paper's odd 35x35
    sweep point is handled this way by the functional transform path
    (the analytic timing model keeps using the true size; see DESIGN.md).
    """
    rows, cols = image.shape[-2:]
    pad_r = (-rows) % multiple
    pad_c = (-cols) % multiple
    if pad_r == 0 and pad_c == 0:
        return image, (rows, cols)
    pad = ((0, 0),) * (image.ndim - 2) + ((0, pad_r), (0, pad_c))
    padded = np.pad(image, pad, mode="edge")
    return padded, (rows, cols)


def crop_to(image: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """Crop the trailing two axes back to ``shape`` (inverse of
    :func:`pad_to_multiple`); leading (batch) axes pass through."""
    rows, cols = shape
    return image[..., :rows, :cols]


def group_delay(taps: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Group delay (in samples) of an FIR filter at angular frequencies.

    Uses the exact identity tau(w) = Re( H'(w) / H(w) ) where
    ``H(w) = sum_n h[n] e^{-jwn}`` and ``H'`` is the derivative filter
    ``n * h[n]``.  Frequencies where ``|H|`` is tiny return NaN.
    """
    taps = np.asarray(taps, dtype=np.float64)
    n = np.arange(len(taps))
    expo = np.exp(-1j * np.outer(omegas, n))
    h_resp = expo @ taps
    dh_resp = expo @ (n * taps)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.real(dh_resp / h_resp)
    tau[np.abs(h_resp) < 1e-9] = np.nan
    return tau


def is_orthonormal_filter(taps: np.ndarray, tol: float = 1e-10) -> bool:
    """Check the even-shift orthonormality condition sum h[n]h[n+2k] = delta_k."""
    taps = np.asarray(taps, dtype=np.float64)
    length = len(taps)
    for lag in range(0, length, 2):
        acc = float(np.dot(taps[: length - lag], taps[lag:]))
        target = 1.0 if lag == 0 else 0.0
        if abs(acc - target) > tol:
            return False
    return True
