"""Per-frame fusion quality metrics: the oracle for the batched ones.

This is the original frame-at-a-time implementation of
:func:`repro.core.metrics.fusion_report` and the metrics it is made
of, kept verbatim in behaviour: ``np.histogram`` for the entropy,
two ``np.histogram2d`` calls for the fusion mutual information, and a
Sobel pass per image and per metric (the fused image's Sobel runs
twice, once for Q^AB/F and once for the average gradient).  The
differential tests check that the stacked metrics in ``src/`` return
the same floats, bit for bit, for every frame of every stack.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FusionError


def _as_gray(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise FusionError(f"metrics expect 2-D images, got shape {arr.shape}")
    return arr


def oracle_entropy(image: np.ndarray, bins: int = 256) -> float:
    """Shannon entropy of the intensity histogram, in bits."""
    arr = _as_gray(image)
    hist, _ = np.histogram(arr, bins=bins)
    p = hist.astype(np.float64)
    p = p[p > 0]
    p /= p.sum()
    return float(-np.sum(p * np.log2(p)))


def oracle_mutual_information(a: np.ndarray, b: np.ndarray,
                              bins: int = 64) -> float:
    """Mutual information between two images, in bits."""
    a = _as_gray(a).ravel()
    b = _as_gray(b).ravel()
    if a.size != b.size:
        raise FusionError("mutual information needs equally sized images")
    joint, _, _ = np.histogram2d(a, b, bins=bins)
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    return float(np.sum(pxy[mask] * np.log2(pxy[mask] / (px @ py)[mask])))


def oracle_fusion_mutual_information(src_a: np.ndarray, src_b: np.ndarray,
                                     fused: np.ndarray,
                                     bins: int = 64) -> float:
    """MI-based fusion quality: MI(A;F) + MI(B;F) (Qu et al.)."""
    return (oracle_mutual_information(src_a, fused, bins)
            + oracle_mutual_information(src_b, fused, bins))


def _sobel(image: np.ndarray):
    """Sobel gradient magnitude and orientation (edge-replicated)."""
    arr = np.pad(_as_gray(image), 1, mode="edge")
    gx = (arr[1:-1, 2:] - arr[1:-1, :-2]) * 2.0 \
        + (arr[:-2, 2:] - arr[:-2, :-2]) \
        + (arr[2:, 2:] - arr[2:, :-2])
    gy = (arr[2:, 1:-1] - arr[:-2, 1:-1]) * 2.0 \
        + (arr[2:, :-2] - arr[:-2, :-2]) \
        + (arr[2:, 2:] - arr[:-2, 2:])
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx + 1e-12)
    return mag, ang


def oracle_petrovic_qabf(src_a: np.ndarray, src_b: np.ndarray,
                         fused: np.ndarray) -> float:
    """Q^AB/F edge-transfer metric (Xydeas & Petrovic, 2000)."""
    ga, aa = _sobel(src_a)
    gb, ab = _sobel(src_b)
    gf, af = _sobel(fused)

    def edge_preservation(gs, as_, gf_, af_):
        with np.errstate(divide="ignore", invalid="ignore"):
            g_ratio = np.where(gs > gf_,
                               np.where(gs > 0, gf_ / np.maximum(gs, 1e-12), 0.0),
                               np.where(gf_ > 0, gs / np.maximum(gf_, 1e-12), 0.0))
        delta = np.abs(as_ - af_)
        delta = np.minimum(delta, np.pi - np.minimum(delta, np.pi))
        a_pres = 1.0 - 2.0 * delta / np.pi
        # the standard sigmoidal sharpening of both preservation terms
        qg = 0.9994 / (1.0 + np.exp(-15.0 * (g_ratio - 0.5)))
        qa = 0.9879 / (1.0 + np.exp(-22.0 * (a_pres - 0.8)))
        return qg * qa

    qaf = edge_preservation(ga, aa, gf, af)
    qbf = edge_preservation(gb, ab, gf, af)
    weights = ga + gb
    total = np.sum(weights)
    if total <= 0.0:
        return 0.0
    return float(np.sum(qaf * ga + qbf * gb) / total)


def oracle_spatial_frequency(image: np.ndarray) -> float:
    """Row/column frequency measure of overall activity (sharpness)."""
    arr = _as_gray(image)
    row = np.diff(arr, axis=1)
    col = np.diff(arr, axis=0)
    return float(np.sqrt(np.mean(row ** 2) + np.mean(col ** 2)))


def oracle_average_gradient(image: np.ndarray) -> float:
    """Mean Sobel gradient magnitude."""
    mag, _ = _sobel(image)
    return float(np.mean(mag))


def oracle_fusion_report(src_a: np.ndarray, src_b: np.ndarray,
                         fused: np.ndarray) -> dict:
    """All no-reference fusion metrics in one dictionary."""
    return {
        "entropy": oracle_entropy(fused),
        "mutual_information": oracle_fusion_mutual_information(
            src_a, src_b, fused),
        "qabf": oracle_petrovic_qabf(src_a, src_b, fused),
        "spatial_frequency": oracle_spatial_frequency(fused),
        "average_gradient": oracle_average_gradient(fused),
    }
