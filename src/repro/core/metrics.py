"""Image fusion quality metrics.

The paper motivates the DT-CWT by its fusion quality (better SNR and
perception than pyramid schemes, its references [2][4][12]); this module
provides the standard no-reference and reference-based metrics used in
that literature so the claim can be evaluated quantitatively:

* :func:`entropy` — information content of the fused image,
* :func:`mutual_information` — MI between each source and the fused
  result (the fusion-MI metric of Qu et al.),
* :func:`petrovic_qabf` — the Q^AB/F gradient-preservation metric
  (Xydeas & Petrovic), the de-facto standard for fusion benchmarks,
* :func:`ssim` — structural similarity against a reference,
* :func:`spatial_frequency`, :func:`average_gradient` — sharpness
  measures,
* :func:`psnr` — fidelity against a known ground truth.

:func:`fusion_report` and :func:`petrovic_qabf` take one 2-D frame
per argument, or B frames per argument — a ``(B, H, W)`` array or a
sequence of B 2-D arrays — and then return one dict (one float) per
frame; the session grades each compute batch with one call.  Frames
are graded a few at a time (about 16k pixels per image, so two 88x72
frames per pass): every image's Sobel pass runs once (Q^AB/F and the
average gradient share the fused image's), all images are binned for
the mutual information in one call (the fused image's bins serve
every source), and each source's joint histograms for the pass are
one ``np.bincount``.

Every frame's numbers are bitwise those of grading it alone with
``np.histogram``, ``np.histogram2d`` and a Sobel pass per metric
(``tests/metrics_oracle.py`` keeps that frame-at-a-time form as the
reference), whatever the frame's dtype (it is graded in float64) and
memory layout.  The layout matters because NumPy lays out the
frame-at-a-time arrays like their input and sums an image in memory
order: a column-major frame (an FPGA lane's fused output) has its
whole-image sums added column by column, here too.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import FusionError


def _as_gray(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise FusionError(f"metrics expect 2-D images, got shape {arr.shape}")
    return arr


def _frames(image) -> Tuple[List[np.ndarray], bool]:
    """An image argument as its list of 2-D frames, and whether it
    holds B frames: a ``(B, H, W)`` array or a sequence of 2-D arrays
    does, anything else is one 2-D frame."""
    if (isinstance(image, (list, tuple)) and image
            and all(isinstance(frame, np.ndarray) for frame in image)):
        return list(image), True
    arr = np.asarray(image)
    return (list(arr), True) if arr.ndim == 3 else ([arr], False)


def _shape(image) -> tuple:
    """An image argument's shape: its array's, or ``(B, H, W)`` for a
    sequence of frames (None if the frames disagree)."""
    if isinstance(image, np.ndarray):
        return image.shape
    frames, stacked = _frames(image)
    if not stacked:
        return frames[0].shape
    shapes = {frame.shape for frame in frames}
    return (len(frames),) + shapes.pop() if len(shapes) == 1 else None


def check_shapes(what: str, **images: np.ndarray) -> None:
    """Raise :class:`FusionError` naming every shape unless all the
    named images (2-D frames, or B frames each) share one."""
    shapes = {name: _shape(image) for name, image in images.items()}
    if None in shapes.values() or len(set(shapes.values())) > 1:
        listed = ", ".join(
            f"{name} {shape if shape else 'frames of mixed shapes'}"
            for name, shape in shapes.items())
        raise FusionError(f"{what} needs equally shaped images, got {listed}")


def _layout(frame: np.ndarray) -> Tuple[bool, bool]:
    """Whether the frame-at-a-time metrics lay out (their Sobel
    arrays, their difference arrays) for ``frame`` column-major.

    A float64 frame is used as is, any other is cast in its own
    memory order.  Elementwise results follow their input's strides;
    ``np.pad`` keeps a column-major layout only for an F-contiguous
    array."""
    height, width = frame.shape
    by_column = (height > 1 and width > 1
                 and abs(frame.strides[0]) < abs(frame.strides[1]))
    if frame.dtype != np.float64:
        return by_column, by_column
    return (frame.flags.f_contiguous and not frame.flags.c_contiguous,
            by_column)


def _in_order(array: np.ndarray, by_column: bool) -> np.ndarray:
    """``array`` laid out column-major when ``by_column``, so that a
    whole-array sum adds in the frame-at-a-time order."""
    return np.asfortranarray(array) if by_column else array


#: pixels per image in one pass over a stack.  A pass's temporaries
#: stay a few hundred kB, so a batch reuses the same heap memory pass
#: after pass; batch-sized temporaries (MBs) would be handed back to
#: the OS after each call and faulted in again by the next
_PASS_PIXELS = 1 << 14


def _graded(what: str, grade, **images):
    """``grade`` over the images — one 2-D frame each, or B frames
    each (see :func:`_frames`) — a few frames per pass.  Each pass
    hands ``grade`` the edge-padded stack of every image's next
    frames (:func:`_padded`) and, per image, each frame's
    :func:`_layout`; it returns one value per frame.  Returns the
    list of values, or the one value of 2-D frames."""
    check_shapes(what, **images)
    split = [_frames(image) for image in images.values()]
    frames = [image_frames for image_frames, _ in split]
    if frames[0] and frames[0][0].ndim != 2:
        raise FusionError(f"{what} expects 2-D images or (B, H, W) stacks, "
                          f"got shape {_shape(next(iter(images.values())))}")
    pixels = frames[0][0].size if frames[0] else 1
    step = max(1, _PASS_PIXELS // max(1, pixels))
    values = []
    for start in range(0, len(frames[0]), step):
        part = [image_frames[start:start + step] for image_frames in frames]
        values += grade(_padded(part),
                        [[_layout(frame) for frame in image_frames]
                         for image_frames in part])
    return values if split[0][1] else values[0]


def _padded(images: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Every image's frames (all of one shape), image by image, as
    one float64 ``(k*B, H + 2, W + 2)`` stack edge-replicated by one
    pixel: ``np.pad(..., mode="edge")`` of each frame, in one
    buffer."""
    count = len(images[0])
    height, width = images[0][0].shape
    arr = np.empty((len(images) * count, height + 2, width + 2))
    interior = arr[:, 1:-1, 1:-1]
    for k, frames in enumerate(images):
        for i, frame in enumerate(frames):
            interior[k * count + i] = frame
    arr[:, 0, 1:-1] = arr[:, 1, 1:-1]
    arr[:, -1, 1:-1] = arr[:, -2, 1:-1]
    arr[:, :, 0] = arr[:, :, 1]
    arr[:, :, -1] = arr[:, :, -2]
    return arr


def _split(stack: np.ndarray, count: int) -> List[np.ndarray]:
    """A ``(k*B, ...)`` stack as its k consecutive B-frame stacks."""
    return [stack[k:k + count] for k in range(0, len(stack), count)]


def _frame_sums(values: np.ndarray, mask: np.ndarray) -> List[float]:
    """``np.sum`` of each frame's run of ``values``: the entries that
    ``mask`` (``(B, ...)``) selects in that frame, in order, each run
    summed as its own contiguous array."""
    counts = mask.reshape(len(mask), -1).sum(axis=1)
    ends = np.cumsum(counts)
    return [np.sum(values[end - n:end]) for end, n in zip(ends, counts)]


def _bin_index(samples: np.ndarray, bins: int,
               joint: bool = False) -> np.ndarray:
    """The bin of every pixel of each frame of ``samples``
    (``(B, H, W)``) among ``bins`` equal bins over that frame's own
    range, as ``np.histogram`` bins it — or, with ``joint``, as
    ``np.histogram2d`` does.

    The edges are ``np.linspace(min, max, bins + 1)``, widened by 0.5
    either side for a constant frame; a pixel on an inner edge falls
    in the bin above it, one on the last edge in the last bin.  The
    index is ``np.histogram``'s uniform-bin formula, then one step of
    its correction against the edges.  ``np.histogram`` refuses a
    range so narrow that rounding makes neighbouring edges equal
    (:class:`FusionError` here); ``np.histogram2d`` bins it with
    ``searchsorted``, so ``joint`` repeats the correction until every
    pixel lies within its bin's edges.
    """
    lo = samples.min(axis=(1, 2))
    hi = samples.max(axis=(1, 2))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise FusionError("metrics need finite images")
    flat = lo == hi
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    edges = np.array([np.linspace(first, last, bins + 1)
                      for first, last in zip(lo, hi)])
    if not joint and (edges[:, :-1] >= edges[:, 1:]).any():
        raise FusionError(f"an image's range is too narrow for {bins} "
                          f"finite-sized histogram bins")
    edges = edges.reshape(-1)
    scaled = samples - lo[:, None, None]
    scaled /= (hi - lo)[:, None, None]
    scaled *= bins
    idx = scaled.astype(np.intp)
    np.minimum(idx, bins - 1, out=idx)
    # idx + row is the flat position of the bin's lower edge in edges;
    # a pixel below its lower edge cannot also be at or above its upper
    # one, so both corrections of a step read the same estimate
    row = (np.arange(len(samples)) * (bins + 1))[:, None, None]
    upper = edges[1:]
    while True:
        pos = idx + row
        low = samples < np.take(edges, pos, out=scaled)
        high = samples >= np.take(upper, pos, out=scaled)
        high &= idx != bins - 1
        idx -= low
        idx += high
        if not (joint and (low.any() or high.any())):
            return idx


def _entropies(stack: np.ndarray, bins: int = 256) -> List[float]:
    """Shannon entropy of each frame's intensity histogram, in bits."""
    count = len(stack)
    idx = _bin_index(stack, bins)
    idx += (np.arange(count) * bins)[:, None, None]
    hist = np.bincount(idx.ravel(), minlength=count * bins).reshape(
        count, bins)
    occupied = hist > 0
    p = hist[occupied] / stack[0].size
    return [float(-total)
            for total in _frame_sums(p * np.log2(p), occupied)]


def _mutual_informations(x_idx: np.ndarray, y_idx: np.ndarray,
                         bins: int) -> List[float]:
    """Per-frame mutual information of two binned stacks (bin indices
    from :func:`_bin_index`), in bits: every frame's joint histogram
    from one ``np.bincount``."""
    count = len(x_idx)
    cells = x_idx * bins
    cells += y_idx
    cells += (np.arange(count) * (bins * bins))[:, None, None]
    pxy = np.bincount(cells.ravel(), minlength=count * bins * bins)
    pxy = pxy.reshape(count, bins, bins) / x_idx[0].size
    px = pxy.sum(axis=2, keepdims=True)
    py = pxy.sum(axis=1, keepdims=True)
    mask = pxy > 0
    p = pxy[mask]
    terms = p * np.log2(p / (px * py)[mask])
    return [float(total) for total in _frame_sums(terms, mask)]


def _fusion_mutual_informations(images: np.ndarray, count: int,
                                 bins: int = 64) -> List[float]:
    """MI(S;F) summed over the sources, per frame.  ``images`` stacks
    every source's ``count`` frames, then the fused ones; every
    image is binned in one call."""
    *sources, fused = _split(_bin_index(images, bins, joint=True), count)
    per_source = [_mutual_informations(source, fused, bins)
                  for source in sources]
    return [reduce(operator.add, values) for values in zip(*per_source)]


def entropy(image: np.ndarray, bins: int = 256) -> float:
    """Shannon entropy of the intensity histogram, in bits."""
    return _entropies(_as_gray(image)[None], bins)[0]


def mutual_information(a: np.ndarray, b: np.ndarray, bins: int = 64) -> float:
    """Mutual information between two images, in bits."""
    check_shapes("mutual information", a=a, b=b)
    a_idx, b_idx = _bin_index(np.stack([_as_gray(a), _as_gray(b)]), bins,
                              joint=True)
    return _mutual_informations(a_idx[None], b_idx[None], bins)[0]


def fusion_mutual_information(src_a: np.ndarray, src_b: np.ndarray,
                              fused: np.ndarray, bins: int = 64) -> float:
    """MI-based fusion quality: MI(A;F) + MI(B;F) (Qu et al.)."""
    check_shapes("fusion mutual information",
                 src_a=src_a, src_b=src_b, fused=fused)
    images = np.stack([_as_gray(image) for image in (src_a, src_b, fused)])
    return _fusion_mutual_informations(images, 1, bins)[0]


def _sobel(padded: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sobel gradient magnitude and orientation of every frame of an
    edge-padded stack (see :func:`_padded`).

    Each column (row) difference is taken once and shared by the three
    rows (columns) of the kernel that read it; the sums keep the
    kernel's order (centre times two, then the two sides)."""
    dx = padded[:, :, 2:] - padded[:, :, :-2]
    gx = dx[:, 1:-1] * 2.0
    gx += dx[:, :-2]
    gx += dx[:, 2:]
    dy = padded[:, 2:] - padded[:, :-2]
    gy = dy[:, :, 1:-1] * 2.0
    gy += dy[:, :, :-2]
    gy += dy[:, :, 2:]
    ang = gx + 1e-12
    np.arctan2(gy, ang, out=ang)
    return np.hypot(gx, gy, out=gx), ang


def _edge_preservation(gs, as_, gf, af):
    """Per-pixel preservation of one source's edges in the fused image:
    the gradient-strength term (the weaker magnitude over the
    stronger, 0 where both are 0) times the orientation term, both
    sharpened by the standard sigmoids.  Evaluated in place,
    operation for operation as
    ``0.9994 / (1 + exp(-15 (ratio - 0.5)))`` and
    ``0.9879 / (1 + exp(-22 (1 - 2 delta / pi - 0.8)))``."""
    qg = np.maximum(gs, gf)
    np.maximum(qg, 1e-12, out=qg)
    np.divide(np.minimum(gs, gf), qg, out=qg)
    qg -= 0.5
    qg *= -15.0
    np.exp(qg, out=qg)
    qg += 1.0
    np.divide(0.9994, qg, out=qg)
    qa = np.subtract(as_, af)
    np.abs(qa, out=qa)
    np.minimum(qa, np.pi - np.minimum(qa, np.pi), out=qa)
    qa *= 2.0
    qa /= np.pi
    np.subtract(1.0, qa, out=qa)
    qa -= 0.8
    qa *= -22.0
    np.exp(qa, out=qa)
    qa += 1.0
    np.divide(0.9879, qa, out=qa)
    qg *= qa
    return qg


def _edges(padded: np.ndarray,
           count: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The Sobel (magnitude, orientation) stack pair of each
    ``count``-frame image in an edge-padded stack."""
    mag, ang = _sobel(padded)
    return list(zip(_split(mag, count), _split(ang, count)))


def _qabf(sources, fused, layouts) -> List[float]:
    """Q^AB/F per frame from the sources' and the fused image's Sobel
    (magnitude, orientation) stack pairs; ``layouts`` holds every
    image's frame layouts, sources first (see :func:`_layout`)."""
    gf, af = fused
    weighted = []
    for gs, as_ in sources:
        q = _edge_preservation(gs, as_, gf, af)
        q *= gs
        weighted.append(q)
    numerator = reduce(np.add, weighted)
    weights = reduce(np.add, [gs for gs, _ in sources])
    values = []
    for i, (num, weight) in enumerate(zip(numerator, weights)):
        # a sum of arrays is column-major only if every operand is
        columns = [image[i][0] for image in layouts]
        total = np.sum(_in_order(weight, all(columns[:-1])))
        values.append(0.0 if total <= 0.0 else
                      float(np.sum(_in_order(num, all(columns))) / total))
    return values


def _qabf_pass(padded: np.ndarray, layouts) -> List[float]:
    *sources, fused = _edges(padded, len(layouts[0]))
    return _qabf(sources, fused, layouts)


def petrovic_qabf(src_a: np.ndarray, src_b: np.ndarray, fused: np.ndarray):
    """Q^AB/F edge-transfer metric (Xydeas & Petrovic, 2000).

    Measures how much of each source's gradient strength and
    orientation survives into the fused image, weighted by source edge
    strength.  1.0 means perfect edge transfer.  2-D frames give one
    float; B frames per argument give a list of B floats.
    """
    return _graded("Q^AB/F", _qabf_pass, src_a=src_a, src_b=src_b,
                   fused=fused)


def ssim(a: np.ndarray, b: np.ndarray, data_range: float = None,
         window: int = 7) -> float:
    """Mean structural similarity (uniform window variant)."""
    a = _as_gray(a)
    b = _as_gray(b)
    if a.shape != b.shape:
        raise FusionError("SSIM needs equally shaped images")
    if data_range is None:
        data_range = max(a.max() - a.min(), b.max() - b.min(), 1e-12)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    def box(x):
        out = np.zeros_like(x)
        half = window // 2
        count = 0
        for dy in range(-half, half + 1):
            for dx in range(-half, half + 1):
                out += np.roll(np.roll(x, dy, axis=0), dx, axis=1)
                count += 1
        return out / count

    mu_a, mu_b = box(a), box(b)
    var_a = box(a * a) - mu_a ** 2
    var_b = box(b * b) - mu_b ** 2
    cov = box(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def _spatial_frequencies(stack: np.ndarray,
                         by_column: Sequence[bool]) -> List[float]:
    """Row/column frequency of each frame of a ``(B, H, W)`` stack,
    each frame's means added in its ``by_column`` order."""
    rows = np.diff(stack, axis=2) ** 2
    cols = np.diff(stack, axis=1) ** 2
    return [float(np.sqrt(np.mean(_in_order(row, column))
                          + np.mean(_in_order(col, column))))
            for row, col, column in zip(rows, cols, by_column)]


def spatial_frequency(image: np.ndarray) -> float:
    """Row/column frequency measure of overall activity (sharpness)."""
    arr = _as_gray(image)
    return _spatial_frequencies(arr[None], [_layout(arr)[1]])[0]


def _average_gradient_pass(padded: np.ndarray, layouts) -> List[float]:
    mag, _ = _sobel(padded)
    return [float(np.mean(_in_order(m, sobel)))
            for m, (sobel, _) in zip(mag, layouts[0])]


def average_gradient(image: np.ndarray) -> float:
    """Mean Sobel gradient magnitude."""
    return _graded("average gradient", _average_gradient_pass,
                   image=_as_gray(image))


def psnr(reference: np.ndarray, image: np.ndarray,
         data_range: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB against a reference."""
    ref = _as_gray(reference)
    img = _as_gray(image)
    if ref.shape != img.shape:
        raise FusionError("PSNR needs equally shaped images")
    mse = float(np.mean((ref - img) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range ** 2 / mse))


def _report(padded: np.ndarray, layouts) -> List[dict]:
    count = len(layouts[0])
    images = padded[:, 1:-1, 1:-1]
    fused = images[-count:]
    *source_edges, fused_edges = _edges(padded, count)
    entropies = _entropies(fused)
    mis = _fusion_mutual_informations(images, count)
    qabfs = _qabf(source_edges, fused_edges, layouts)
    frequencies = _spatial_frequencies(
        fused, [diff for _, diff in layouts[-1]])
    gradients = [float(np.mean(_in_order(mag, sobel)))
                 for mag, (sobel, _) in zip(fused_edges[0], layouts[-1])]
    return [{"entropy": entropies[i],
             "mutual_information": mis[i],
             "qabf": qabfs[i],
             "spatial_frequency": frequencies[i],
             "average_gradient": gradients[i]}
            for i in range(count)]


def fusion_report(src_a: np.ndarray, src_b: np.ndarray, fused: np.ndarray):
    """All no-reference fusion metrics in one dictionary.

    2-D frames give one dict; B frames per argument give a list of B
    dicts, one per frame, each bitwise what its frame alone gives.
    """
    return _graded("fusion report", _report, src_a=src_a, src_b=src_b,
                   fused=fused)
