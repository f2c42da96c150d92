"""Pluggable frame-group sources for the fusion session.

The session fuses *groups* of N >= 2 co-registered frames (a visible /
thermal pair by default); where those groups come from is a
:class:`FrameSource`.  New scenarios are new sources — not new system
classes:

* :class:`SyntheticSource` — renders the shared synthetic world
  directly in each modality (fast; no capture modelling);
* :class:`ArraySource` — replays N in-memory streams (recorded
  footage, test fixtures, frames fetched from elsewhere);
* :class:`CameraPairSource` — the webcam + thermal camera simulators,
  with sensor behaviour (auto-exposure, NETD noise, native geometries)
  but without the BT.656 transport;
* :class:`CaptureChainSource` — the paper's full Fig. 7 capture chain:
  webcam over USB, thermal as BT.656 bytes through the PL decoder
  model, scaler and handshaked FIFO.  This is what
  :meth:`FusionSession.run` uses, so batch runs exercise the same data
  path the hardware would.

Sources yield frames at whatever geometry they natively produce; the
session registers both modalities onto the configured fusion shape.

Naming note: :class:`repro.video.frames.FrameSource` is the older
*single-camera* interface (``capture()`` yields one
:class:`VideoFrame`); this module's :class:`FrameSource` streams
co-captured *frame groups*.  A single camera becomes session input by
pairing it with its counterpart — that is what
:class:`CameraPairSource` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import FusionError, VideoError
from ..graph.graph import forward_stage_names
from ..video.capture import CaptureChain
from ..video.scene import SyntheticScene
from ..video.thermal import ThermalCameraSimulator
from ..video.webcam import WebcamSimulator


def float_frame(image, index: int, source: str) -> np.ndarray:
    """``image`` as a float64 array, checked before the cast: only
    bool, int, uint and float data are intensities.  Complex frames
    would silently lose their imaginary part and string frames would
    fail inside NumPy, so both raise :class:`FusionError` naming the
    frame, the source and the dtype."""
    data = np.asarray(image)
    if data.dtype.kind not in "biuf":
        raise FusionError(
            f"frame {index}, source {source!r}: dtype {data.dtype} is "
            "not a real intensity type (bool, int, uint or float)")
    return data.astype(np.float64, copy=False)


def _check_2d(frames, index: int) -> None:
    """Reject a recorded frame that is not 2-D grayscale."""
    for frame, source in zip(frames, forward_stage_names(len(frames))):
        if frame.ndim != 2:
            raise VideoError(
                f"frame {index}, source {source!r}: array frames must "
                f"be 2-D grayscale, got shape {frame.shape}")


@dataclass
class FrameGroup:
    """One co-captured group of N >= 2 source frames, as float arrays.

    ``frames[0]`` is the reference modality (visible by convention),
    ``frames[1]`` its primary counterpart (thermal); any further
    entries are additional co-registered modalities (depth, SWIR, a
    second thermal band).  The :attr:`visible` / :attr:`thermal`
    accessors keep the whole pairwise API working on any group.
    """

    frames: Tuple[np.ndarray, ...]
    timestamp_s: float = 0.0
    index: int = 0

    def __post_init__(self) -> None:
        self.frames = tuple(self.frames)
        if len(self.frames) < 2:
            raise FusionError(
                f"a FrameGroup needs >= 2 source frames, got "
                f"{len(self.frames)}")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def visible(self) -> np.ndarray:
        return self.frames[0]

    @visible.setter
    def visible(self, value: np.ndarray) -> None:
        self.frames = (value,) + self.frames[1:]

    @property
    def thermal(self) -> np.ndarray:
        return self.frames[1]

    @thermal.setter
    def thermal(self, value: np.ndarray) -> None:
        self.frames = self.frames[:1] + (value,) + self.frames[2:]


class FramePair(FrameGroup):
    """One co-captured (visible, thermal) pair — the N=2 group.

    Kept as the pairwise constructor so every existing source and call
    site is untouched; it *is* a :class:`FrameGroup` of length two.
    """

    def __init__(self, visible: np.ndarray, thermal: np.ndarray,
                 timestamp_s: float = 0.0, index: int = 0):
        super().__init__(frames=(visible, thermal),
                         timestamp_s=timestamp_s, index=index)


class FrameSource:
    """Stream interface the session consumes: an iterator of frame groups.

    Subclasses implement :meth:`frames`; it may be infinite (live
    cameras) or finite (recorded arrays).  Iterating the source object
    itself delegates to :meth:`frames`.

    Sources whose :meth:`close` really releases resources should set
    ``self.closed = True`` there: the executors check the flag before
    every pull, so closing such a source while a stream is still
    driving it fails loudly with :class:`FusionError` instead of
    replaying a dead device or deadlocking a capture thread against
    the bounded queues.  The default close is a no-op and leaves
    ``closed`` False, which is what keeps the built-in synthetic
    sources reusable across streams.
    """

    #: True once a resource-owning close() ran; executors refuse to
    #: pull from a closed source mid-drive
    closed: bool = False

    def frames(self) -> Iterator[FrameGroup]:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the source holds (files, devices, wrapped
        iterators).  Called by :meth:`FusionSession.stream` when a
        stream ends — normally, on error, or at an early ``limit``
        exit.  The default is a no-op so purely synthetic sources stay
        reusable across streams; stateful subclasses override it (and
        set ``self.closed = True``).
        """

    def __iter__(self) -> Iterator[FrameGroup]:
        return self.frames()

    def __enter__(self) -> "FrameSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SyntheticSource(FrameSource):
    """Render the shared scene straight into each modality.

    The cheapest source: no camera model, no transport — just the
    world sampled at ``fps``.  ``limit`` bounds the stream (``None``
    streams forever).  ``modalities`` selects which renders each
    :class:`FrameGroup` carries, in order — ``("visible", "thermal",
    "depth")`` makes this a three-source stream for N-way fusion;
    adding a modality leaves the earlier ones' frames unchanged.
    """

    def __init__(self, scene: Optional[SyntheticScene] = None,
                 seed: int = 2016, fps: float = 25.0,
                 limit: Optional[int] = None,
                 modalities: Sequence[str] = ("visible", "thermal")):
        if fps <= 0:
            raise VideoError(f"fps must be positive, got {fps}")
        if limit is not None and limit < 1:
            raise VideoError(f"limit must be >= 1 or None, got {limit}")
        if len(modalities) < 2:
            raise VideoError(
                f"SyntheticSource needs >= 2 modalities, got "
                f"{tuple(modalities)}")
        self.scene = scene if scene is not None else SyntheticScene(seed=seed)
        self.fps = fps
        self.limit = limit
        self.modalities = tuple(modalities)

    def frames(self) -> Iterator[FrameGroup]:
        index = 0
        while self.limit is None or index < self.limit:
            t_s = index / self.fps
            yield FrameGroup(
                frames=tuple(self.scene.render(m, t_s)
                             for m in self.modalities),
                timestamp_s=t_s, index=index)
            index += 1


class ArraySource(FrameSource):
    """Replay N >= 2 in-memory co-registered streams as frame groups.

    Each positional argument is one modality's frame sequence, in
    source order (``ArraySource(visible, thermal)`` for a pair), and
    group ``i`` is drawn from position ``i`` of every stream.

    Malformed *frames* (non-2-D data, empty streams, bad fps) raise
    :class:`VideoError` like every other source, and frames that are
    not real intensities (complex, strings) raise :class:`FusionError`
    (see :func:`float_frame`); malformed *groupings* — unequal stream
    lengths, or a group whose frames disagree on shape — are
    fusion-contract violations and raise a :class:`FusionError` naming
    the offending index.  (The live camera sources legitimately yield
    differing native geometries that the session rescales; recorded
    arrays are expected to be co-registered already, so a shape
    mismatch here is a data bug, not a rig.)
    """

    def __init__(self, *streams: Sequence[np.ndarray],
                 fps: float = 25.0, loop: bool = False):
        if len(streams) < 2:
            raise VideoError(
                f"ArraySource needs >= 2 streams, got {len(streams)}")
        streams = tuple(
            [float_frame(f, i, source) for i, f in enumerate(stream)]
            for stream, source in zip(streams,
                                      forward_stage_names(len(streams))))
        # `any`, not `all`: a one-sided-empty recording is just as
        # unusable as a fully empty one, and must not fall through to
        # the confusing count-mismatch error below
        if any(not stream for stream in streams):
            raise VideoError("ArraySource needs at least one frame group")
        counts = tuple(len(stream) for stream in streams)
        if len(set(counts)) != 1:
            raise FusionError(
                f"ArraySource pairs streams frame-for-frame, but the "
                f"counts differ: {counts}")
        for index, group in enumerate(zip(*streams)):
            _check_2d(group, index)
            if len({frame.shape for frame in group}) != 1:
                raise FusionError(
                    f"frame group {index} mismatched: "
                    f"{tuple(frame.shape for frame in group)} — "
                    f"recorded arrays must be co-registered to a "
                    f"shared geometry")
        if fps <= 0:
            raise VideoError(f"fps must be positive, got {fps}")
        self.streams = streams
        self.fps = fps
        self.loop = loop

    def __len__(self) -> int:
        return len(self.streams[0])

    def frames(self) -> Iterator[FrameGroup]:
        count = len(self)
        index = 0
        while self.loop or index < count:
            slot = index % count
            yield FrameGroup(
                frames=tuple(stream[slot] for stream in self.streams),
                timestamp_s=index / self.fps,
                index=index,
            )
            index += 1


class CameraPairSource(FrameSource):
    """Webcam + thermal camera simulators, without the BT.656 link.

    Frames carry each sensor's native behaviour (auto-exposure,
    Bayer-ish chroma then BT.601 luma, microbolometer geometry and NETD
    noise); the BT.656 transport, decode and scaling are skipped — use
    :class:`CaptureChainSource` for the full Fig. 7 chain.
    """

    def __init__(self, scene: Optional[SyntheticScene] = None,
                 seed: int = 2016, thermal_profile: str = "microcam-384",
                 limit: Optional[int] = None):
        if limit is not None and limit < 1:
            raise VideoError(f"limit must be >= 1 or None, got {limit}")
        self.scene = scene if scene is not None else SyntheticScene(seed=seed)
        self.webcam = WebcamSimulator(self.scene)
        self.thermal = ThermalCameraSimulator(self.scene,
                                              profile=thermal_profile)
        self.limit = limit

    def frames(self) -> Iterator[FrameGroup]:
        index = 0
        while self.limit is None or index < self.limit:
            visible = self.webcam.capture_gray()
            thermal = self.thermal.capture()
            yield FramePair(
                visible=visible.as_float(),
                thermal=thermal.as_float(),
                timestamp_s=visible.timestamp_s,
                index=index,
            )
            index += 1


class CaptureChainSource(FrameSource):
    """The paper's complete capture substrate as a frame source.

    Visible frames arrive from the USB webcam simulator and are
    grayscaled on the PS; thermal frames are rendered, encoded as
    BT.656 bytes, decoded by the PL decoder model, scaled 720x243 ->
    640x480 and buffered through the handshaked output FIFO.  The
    wiring itself is the shared :class:`repro.video.CaptureChain`, and
    its decoder/FIFO statistics are exposed so reports can include
    transport health.

    Without ``frame_shape`` the pairs are the full Fig. 7 frames: the
    webcam's luma at its own geometry and the 480x640 thermal frame.
    With ``frame_shape`` (rows, cols) both come already resized to it,
    bit for bit the frames a session's bilinear resize makes of the
    full ones, computed from only the pixels that resize reads.
    """

    def __init__(self, scene: Optional[SyntheticScene] = None,
                 seed: int = 2016, fifo_capacity: int = 1,
                 frame_shape: Optional[Tuple[int, int]] = None):
        if scene is None:
            scene = SyntheticScene(seed=seed)
        self.chain = CaptureChain(scene=scene, fifo_capacity=fifo_capacity,
                                  frame_shape=frame_shape)
        self.scene = self.chain.scene

    # ------------------------------------------------------------------
    @property
    def fifo_dropped(self) -> int:
        return self.chain.fifo_dropped

    @property
    def decode_errors(self) -> int:
        return self.chain.decode_errors

    def frames(self) -> Iterator[FrameGroup]:
        index = 0
        while True:
            captured = self.chain.capture_pair()
            if captured is None:
                continue  # FIFO starved this field; capture the next
            visible, thermal = captured
            yield FramePair(
                visible=self.chain.visible_luma(visible),
                thermal=thermal.astype(np.float64, copy=False),
                timestamp_s=visible.timestamp_s,
                index=index,
            )
            index += 1


class ClosedAwareIterator:
    """A true iterator over one source's frames that still advertises
    the source's ``closed`` flag.

    :meth:`FusionSession.stream` hands this to the executor, so the
    documented ``Iterator`` contract of :meth:`repro.exec.Executor.run`
    holds for out-of-tree executors (``next()`` works, a single
    consumption position) while the drive can still see a mid-stream
    :meth:`FrameSource.close` and fail loudly.
    """

    __slots__ = ("_source", "_iterator")

    def __init__(self, source: FrameSource):
        self._source = source
        self._iterator = iter(source)

    @property
    def closed(self) -> bool:
        return bool(getattr(self._source, "closed", False))

    def __iter__(self) -> "ClosedAwareIterator":
        return self

    def __next__(self) -> FrameGroup:
        return next(self._iterator)


def as_frame_source(source) -> FrameSource:
    """Coerce plain iterables of frame tuples into a source.

    Accepts a :class:`FrameSource` (or anything with a ``frames()``
    method) unchanged, or any iterable yielding :class:`FrameGroup`
    objects (:class:`FramePair` included) or N-tuples of arrays, which
    become :class:`FrameGroup` s whatever N — so callers can stream
    generator expressions without wrapping them themselves.
    """
    if isinstance(source, FrameSource):
        return source
    if callable(getattr(source, "frames", None)):
        return _IterableSource(source.frames())  # structural match
    if callable(getattr(source, "capture", None)):
        raise VideoError(
            f"{type(source).__name__} looks like a single-camera "
            f"repro.video source; the session fuses pairs — wrap the "
            f"rig in a pair source such as CameraPairSource"
        )
    if isinstance(source, Iterable):
        return _IterableSource(source)
    raise VideoError(
        f"cannot stream from {type(source).__name__}; expected a "
        f"FrameSource or an iterable of (visible, thermal) pairs"
    )


class _IterableSource(FrameSource):
    """Adapter wrapping a plain iterable of groups."""

    def __init__(self, iterable: Iterable):
        self._iterable = iterable

    def close(self) -> None:
        """Close the wrapped iterator (a half-consumed generator's
        ``finally`` blocks run now, not at interpreter exit)."""
        self.closed = True
        closer = getattr(self._iterable, "close", None)
        if callable(closer):
            closer()

    def frames(self) -> Iterator[FrameGroup]:
        for index, item in enumerate(self._iterable):
            if isinstance(item, FrameGroup):
                yield item
            else:
                item = tuple(item)
                yield FrameGroup(frames=tuple(
                    float_frame(frame, index, source) for frame, source
                    in zip(item, forward_stage_names(len(item)))),
                    index=index)
