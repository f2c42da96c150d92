"""Stacked transforms: bitwise parity, frame-axis semantics, edge cases."""

import numpy as np
import pytest

from repro.dtcwt import Dtcwt2D
from repro.dtcwt.backend import KernelBackend
from repro.dtcwt.util import as_float_image, crop_to, pad_to_multiple
from repro.errors import TransformError
from repro.hw.registry import create_engine


def frame_stack(rng, n=4, shape=(40, 40)):
    return rng.standard_normal((n,) + shape) * 40.0 + 100.0


class TestForwardBatchParity:
    """The core invariant: stacked == per-frame, bit for bit."""

    @pytest.mark.parametrize("engine_name", ["arm", "neon", "fpga"])
    def test_bitwise_identical_to_per_frame(self, rng, engine_name):
        frames = frame_stack(rng, n=3)
        engine = create_engine(engine_name)
        batched = engine.transform(levels=2).forward(frames)
        serial = engine.transform(levels=2)
        for i in range(3):
            pyr = serial.forward(frames[i])
            got = batched[i]
            assert np.array_equal(pyr.lowpass, got.lowpass)
            for a, b in zip(pyr.highpasses, got.highpasses):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("engine_name", ["arm", "neon", "fpga"])
    def test_inverse_batch_bitwise_identical(self, rng, engine_name):
        frames = frame_stack(rng, n=3)
        engine = create_engine(engine_name)
        t = engine.transform(levels=2)
        stack = t.forward(frames)
        rec_stack = t.inverse(stack)
        serial = engine.transform(levels=2)
        for i in range(3):
            rec = serial.inverse(serial.forward(frames[i]))
            assert np.array_equal(rec, rec_stack[i])

    def test_roundtrip_default_backend(self, rng):
        frames = frame_stack(rng, n=5, shape=(48, 64))
        t = Dtcwt2D(levels=3)
        rec = t.inverse(t.forward(frames))
        assert rec.shape == frames.shape
        assert np.max(np.abs(rec - frames)) < 1e-9

    def test_odd_sizes_pad_and_crop(self, rng):
        frames = rng.standard_normal((3, 35, 35))
        t = Dtcwt2D(levels=3)
        stack = t.forward(frames)
        rec = t.inverse(stack)
        assert rec.shape == (3, 35, 35)
        assert np.max(np.abs(rec - frames)) < 1e-9

    def test_single_frame_batch_matches_forward(self, rng):
        frame = rng.standard_normal((40, 40))
        t = Dtcwt2D(levels=2)
        pyr = t.forward(frame)
        stack = t.forward(frame[None])
        assert stack.frames == (1,) and pyr.frames == ()
        assert np.array_equal(stack[0].lowpass, pyr.lowpass)
        assert t.inverse(stack).shape == (1, 40, 40)
        assert t.inverse(pyr).shape == (40, 40)

    def test_float32_backend_stays_float32(self, rng):
        frames = frame_stack(rng, n=2).astype(np.float32)
        t = Dtcwt2D(levels=2, backend=KernelBackend(dtype=np.float32))
        rec = t.inverse(t.forward(frames))
        assert rec.dtype == np.float32


class TestPyramidStack:
    def test_shapes_and_count(self, rng):
        stack = Dtcwt2D(levels=3).forward(frame_stack(rng, n=4,
                                                      shape=(72, 88)))
        assert stack.frames == (4,)
        assert stack.lowpass.shape == (2, 2, 4, 9, 11)
        assert [h.shape for h in stack.highpasses] == [
            (6, 4, 36, 44), (6, 4, 18, 22), (6, 4, 9, 11)]

    def test_getitem_is_a_view(self, rng):
        stack = Dtcwt2D(levels=2).forward(frame_stack(rng))
        frame = stack[1]
        frame.highpasses[0][:] = 0
        assert np.max(np.abs(stack.highpasses[0][:, 1])) == 0

    def test_getitem_bounds(self, rng):
        stack = Dtcwt2D(levels=2).forward(frame_stack(rng, n=2))
        with pytest.raises(TransformError):
            stack[2]
        with pytest.raises(IndexError):
            stack[2]  # also an IndexError: iteration terminates cleanly
        assert stack[-1].lowpass.shape == stack[0].lowpass.shape

    def test_stack_is_iterable(self, rng):
        stack = Dtcwt2D(levels=2).forward(frame_stack(rng, n=3))
        pyramids = list(stack)
        assert len(pyramids) == 3
        assert all(p.levels == 2 for p in pyramids)

    def test_slice_views_a_frame_range(self, rng):
        frames = frame_stack(rng, n=6)
        stack = Dtcwt2D(levels=2).forward(frames)
        sub = stack[2:5]
        assert sub.frames == (3,)
        assert np.array_equal(sub.lowpass, stack.lowpass[:, :, 2:5])
        assert np.shares_memory(sub.highpasses[0], stack.highpasses[0])

    def test_single_frame_pyramid_is_not_indexable(self, rng):
        pyr = Dtcwt2D(levels=2).forward(rng.standard_normal((16, 16)))
        assert pyr.frames == ()
        with pytest.raises(TransformError, match="single-frame") as info:
            pyr[0]
        assert not isinstance(info.value, IndexError)
        with pytest.raises(TransformError):
            list(pyr)  # iteration fails loudly instead of yielding nothing

    def test_copy_is_deep(self, rng):
        stack = Dtcwt2D(levels=1).forward(frame_stack(rng, n=2,
                                                      shape=(16, 16)))
        dup = stack.copy()
        dup.highpasses[0][:] = 0
        assert np.max(np.abs(stack.highpasses[0])) > 0

    def test_level_mismatch_raises(self, rng):
        stack = Dtcwt2D(levels=2).forward(frame_stack(rng, n=2))
        with pytest.raises(TransformError):
            Dtcwt2D(levels=3).inverse(stack)


class TestStackValidation:
    def test_rejects_1d_and_4d(self, rng):
        t = Dtcwt2D(levels=2)
        with pytest.raises(TransformError, match="got shape"):
            t.forward(rng.standard_normal(32))
        with pytest.raises(TransformError, match="got shape"):
            t.forward(rng.standard_normal((2, 2, 32, 32)))

    def test_rejects_empty_stack(self):
        with pytest.raises(TransformError, match="empty"):
            as_float_image(np.empty((0, 8, 8)))
        with pytest.raises(TransformError, match="empty"):
            Dtcwt2D(levels=1).forward(np.empty((0, 8, 8)))

    def test_accepts_frame_lists(self, rng):
        frames = [rng.standard_normal((16, 16)) for _ in range(3)]
        assert Dtcwt2D(levels=1).forward(frames).frames == (3,)


class TestPolymorphicUtils:
    def test_pad_to_multiple_stacked_equals_per_frame(self, rng):
        frames = rng.standard_normal((3, 35, 37))
        padded, original = pad_to_multiple(frames, 8)
        assert original == (35, 37)
        assert padded.shape == (3, 40, 40)
        for i in range(3):
            alone, _ = pad_to_multiple(frames[i], 8)
            assert np.array_equal(padded[i], alone)

    def test_crop_to_trailing_axes(self, rng):
        frames = rng.standard_normal((3, 40, 40))
        cropped = crop_to(frames, (35, 37))
        assert cropped.shape == (3, 35, 37)
