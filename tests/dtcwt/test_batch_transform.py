"""Batch-first transforms: bitwise parity, stack semantics, edge cases."""

import numpy as np
import pytest

from repro.dtcwt import Dtcwt2D, DtcwtPyramidStack
from repro.dtcwt.backend import KernelBackend
from repro.dtcwt.util import as_float_stack, crop_to, pad_to_multiple
from repro.errors import TransformError
from repro.hw.registry import create_engine


def frame_stack(rng, n=4, shape=(40, 40)):
    return rng.standard_normal((n,) + shape) * 40.0 + 100.0


class TestForwardBatchParity:
    """The tentpole invariant: batched == per-frame, bit for bit."""

    @pytest.mark.parametrize("engine_name", ["arm", "neon", "fpga"])
    def test_bitwise_identical_to_per_frame(self, rng, engine_name):
        frames = frame_stack(rng, n=3)
        engine = create_engine(engine_name)
        batched = engine.transform(levels=2).forward_batch(frames)
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
        stack = t.forward_batch(frames)
        rec_stack = t.inverse_batch(stack)
        serial = engine.transform(levels=2)
        for i in range(3):
            rec = serial.inverse(serial.forward(frames[i]))
            assert np.array_equal(rec, rec_stack[i])

    def test_roundtrip_default_backend(self, rng):
        frames = frame_stack(rng, n=5, shape=(48, 64))
        t = Dtcwt2D(levels=3)
        rec = t.inverse_batch(t.forward_batch(frames))
        assert rec.shape == frames.shape
        assert np.max(np.abs(rec - frames)) < 1e-9

    def test_odd_sizes_pad_and_crop(self, rng):
        frames = rng.standard_normal((3, 35, 35))
        t = Dtcwt2D(levels=3)
        stack = t.forward_batch(frames)
        rec = t.inverse_batch(stack)
        assert rec.shape == (3, 35, 35)
        assert np.max(np.abs(rec - frames)) < 1e-9

    def test_single_frame_batch_matches_forward(self, rng):
        frame = rng.standard_normal((40, 40))
        t = Dtcwt2D(levels=2)
        pyr = t.forward(frame)
        stack = t.forward_batch(frame[None])
        assert len(stack) == 1
        assert np.array_equal(stack[0].lowpass, pyr.lowpass)

    def test_float32_backend_stays_float32(self, rng):
        frames = frame_stack(rng, n=2).astype(np.float32)
        t = Dtcwt2D(levels=2, backend=KernelBackend(dtype=np.float32))
        rec = t.inverse_batch(t.forward_batch(frames))
        assert rec.dtype == np.float32


class TestPyramidStack:
    def test_shapes_and_count(self, rng):
        stack = Dtcwt2D(levels=3).forward_batch(frame_stack(rng, n=4,
                                                            shape=(72, 88)))
        assert stack.count == len(stack) == 4
        assert stack.lowpass.shape == (2, 2, 4, 9, 11)
        assert [h.shape for h in stack.highpasses] == [
            (6, 4, 36, 44), (6, 4, 18, 22), (6, 4, 9, 11)]

    def test_getitem_is_a_view(self, rng):
        stack = Dtcwt2D(levels=2).forward_batch(frame_stack(rng))
        frame = stack[1]
        frame.highpasses[0][:] = 0
        assert np.max(np.abs(stack.highpasses[0][:, 1])) == 0

    def test_getitem_bounds(self, rng):
        stack = Dtcwt2D(levels=2).forward_batch(frame_stack(rng, n=2))
        with pytest.raises(TransformError):
            stack[2]
        with pytest.raises(IndexError):
            stack[2]  # also an IndexError: iteration terminates cleanly
        assert stack[-1].lowpass.shape == stack[0].lowpass.shape

    def test_stack_is_iterable(self, rng):
        stack = Dtcwt2D(levels=2).forward_batch(frame_stack(rng, n=3))
        pyramids = list(stack)
        assert len(pyramids) == 3
        assert all(p.levels == 2 for p in pyramids)

    def test_slice_views_a_frame_range(self, rng):
        frames = frame_stack(rng, n=6)
        stack = Dtcwt2D(levels=2).forward_batch(frames)
        sub = stack.slice(2, 5)
        assert sub.count == 3
        assert np.array_equal(sub.lowpass, stack.lowpass[:, :, 2:5])

    def test_from_pyramids_round_trips(self, rng):
        frames = frame_stack(rng, n=3)
        t = Dtcwt2D(levels=2)
        pyramids = [t.forward(f) for f in frames]
        stack = DtcwtPyramidStack.from_pyramids(pyramids)
        assert stack.count == 3
        for i, pyr in enumerate(pyramids):
            assert np.array_equal(stack[i].lowpass, pyr.lowpass)
            for a, b in zip(stack[i].highpasses, pyr.highpasses):
                assert np.array_equal(a, b)

    def test_from_pyramids_rejects_mismatch(self, rng):
        t2, t3 = Dtcwt2D(levels=2), Dtcwt2D(levels=3)
        x = rng.standard_normal((32, 32))
        with pytest.raises(TransformError):
            DtcwtPyramidStack.from_pyramids([t2.forward(x), t3.forward(x)])
        with pytest.raises(TransformError):
            DtcwtPyramidStack.from_pyramids([])

    def test_copy_is_deep(self, rng):
        stack = Dtcwt2D(levels=1).forward_batch(frame_stack(rng, n=2,
                                                            shape=(16, 16)))
        dup = stack.copy()
        dup.highpasses[0][:] = 0
        assert np.max(np.abs(stack.highpasses[0])) > 0

    def test_level_mismatch_raises(self, rng):
        stack = Dtcwt2D(levels=2).forward_batch(frame_stack(rng, n=2))
        with pytest.raises(TransformError):
            Dtcwt2D(levels=3).inverse_batch(stack)


class TestStackValidation:
    def test_rejects_2d_and_4d(self, rng):
        t = Dtcwt2D(levels=2)
        with pytest.raises(TransformError):
            t.forward_batch(rng.standard_normal((32, 32)))
        with pytest.raises(TransformError):
            t.forward_batch(rng.standard_normal((2, 2, 32, 32)))

    def test_rejects_empty_stack(self):
        with pytest.raises(TransformError):
            as_float_stack(np.empty((0, 8, 8)))

    def test_accepts_frame_lists(self, rng):
        frames = [rng.standard_normal((16, 16)) for _ in range(3)]
        assert Dtcwt2D(levels=1).forward_batch(frames).count == 3


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
