"""Batched hardware-backend calls account exactly like N serial calls.

The HLS engine model counts per *line* (one invocation per line fed
through the datapath), so a stacked ``(N, H, W)`` primitive call must
increment cycles, transfers and invocations by exactly the sum of the
``N`` per-frame calls — batching amortizes Python dispatch, never the
modelled hardware work.
"""

import numpy as np

from repro.hw.fpga import FpgaEngine


def _engine_stats(backend):
    return backend.engine.stats


class TestHlsBatchAccounting:
    def test_forward_batch_counts_equal_sum_of_per_frame(self, rng):
        frames = rng.standard_normal((3, 24, 24)).astype(np.float32)
        engine = FpgaEngine()

        serial_backend = engine.make_backend()
        serial_transform = engine.transform(levels=2)
        serial_transform.backend = serial_backend
        for i in range(3):
            serial_transform.forward(frames[i])
        serial = _engine_stats(serial_backend)

        batch_backend = engine.make_backend()
        batch_transform = engine.transform(levels=2)
        batch_transform.backend = batch_backend
        batch_transform.forward(frames)
        batched = _engine_stats(batch_backend)

        assert batched.invocations == serial.invocations
        assert batched.cycles == serial.cycles
        assert batched.words_in == serial.words_in
        assert batched.words_out == serial.words_out

    def test_inverse_batch_counts_equal_sum_of_per_frame(self, rng):
        frames = rng.standard_normal((2, 24, 24)).astype(np.float32)
        engine = FpgaEngine()

        serial_backend = engine.make_backend()
        t = engine.transform(levels=2)
        t.backend = serial_backend
        pyramids = [t.forward(frames[i]) for i in range(2)]
        serial_backend.engine.stats.reset()
        for pyr in pyramids:
            t.inverse(pyr)
        serial = _engine_stats(serial_backend)

        batch_backend = engine.make_backend()
        tb = engine.transform(levels=2)
        tb.backend = batch_backend
        stack = tb.forward(frames)
        batch_backend.engine.stats.reset()
        tb.inverse(stack)
        batched = _engine_stats(batch_backend)

        assert batched.invocations == serial.invocations
        assert batched.cycles == serial.cycles
        assert batched.words_in == serial.words_in
        assert batched.words_out == serial.words_out

    def test_coefficient_loads_are_amortized_not_inflated(self, rng):
        """The one counter batching is *allowed* to improve: filter
        registers are reloaded per primitive call, not per frame."""
        frames = rng.standard_normal((3, 24, 24)).astype(np.float32)
        engine = FpgaEngine()

        serial_backend = engine.make_backend()
        t = engine.transform(levels=2)
        t.backend = serial_backend
        for i in range(3):
            t.forward(frames[i])

        batch_backend = engine.make_backend()
        tb = engine.transform(levels=2)
        tb.backend = batch_backend
        tb.forward(frames)

        assert (_engine_stats(batch_backend).coefficient_loads
                <= _engine_stats(serial_backend).coefficient_loads)

    def test_modelled_frame_cost_is_per_frame_regardless_of_executor(self):
        """The analytic model bills per frame; a batched drive's total
        is the exact sum of the per-frame models (asserted end-to-end
        by tests/exec/test_batch_executor.py; here: the model itself
        has no batch discount)."""
        from repro.types import FrameShape
        engine = FpgaEngine()
        one = engine.frame_time(FrameShape(40, 40), levels=2).total_s
        assert one > 0
        # N frames cost exactly N * one in the model — there is no
        # batched entry point to diverge from this
        assert 5 * one == sum(engine.frame_time(FrameShape(40, 40),
                                                levels=2).total_s
                              for _ in range(5))
