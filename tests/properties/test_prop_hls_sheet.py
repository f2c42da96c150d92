"""Property-based tests: a sheet of lines through the HLS engine equals
the same lines one at a time.

The engine filters a whole pass in one call, but its unit of work is
still one line: every line of a sheet must come out bitwise-equal to a
1-D call on that line, and ``EngineStats`` must count exactly what the
per-line calls count, field for field.  One level up, ``HlsBackend`` on
an ``(N, H, W)`` stack must equal N per-frame calls for every
primitive.
"""

from dataclasses import astuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dtcwt import dtcwt_banks
from repro.hw.fpga import HlsBackend
from repro.hw.hls import HlsWaveletEngine

_SETTINGS = dict(deadline=None, max_examples=40)


@st.composite
def sheet_case(draw):
    """(taps, step, out_len, leading shape, seed)."""
    taps = draw(st.sampled_from([8, 12, 14, 19, 20]))
    step = draw(st.sampled_from([1, 2]))
    out_len = draw(st.integers(4, 176))
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    return taps, step, out_len, lead, draw(st.integers(0, 2**16))


def _engines(taps, rng):
    """Two engines with the same random coefficients loaded."""
    lp = rng.standard_normal(taps).astype(np.float32)
    hp = rng.standard_normal(taps).astype(np.float32)
    engines = HlsWaveletEngine(), HlsWaveletEngine()
    for engine in engines:
        engine.load_coefficients(lp, hp)
    return engines


class TestEngineSheets:
    @settings(**_SETTINGS)
    @given(case=sheet_case())
    def test_forward_sheet_equals_per_line_calls(self, case):
        taps, step, out_len, lead, seed = case
        rng = np.random.default_rng(seed)
        sheet = rng.standard_normal(
            lead + ((out_len - 1) * step + taps,)).astype(np.float32)
        batched, per_line = _engines(taps, rng)
        lp, hp, seconds = batched.forward_line(sheet, out_len, step)
        assert lp.shape == hp.shape == lead + (out_len,)
        for index in np.ndindex(*lead):
            lp_1, hp_1, seconds_1 = per_line.forward_line(sheet[index],
                                                          out_len, step)
            assert np.array_equal(lp[index], lp_1)
            assert np.array_equal(hp[index], hp_1)
            assert seconds == seconds_1
        assert astuple(batched.stats) == astuple(per_line.stats)

    @settings(**_SETTINGS)
    @given(case=sheet_case())
    def test_inverse_sheet_equals_per_line_calls(self, case):
        taps, _, out_len, lead, seed = case
        rng = np.random.default_rng(seed)
        shape = lead + (out_len + taps - 1,)
        lo = rng.standard_normal(shape).astype(np.float32)
        hi = rng.standard_normal(shape).astype(np.float32)
        batched, per_line = _engines(taps, rng)
        out, seconds = batched.inverse_line(np.stack((lo, hi)), out_len)
        assert out.shape == lead + (out_len,)
        for index in np.ndindex(*lead):
            out_1, seconds_1 = per_line.inverse_line(
                np.stack((lo[index], hi[index])), out_len)
            assert np.array_equal(out[index], out_1)
            assert seconds == seconds_1
        assert astuple(batched.stats) == astuple(per_line.stats)


class TestBackendStacks:
    @settings(**_SETTINGS)
    @given(
        frames=st.integers(1, 3),
        rows=st.integers(2, 12).map(lambda r: 2 * r),
        cols=st.integers(2, 12).map(lambda c: 2 * c),
        axis=st.sampled_from([-1, -2]),
        seed=st.integers(0, 2**16),
    )
    def test_stack_equals_per_frame_calls(self, frames, rows, cols, axis,
                                          seed):
        rng = np.random.default_rng(seed)
        banks = dtcwt_banks()
        l1, qs = banks.level1, banks.qshift
        a = rng.standard_normal((frames, rows, cols)).astype(np.float32)
        b = rng.standard_normal((frames, rows, cols)).astype(np.float32)
        calls = {
            "analysis_u": lambda be, x, y: be.analysis_u(
                x, l1.h0, l1.c_h0, l1.h1, l1.c_h1, axis),
            "analysis_d": lambda be, x, y: be.analysis_d(
                x, qs.h0a, qs.h1a, axis),
            "synthesis_d": lambda be, x, y: be.synthesis_d(
                x, y, qs.h0a, qs.h1a, axis),
            "synthesis_u": lambda be, x, y: be.synthesis_u(
                x, y, l1.g0, l1.c_g0, l1.g1, l1.c_g1, axis),
        }
        for name, call in calls.items():
            stacked, single = HlsBackend(), HlsBackend()
            whole = call(stacked, a, b)
            whole = whole if isinstance(whole, tuple) else (whole,)
            for n in range(frames):
                part = call(single, a[n], b[n])
                part = part if isinstance(part, tuple) else (part,)
                for got, want in zip(whole, part):
                    assert np.array_equal(got[n], want), name
            assert (astuple(stacked.engine.stats)
                    == astuple(single.engine.stats)), name
