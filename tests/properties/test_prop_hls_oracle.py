"""Property-based tests: the HLS engine's line jobs against the scalar
Fig. 4 oracles.

``forward_line`` and ``inverse_line`` run both MAC chains in one sweep
over a whole sheet; :func:`shift_register_dual_fir` and
:func:`shift_register_dual_synthesis` are the literal one-sample-at-a-
time transcriptions of the datapath.  Every line of every sheet must
come out bitwise equal to the oracle on that line: random taps and
coefficients, zero-padded registers, both forward steps, sheets whose
leading axis has length 2 (two lines, not two chains) and inputs full
of signed zeros.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.hls import (
    HlsWaveletEngine,
    shift_register_dual_fir,
    shift_register_dual_synthesis,
)

_SETTINGS = dict(deadline=None, max_examples=30)


@st.composite
def register_pair(draw, even):
    """(lp, hp) float32 registers of equal length, some taps zero-padded
    on either side and often all of one sign; ``even`` keeps the length
    even (the dual-sample forward datapath consumes two samples per
    cycle)."""
    core = draw(st.integers(1, 14))
    before = draw(st.integers(0, 3))
    after = draw(st.integers(0, 3))
    if even and (before + core + after) % 2:
        after += 1
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    regs = np.zeros((2, before + core + after), dtype=np.float32)
    regs[:, before:before + core] = rng.standard_normal((2, core))
    if draw(st.booleans()):
        regs = np.abs(regs)
    return regs[0], regs[1]


@st.composite
def sheet_lead(draw):
    """Leading (line) axes of a sheet, often starting with a 2-axis."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    return (2,) + lead if draw(st.booleans()) else lead


@st.composite
def sheet_input(draw, lead, samples):
    """A float32 sheet ``lead + (samples,)`` with a share of its samples
    replaced by zeros: +0.0, -0.0 or either at random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal(lead + (samples,)).astype(np.float32)
    zeros = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    negative = draw(st.sampled_from([0.0, 0.5, 1.0]))
    x[zeros] = np.where(rng.random(int(zeros.sum())) < negative, -0.0, 0.0)
    return x


def _bits(a):
    """Bit patterns, so +0.0 and -0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _engine(lp, hp):
    engine = HlsWaveletEngine()
    engine.load_coefficients(lp, hp)
    return engine


class TestForwardAgainstOracle:
    @settings(**_SETTINGS)
    @given(data=st.data(), regs=register_pair(even=True), lead=sheet_lead(),
           step=st.sampled_from([1, 2]), out_len=st.integers(1, 40))
    def test_forward_line_equals_scalar_fir(self, data, regs, lead, step,
                                            out_len):
        """Mode 2 convolves (the registers load newest first), so the
        oracle runs on the reversed registers.  Step 1 is the union of
        the two decimated phases: even outputs from the line, odd ones
        from the line shifted by one sample."""
        lp, hp = regs
        taps = len(lp)
        x = data.draw(sheet_input(lead, (out_len - 1) * step + taps))
        lp_out, hp_out, _ = _engine(lp, hp).forward_line(x, out_len, step)
        assert lp_out.shape == hp_out.shape == x.shape[:-1] + (out_len,)
        for index in np.ndindex(*x.shape[:-1]):
            # two zero samples of slack: the oracle's register primes
            # one cycle past the last output the engine needs
            line = np.concatenate([x[index], np.zeros(2, np.float32)])
            want_lp = np.empty(out_len, np.float32)
            want_hp = np.empty(out_len, np.float32)
            stride = 2 // step  # outputs per decimated phase
            for phase in range(min(stride, out_len)):
                ref_hp, ref_lp = shift_register_dual_fir(
                    line[phase:], hp[::-1].copy(), lp[::-1].copy())
                count = len(want_lp[phase::stride])
                want_lp[phase::stride] = ref_lp[:count]
                want_hp[phase::stride] = ref_hp[:count]
            assert np.array_equal(_bits(lp_out[index]), _bits(want_lp))
            assert np.array_equal(_bits(hp_out[index]), _bits(want_hp))


class TestInverseAgainstOracle:
    @settings(**_SETTINGS)
    @given(data=st.data(), regs=register_pair(even=False), lead=sheet_lead(),
           out_len=st.integers(1, 40))
    def test_inverse_line_equals_scalar_synthesis(self, data, regs, lead,
                                                  out_len):
        """Mode 3 takes the lo/hi lines as one ``(2, ...)`` stack; each
        chain correlates its own line and the accumulators are summed."""
        g0, g1 = regs
        samples = out_len + len(g0) - 1
        channels = data.draw(sheet_input((2,) + lead, samples))
        lo, hi = channels
        out, _ = _engine(g0, g1).inverse_line(channels, out_len)
        assert out.shape == lo.shape[:-1] + (out_len,)
        for index in np.ndindex(*lo.shape[:-1]):
            want = shift_register_dual_synthesis(lo[index], hi[index],
                                                 g0, g1)
            assert np.array_equal(_bits(out[index]), _bits(want))
