"""Property-based tests: the HLS engine's line jobs against the scalar
Fig. 4 oracles.

``forward_line`` and ``inverse_line`` run both MAC chains in one sweep
over a whole sheet; :func:`shift_register_dual_fir` and
:func:`shift_register_dual_synthesis` are the literal one-sample-at-a-
time transcriptions of the datapath.  Every line of every sheet must
come out bitwise equal to the oracle on that line: random taps and
coefficients, zero-padded registers, both forward steps, sheets whose
leading axis has length 2 (two lines, not two chains) and inputs full
of signed zeros.  Sheets too large for one MAC block go through in
line blocks: split into several blocks with a ragged tail, they must
still match the oracles and the one-block result, and a 16-frame sheet
must stay within the block budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import hls
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


def assert_forward_matches_oracle(x, lp, hp, out_len, step, lp_out, hp_out):
    """Mode 2 convolves (the registers load newest first), so the
    oracle runs on the reversed registers.  Step 1 is the union of the
    two decimated phases: even outputs from the line, odd ones from the
    line shifted by one sample."""
    for index in np.ndindex(*x.shape[:-1]):
        # two zero samples of slack: the oracle's register primes one
        # cycle past the last output the engine needs
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


def assert_inverse_matches_oracle(channels, g0, g1, out):
    """Each chain correlates its own line; the accumulators are summed."""
    lo, hi = channels
    for index in np.ndindex(*lo.shape[:-1]):
        want = shift_register_dual_synthesis(lo[index], hi[index], g0, g1)
        assert np.array_equal(_bits(out[index]), _bits(want))


class TestForwardAgainstOracle:
    @settings(**_SETTINGS)
    @given(data=st.data(), regs=register_pair(even=True), lead=sheet_lead(),
           step=st.sampled_from([1, 2]), out_len=st.integers(1, 40))
    def test_forward_line_equals_scalar_fir(self, data, regs, lead, step,
                                            out_len):
        lp, hp = regs
        taps = len(lp)
        x = data.draw(sheet_input(lead, (out_len - 1) * step + taps))
        lp_out, hp_out, _ = _engine(lp, hp).forward_line(x, out_len, step)
        assert lp_out.shape == hp_out.shape == x.shape[:-1] + (out_len,)
        assert_forward_matches_oracle(x, lp, hp, out_len, step,
                                      lp_out, hp_out)


class TestInverseAgainstOracle:
    @settings(**_SETTINGS)
    @given(data=st.data(), regs=register_pair(even=False), lead=sheet_lead(),
           out_len=st.integers(1, 40))
    def test_inverse_line_equals_scalar_synthesis(self, data, regs, lead,
                                                  out_len):
        """Mode 3 takes the lo/hi lines as one ``(2, ...)`` stack."""
        g0, g1 = regs
        samples = out_len + len(g0) - 1
        channels = data.draw(sheet_input((2,) + lead, samples))
        lo = channels[0]
        out, _ = _engine(g0, g1).inverse_line(channels, out_len)
        assert out.shape == lo.shape[:-1] + (out_len,)
        assert_inverse_matches_oracle(channels, g0, g1, out)


@st.composite
def blocked_lead(draw):
    """``(lines per block, sheet lead)``: at least three whole blocks
    and a ragged tail, as one line axis or two."""
    block = draw(st.integers(2, 4))
    lines = 3 * block + draw(st.integers(1, block - 1))
    lead = (2, lines // 2) if lines % 2 == 0 and draw(st.booleans()) \
        else (lines,)
    return block, lead


def _block_bytes(block, taps, out_len):
    """The ``_MAC_BLOCK_BYTES`` that puts ``block`` lines in a block."""
    return block * taps * 2 * out_len * np.dtype(np.float32).itemsize


class TestMacBlocks:
    @settings(**_SETTINGS)
    @given(data=st.data(), regs=register_pair(even=True),
           blocked=blocked_lead(), step=st.sampled_from([1, 2]),
           out_len=st.integers(1, 24))
    def test_blocked_forward_equals_oracle_and_one_block(
            self, data, regs, blocked, step, out_len):
        lp, hp = regs
        block, lead = blocked
        x = data.draw(sheet_input(lead, (out_len - 1) * step + len(lp)))
        one_lp, one_hp, _ = _engine(lp, hp).forward_line(x, out_len, step)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hls, "_MAC_BLOCK_BYTES",
                          _block_bytes(block, len(lp), out_len))
            lp_out, hp_out, _ = _engine(lp, hp).forward_line(x, out_len,
                                                             step)
        assert np.array_equal(_bits(lp_out), _bits(one_lp))
        assert np.array_equal(_bits(hp_out), _bits(one_hp))
        assert_forward_matches_oracle(x, lp, hp, out_len, step,
                                      lp_out, hp_out)

    @settings(**_SETTINGS)
    @given(data=st.data(), regs=register_pair(even=False),
           blocked=blocked_lead(), out_len=st.integers(1, 24))
    def test_blocked_inverse_equals_oracle_and_one_block(
            self, data, regs, blocked, out_len):
        g0, g1 = regs
        block, lead = blocked
        channels = data.draw(sheet_input((2,) + lead,
                                         out_len + len(g0) - 1))
        one, _ = _engine(g0, g1).inverse_line(channels, out_len)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hls, "_MAC_BLOCK_BYTES",
                          _block_bytes(block, len(g0), out_len))
            out, _ = _engine(g0, g1).inverse_line(channels, out_len)
        assert np.array_equal(_bits(out), _bits(one))
        assert_inverse_matches_oracle(channels, g0, g1, out)

    def test_sixteen_frame_sheet_stays_within_the_block_budget(self):
        """Level 1 of a 16-frame 88x72 visible/thermal batch: 9 taps,
        undecimated, 2 x 16 x 72 rows of 88 px plus halo.  Its whole
        product would be 14.6 MB; the call's peak is one block plus
        the outputs (the input needs no copy)."""
        rng = np.random.default_rng(16)
        lp, hp = rng.standard_normal((2, 9)).astype(np.float32)
        x = rng.standard_normal((2 * 16, 72, 88 + 8)).astype(np.float32)
        engine = _engine(lp, hp)
        outputs = 2 * x[..., :88].nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            engine.forward_line(x, 88, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= hls._MAC_BLOCK_BYTES + outputs + 64 * 1024
