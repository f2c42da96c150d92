"""HLS wavelet engine: datapath fidelity and cycle accounting."""

import numpy as np
import pytest

from repro.errors import EngineError
from repro.hw.hls import (
    HlsWaveletEngine,
    MODE_IDLE,
    shift_register_dual_fir,
    shift_register_dual_synthesis,
)
from repro.hw.platform import ZynqPlatform


@pytest.fixture
def engine():
    return HlsWaveletEngine()


class TestShiftRegisterReference:
    def test_matches_numpy_correlation(self, rng):
        """The literal Fig. 4 loop equals a decimated FIR correlation
        (oldest sample meets register 0)."""
        taps = 12
        out_len = 10
        hp = rng.standard_normal(taps).astype(np.float32)
        lp = rng.standard_normal(taps).astype(np.float32)
        x = rng.standard_normal(2 * out_len + taps).astype(np.float32)
        hp_out, lp_out = shift_register_dual_fir(x, hp, lp)
        for m in range(out_len):
            window = x[2 * m: 2 * m + taps]
            assert np.isclose(hp_out[m], np.dot(window, hp), atol=1e-4)
            assert np.isclose(lp_out[m], np.dot(window, lp), atol=1e-4)

    def test_rejects_mismatched_registers(self):
        with pytest.raises(EngineError):
            shift_register_dual_fir(np.zeros(32), np.zeros(12), np.zeros(10))

    def test_rejects_odd_taps(self):
        with pytest.raises(EngineError):
            shift_register_dual_fir(np.zeros(32), np.zeros(11), np.zeros(11))

    def test_rejects_short_input(self):
        with pytest.raises(EngineError):
            shift_register_dual_fir(np.zeros(10), np.zeros(12), np.zeros(12))


class TestCoefficientLoading:
    def test_load_and_query(self, engine):
        seconds = engine.load_coefficients(np.ones(12), np.ones(12))
        assert engine.loaded_taps == 12
        assert seconds > 0
        assert engine.stats.coefficient_loads == 1

    def test_oversized_filter_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.load_coefficients(np.ones(64), np.ones(64))

    def test_mismatched_pair_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.load_coefficients(np.ones(12), np.ones(10))

    def test_mode_returns_to_idle(self, engine):
        engine.load_coefficients(np.ones(8), np.ones(8))
        assert engine.mode == MODE_IDLE


class TestForwardLine:
    def test_requires_coefficients(self, engine):
        with pytest.raises(EngineError):
            engine.forward_line(np.zeros(64), 16, step=2)

    def test_decimated_matches_reference_loop(self, engine, rng):
        """forward_line (convolution semantics) equals the Fig. 4 loop
        with reversed coefficient registers — what the driver loads —
        bit for bit: both run the same float32 MAC order."""
        taps = 12
        out_len = 8
        lp = rng.standard_normal(taps).astype(np.float32)
        hp = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(lp, hp)
        x = rng.standard_normal((out_len - 1) * 2 + taps).astype(np.float32)
        lp_out, hp_out, _ = engine.forward_line(x, out_len, step=2)
        ref_hp, ref_lp = shift_register_dual_fir(
            np.concatenate([x, np.zeros(2, np.float32)]),
            hp[::-1].copy(), lp[::-1].copy())
        assert np.array_equal(lp_out, ref_lp[:out_len])
        assert np.array_equal(hp_out, ref_hp[:out_len])

    def test_undecimated_step(self, engine, rng):
        taps = 8
        lp = rng.standard_normal(taps).astype(np.float32)
        hp = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(lp, hp)
        n = 16
        x = rng.standard_normal(n + taps - 1).astype(np.float32)
        lp_out, hp_out, _ = engine.forward_line(x, n, step=1)
        for i in range(n):
            window = x[i: i + taps]
            assert np.isclose(lp_out[i], np.dot(window, lp[::-1]), atol=1e-4)

    def test_short_line_rejected(self, engine):
        engine.load_coefficients(np.ones(12), np.ones(12))
        with pytest.raises(EngineError):
            engine.forward_line(np.zeros(10), 16, step=2)

    def test_bad_step_rejected(self, engine):
        engine.load_coefficients(np.ones(12), np.ones(12))
        with pytest.raises(EngineError):
            engine.forward_line(np.zeros(64), 16, step=3)

    def test_outputs_are_float32(self, engine, rng):
        engine.load_coefficients(np.ones(8), np.ones(8))
        x = rng.standard_normal(64).astype(np.float32)
        lp_out, hp_out, _ = engine.forward_line(x, 16, step=2)
        assert lp_out.dtype == np.float32
        assert hp_out.dtype == np.float32


class TestInverseLine:
    def test_dual_channel_correlation(self, engine, rng):
        taps = 8
        g0 = rng.standard_normal(taps).astype(np.float32)
        g1 = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(g0, g1)
        n = 12
        lo = rng.standard_normal(n + taps - 1).astype(np.float32)
        hi = rng.standard_normal(n + taps - 1).astype(np.float32)
        out, _ = engine.inverse_line(np.stack((lo, hi)), n)
        for i in range(n):
            expected = (np.dot(lo[i: i + taps], g0)
                        + np.dot(hi[i: i + taps], g1))
            assert np.isclose(out[i], expected, atol=1e-4)

    @pytest.mark.parametrize("taps", [8, 12, 14, 19, 20])
    def test_matches_scalar_synthesis_loop(self, engine, rng, taps):
        """Mode 3 is the literal two-chain MAC, bit for bit, for a line
        and for every line of a sheet."""
        g0 = rng.standard_normal(taps).astype(np.float32)
        g1 = rng.standard_normal(taps).astype(np.float32)
        engine.load_coefficients(g0, g1)
        n = 23
        lo = rng.standard_normal((3, n + taps - 1)).astype(np.float32)
        hi = rng.standard_normal((3, n + taps - 1)).astype(np.float32)
        sheet, _ = engine.inverse_line(np.stack((lo, hi)), n)
        for row in range(3):
            ref = shift_register_dual_synthesis(lo[row], hi[row], g0, g1)
            line, _ = engine.inverse_line(np.stack((lo[row], hi[row])), n)
            assert np.array_equal(line, ref)
            assert np.array_equal(sheet[row], ref)

    def test_scalar_synthesis_rejects_bad_shapes(self):
        with pytest.raises(EngineError):
            shift_register_dual_synthesis(np.zeros(20), np.zeros(20),
                                          np.zeros(8), np.zeros(6))
        with pytest.raises(EngineError):
            shift_register_dual_synthesis(np.zeros(20), np.zeros(19),
                                          np.zeros(8), np.zeros(8))
        with pytest.raises(EngineError):
            shift_register_dual_synthesis(np.zeros(7), np.zeros(7),
                                          np.zeros(8), np.zeros(8))

    def test_needs_a_two_channel_stack(self, engine):
        engine.load_coefficients(np.ones(8), np.ones(8))
        for channels in (np.zeros(20), np.zeros((3, 20)), np.zeros((1, 20))):
            with pytest.raises(EngineError):
                engine.inverse_line(channels, 12)


class TestCycleModel:
    def test_cycles_grow_with_line_length(self, engine, rng):
        engine.load_coefficients(np.ones(12), np.ones(12))
        short = rng.standard_normal(2 * 8 + 12).astype(np.float32)
        long = rng.standard_normal(2 * 64 + 12).astype(np.float32)
        _, _, t_short = engine.forward_line(short, 8, step=2)
        _, _, t_long = engine.forward_line(long, 64, step=2)
        assert t_long > t_short

    def test_memcpys_not_pipelined(self, engine):
        """Latency = transfer-in + loop + transfer-out, strictly additive
        (the paper notes VIVADO_HLS does not pipeline the memcpys)."""
        base = engine.line_seconds_estimate(0, 0, 0)
        est = engine.line_seconds_estimate(words_in=100, words_out=100,
                                           loop_iterations=50)
        loop_part = engine.line_seconds_estimate(0, 0, 50) - base
        in_part = engine.line_seconds_estimate(100, 0, 0) - base
        out_part = engine.line_seconds_estimate(0, 100, 0) - base
        assert np.isclose(est - base, loop_part + in_part + out_part)

    def test_stats_accumulate(self, engine, rng):
        engine.load_coefficients(np.ones(8), np.ones(8))
        x = rng.standard_normal(64).astype(np.float32)
        engine.forward_line(x, 16, step=2)
        engine.forward_line(x, 16, step=2)
        assert engine.stats.invocations == 2
        assert engine.stats.cycles > 0

    def test_sheet_counts_one_invocation_per_line(self, engine, rng):
        engine.load_coefficients(np.ones(8), np.ones(8))
        _, _, seconds = engine.forward_line(
            rng.standard_normal((2, 3, 64)).astype(np.float32), 16, step=2)
        assert engine.stats.invocations == 6
        assert engine.stats.words_in == 6 * 64
        assert engine.stats.words_out == 6 * 32
        assert seconds == engine.line_seconds_estimate(64, 32, 16 + 4)

    def test_pl_clock_scales_latency(self, rng):
        fast = HlsWaveletEngine(ZynqPlatform(pl_clock_hz=200e6))
        slow = HlsWaveletEngine(ZynqPlatform(pl_clock_hz=100e6))
        assert np.isclose(slow.line_seconds_estimate(64, 64, 32),
                          2.0 * fast.line_seconds_estimate(64, 64, 32))
