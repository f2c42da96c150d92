"""HLS wavelet-engine datapath: functional throughput and cycle model.

Times the line-level functional model (the unit of work one hardware
invocation performs) and a whole pass of lines filtered in one call,
and prints the PL-cycle budget per line — the quantity that, together
with the driver cost, produces Fig. 9's FPGA curves.
"""

import time

import numpy as np

from repro.hw import hls
from repro.hw.hls import HlsWaveletEngine, shift_register_dual_fir
from repro.hw.platform import DEFAULT_PLATFORM

from conftest import format_line


def test_cycle_budget_per_line(report):
    engine = HlsWaveletEngine()
    lines = ["PL cycle budget per invocation (12-tap engine, ACP bursts):",
             f"  {'row width':>10} {'cycles':>8} {'us @100MHz':>11}"]
    for width in (32, 44, 88, 720, 2048):
        words_in = width + 12
        words_out = width
        iters = width // 2 + 6
        seconds = engine.line_seconds_estimate(words_in, words_out, iters)
        cycles = seconds / DEFAULT_PLATFORM.pl_cycle_s
        lines.append(f"  {width:>10} {cycles:>8.0f} {seconds * 1e6:>11.2f}")
    lines.append("")
    lines.append(format_line(
        "88-px row latency vs driver overhead", "overhead dominates",
        f"{engine.line_seconds_estimate(100, 88, 50) * 1e6:.1f} us hw "
        "vs ~25 us cmd"))
    report("\n".join(lines))

    fast = engine.line_seconds_estimate(100, 88, 50)
    assert fast < 25e-6  # hardware is never the bottleneck at paper sizes


def test_vectorized_path_matches_scalar_datapath(report, rng=None):
    rng = np.random.default_rng(3)
    engine = HlsWaveletEngine()
    lp = rng.standard_normal(12).astype(np.float32)
    hp = rng.standard_normal(12).astype(np.float32)
    engine.load_coefficients(lp, hp)
    x = rng.standard_normal(2 * 44 + 12).astype(np.float32)
    lp_fast, hp_fast, _ = engine.forward_line(x, 44, step=2)
    ref_hp, ref_lp = shift_register_dual_fir(x, hp[::-1].copy(),
                                             lp[::-1].copy())
    worst = max(float(np.max(np.abs(lp_fast - ref_lp[:44]))),
                float(np.max(np.abs(hp_fast - ref_hp[:44]))))
    report(format_line("fast path vs literal Fig. 4 loop",
                       "bit-comparable", f"max delta {worst:.2e}"))
    assert np.array_equal(lp_fast, ref_lp[:44])
    assert np.array_equal(hp_fast, ref_hp[:44])


def _best_of(fn, repeats=7):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _sheet_and_line_loop(lines):
    """A ``lines`` x 88-px pass in one engine call and the same lines
    one call each: the outputs and counters of both."""
    rng = np.random.default_rng(6)
    lp = rng.standard_normal(14).astype(np.float32)
    hp = rng.standard_normal(14).astype(np.float32)
    sheet = rng.standard_normal((lines, 2 * 43 + 14)).astype(np.float32)
    whole, looped = HlsWaveletEngine(), HlsWaveletEngine()
    for engine in (whole, looped):
        engine.load_coefficients(lp, hp)

    def one_call():
        return whole.forward_line(sheet, 44, 2)

    def line_loop():
        return [looped.forward_line(line, 44, 2) for line in sheet]

    return whole, looped, one_call, line_loop


def test_pass_wide_sheet_matches_line_loop(report):
    """One 144-line x 88-px pass in one engine call against the same
    lines one call each: bitwise-equal outputs and counters.  A
    1000-line sheet spans several MAC line blocks and a ragged tail,
    and must match its line loop too."""
    block = hls._MAC_BLOCK_BYTES // (14 * 2 * 44 * 4)  # lines per block
    assert 1000 // block >= 3 and 1000 % block
    for lines in (144, 1000):
        whole, looped, one_call, line_loop = _sheet_and_line_loop(lines)
        lp_sheet, hp_sheet, _ = one_call()
        rows = line_loop()
        assert np.array_equal(lp_sheet, np.stack([r[0] for r in rows]))
        assert np.array_equal(hp_sheet, np.stack([r[1] for r in rows]))
        assert whole.stats == looped.stats
    whole, looped, one_call, line_loop = _sheet_and_line_loop(144)
    speedup = _best_of(line_loop) / _best_of(one_call)
    report(format_line("144x88 pass: one call vs per-line calls",
                       "same bits", f"{speedup:.1f}x faster"))


def test_forward_line_kernel(benchmark, rng=None):
    rng = np.random.default_rng(4)
    engine = HlsWaveletEngine()
    engine.load_coefficients(np.ones(12, np.float32) / 12,
                             np.ones(12, np.float32) / 12)
    x = rng.standard_normal(2 * 88 + 12).astype(np.float32)
    lp, hp, _ = benchmark(engine.forward_line, x, 88, 2)
    assert lp.shape == (88,)


def test_full_fpga_transform_kernel(benchmark, rng=None):
    """Wall-clock of a whole forward DT-CWT through the HLS path."""
    from repro.hw.fpga import HlsBackend
    from repro.dtcwt import Dtcwt2D
    rng = np.random.default_rng(5)
    x = rng.standard_normal((24, 32)).astype(np.float32)
    transform = Dtcwt2D(levels=2, backend=HlsBackend())
    pyramid = benchmark(transform.forward, x)
    assert pyramid.levels == 2
