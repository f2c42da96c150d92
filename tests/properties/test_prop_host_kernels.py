"""Differential suite: the host kernel backend against the oracle.

:class:`repro.dtcwt.backend.KernelBackend` (the halo-extension
formulation every host engine computes with) must return the same bits
as the circular-convolution oracle in ``tests/kernel_oracle.py`` — not
close values, the same bits, sign of zero included.  The properties
cover all four primitives over random taps (exact-zero taps included),
odd and even filtered lengths, zero to two leading batch axes, the
filtered axis anywhere and spelled positive or negative, both working
dtypes and inputs seeded with ``+0.0``/``-0.0``; and the full
``Dtcwt2D`` forward and inverse at levels 1-4.

The backend under test is built with ``compiled=None``, i.e. the path
the engines run: the NumPy fallback without Numba, ``_accum_sheets``
compiled with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dtcwt import Dtcwt2D, KernelBackend, dtcwt_banks

from kernel_oracle import NumpyBackend

_SETTINGS = dict(deadline=None, max_examples=60)

DTYPES = st.sampled_from([np.float32, np.float64])

#: finite values with signed zeros drawn often
VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1.0e3, 1.0e3, allow_nan=False,
                             allow_infinity=False, width=64))

#: filter taps, exact zeros included (the kernels skip those taps)
TAPS = hnp.arrays(np.float64, st.integers(1, 16),
                  elements=st.one_of(
                      st.just(0.0),
                      st.floats(-2.0, 2.0, allow_nan=False,
                                allow_infinity=False, width=64)))


@st.composite
def filtered_arrays(draw, max_len=33):
    """An array with 0-2 leading batch axes around one filtered axis of
    random (odd or even) length, plus that axis spelled positive or
    negative."""
    n_batch = draw(st.integers(0, 2))
    ndim = n_batch + 1
    shape = [draw(st.integers(1, 3)) for _ in range(ndim)]
    pos = draw(st.integers(0, ndim - 1))
    shape[pos] = draw(st.integers(1, max_len))
    x = draw(hnp.arrays(np.float64, tuple(shape), elements=VALUES))
    axis = pos - ndim if draw(st.booleans()) else pos
    return x, axis


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for part in ((np.real, np.imag) if np.iscomplexobj(got) else (np.real,)):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


class TestPrimitives:
    @settings(**_SETTINGS)
    @given(data=filtered_arrays(), h0=TAPS, h1=TAPS, dtype=DTYPES,
           centers=st.tuples(st.integers(0, 15), st.integers(0, 15)))
    def test_analysis_u(self, data, h0, h1, dtype, centers):
        x, axis = data
        c0, c1 = centers[0] % len(h0), centers[1] % len(h1)
        got = KernelBackend(dtype).analysis_u(x, h0, c0, h1, c1, axis)
        want = NumpyBackend(dtype).analysis_u(x, h0, c0, h1, c1, axis)
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @settings(**_SETTINGS)
    @given(data=filtered_arrays(), g0=TAPS, g1=TAPS, dtype=DTYPES,
           centers=st.tuples(st.integers(0, 15), st.integers(0, 15)),
           seed=st.integers(0, 2 ** 16))
    def test_synthesis_u(self, data, g0, g1, dtype, centers, seed):
        u0, axis = data
        u1 = np.random.default_rng(seed).standard_normal(u0.shape)
        u1[u0 == 0.0] = -0.0
        c0, c1 = centers[0] % len(g0), centers[1] % len(g1)
        got = KernelBackend(dtype).synthesis_u(u0, u1, g0, c0, g1, c1,
                                               axis)
        want = NumpyBackend(dtype).synthesis_u(u0, u1, g0, c0, g1, c1,
                                               axis)
        assert_same_bits(got, want)

    @settings(**_SETTINGS)
    @given(data=filtered_arrays(), h0=TAPS, h1=TAPS, dtype=DTYPES)
    def test_analysis_d(self, data, h0, h1, dtype):
        x, axis = data
        got = KernelBackend(dtype).analysis_d(x, h0, h1, axis)
        want = NumpyBackend(dtype).analysis_d(x, h0, h1, axis)
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @settings(**_SETTINGS)
    @given(data=filtered_arrays(max_len=17), h0=TAPS, h1=TAPS,
           dtype=DTYPES, seed=st.integers(0, 2 ** 16))
    def test_synthesis_d(self, data, h0, h1, dtype, seed):
        lo, axis = data
        hi = np.random.default_rng(seed).standard_normal(lo.shape)
        hi[lo == 0.0] = -0.0
        got = KernelBackend(dtype).synthesis_d(lo, hi, h0, h1, axis)
        want = NumpyBackend(dtype).synthesis_d(lo, hi, h0, h1, axis)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_input_keeps_its_bits(self, dtype):
        """An all-``-0.0`` input: every output is a sum of zero data
        terms, so a skipped data term would flip a sign bit."""
        x = np.full((2, 9), -0.0)
        banks = dtcwt_banks()
        q, lvl = banks.qshift, banks.level1
        runtime, oracle = KernelBackend(dtype), NumpyBackend(dtype)
        for got, want in zip(
                runtime.analysis_u(x, lvl.h0, lvl.c_h0, lvl.h1, lvl.c_h1, 1)
                + runtime.analysis_d(x, q.h0a, q.h1a, -1),
                oracle.analysis_u(x, lvl.h0, lvl.c_h0, lvl.h1, lvl.c_h1, 1)
                + oracle.analysis_d(x, q.h0a, q.h1a, -1)):
            assert_same_bits(got, want)
        assert_same_bits(runtime.synthesis_d(x, x, q.h0b, q.h1b, -1),
                         oracle.synthesis_d(x, x, q.h0b, q.h1b, -1))


@st.composite
def images(draw):
    """A 2-D frame or a ``(B, H, W)`` stack, odd sides included (the
    transform pads them), with signed zeros drawn often."""
    rows, cols = draw(st.integers(4, 36)), draw(st.integers(4, 36))
    lead = draw(st.sampled_from([(), (1,), (2,)]))
    return draw(hnp.arrays(np.float64, lead + (rows, cols),
                           elements=VALUES))


class TestDtcwt2D:
    @settings(deadline=None, max_examples=30)
    @given(image=images(), levels=st.integers(1, 4), dtype=DTYPES)
    def test_forward_and_inverse(self, image, levels, dtype):
        banks = dtcwt_banks()
        runtime = Dtcwt2D(levels=levels, banks=banks,
                          backend=KernelBackend(dtype))
        oracle = Dtcwt2D(levels=levels, banks=banks,
                         backend=NumpyBackend(dtype))
        got, want = runtime.forward(image), oracle.forward(image)
        rec_got, rec_want = runtime.inverse(got), oracle.inverse(want)
        assert got.frames == want.frames == image.shape[:-2]
        assert rec_got.shape == image.shape
        assert_same_bits(got.lowpass, want.lowpass)
        assert len(got.highpasses) == len(want.highpasses) == levels
        for g, w in zip(got.highpasses, want.highpasses):
            assert_same_bits(g, w)
        assert_same_bits(rec_got, rec_want)

    @settings(deadline=None, max_examples=10)
    @given(image=images(), levels=st.integers(1, 4))
    def test_default_backend_is_the_runtime_path(self, image, levels):
        """A transform built without ``backend=`` computes in float64
        with the host backend, bit for bit the oracle's."""
        image = image.reshape((-1,) + image.shape[-2:])[0]
        got = Dtcwt2D(levels=levels).forward(image)
        want = Dtcwt2D(levels=levels,
                       backend=NumpyBackend()).forward(image)
        assert_same_bits(got.lowpass, want.lowpass)
        for g, w in zip(got.highpasses, want.highpasses):
            assert_same_bits(g, w)
