"""Kernel backend primitives: dual-channel ops against direct math."""

import sys
import threading

import numpy as np
import pytest

from repro.dtcwt import Dtcwt2D
from repro.dtcwt.backend import KernelBackend
from repro.dtcwt.coeffs import dtcwt_banks

from kernel_oracle import cconv, cconv_causal, downsample2


@pytest.fixture
def backend():
    return KernelBackend()


@pytest.fixture
def banks():
    return dtcwt_banks()


class TestAnalysisU:
    def test_matches_single_channel_convs(self, rng, backend, banks):
        x = rng.standard_normal((16, 20))
        bank = banks.level1
        lo, hi = backend.analysis_u(x, bank.h0, bank.c_h0,
                                    bank.h1, bank.c_h1, axis=1)
        assert np.allclose(lo, cconv(x, bank.h0, bank.c_h0, axis=1))
        assert np.allclose(hi, cconv(x, bank.h1, bank.c_h1, axis=1))

    def test_output_shapes_undecimated(self, rng, backend, banks):
        x = rng.standard_normal((16, 20))
        bank = banks.level1
        lo, hi = backend.analysis_u(x, bank.h0, bank.c_h0,
                                    bank.h1, bank.c_h1, axis=0)
        assert lo.shape == hi.shape == x.shape


class TestAnalysisD:
    def test_matches_causal_conv_downsample(self, rng, backend, banks):
        x = rng.standard_normal((16, 24))
        h0 = banks.qshift.h0a
        h1 = banks.qshift.h1a
        lo, hi = backend.analysis_d(x, h0, h1, axis=1)
        assert np.allclose(lo, downsample2(cconv_causal(x, h0, 1), 0, 1))
        assert np.allclose(hi, downsample2(cconv_causal(x, h1, 1), 0, 1))

    def test_halves_the_axis(self, rng, backend, banks):
        x = rng.standard_normal((16, 24))
        lo, hi = backend.analysis_d(x, banks.qshift.h0a, banks.qshift.h1a,
                                    axis=0)
        assert lo.shape == (8, 24)
        assert hi.shape == (8, 24)


class TestSynthesisD:
    def test_is_adjoint_of_analysis(self, rng, backend, banks):
        """<analysis(x), (u,v)> == <x, synthesis(u,v)> — the transpose
        relation that makes decimated PR structural."""
        h0, h1 = banks.qshift.h0a, banks.qshift.h1a
        x = rng.standard_normal(32)
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        lo, hi = backend.analysis_d(x, h0, h1, axis=0)
        lhs = float(np.dot(lo, u) + np.dot(hi, v))
        rhs = float(np.dot(x, backend.synthesis_d(u, v, h0, h1, axis=0)))
        assert np.isclose(lhs, rhs)

    def test_pr_single_level_1d(self, rng, backend, banks):
        h0, h1 = banks.qshift.h0a, banks.qshift.h1a
        x = rng.standard_normal(64)
        lo, hi = backend.analysis_d(x, h0, h1, axis=0)
        rec = backend.synthesis_d(lo, hi, h0, h1, axis=0)
        assert np.allclose(rec, x, atol=1e-10)


class TestSynthesisU:
    def test_level1_pr_identity_1d(self, rng, backend, banks):
        """synthesis_u(analysis_u(x)) == 2x (the H0G0+H1G1=2 identity)."""
        bank = banks.level1
        x = rng.standard_normal(48)
        u0, u1 = backend.analysis_u(x, bank.h0, bank.c_h0,
                                    bank.h1, bank.c_h1, axis=0)
        rec = backend.synthesis_u(u0, u1, bank.g0, bank.c_g0,
                                  bank.g1, bank.c_g1, axis=0)
        assert np.allclose(rec, 2.0 * x, atol=1e-10)


class TestDtypes:
    def test_float32_backend_outputs_float32(self, rng, banks):
        be = KernelBackend(dtype=np.float32)
        x = rng.standard_normal((8, 8))
        lo, hi = be.analysis_d(x, banks.qshift.h0a, banks.qshift.h1a, axis=0)
        assert lo.dtype == np.float32
        assert hi.dtype == np.float32


class TestDefaultBackendPerTransform:
    """The host backend pools scratch and is single-threaded, so every
    transform built without ``backend=`` must own its instance."""

    def test_transforms_never_share_a_default_backend(self):
        assert Dtcwt2D().backend is not Dtcwt2D().backend

    def test_concurrent_default_transforms_match_serial(self, rng):
        """Threads (more than cores, switching often) each build a
        default transform and round-trip their own frame; every result
        is bitwise its serial result."""
        # one shape, so a shared backend's pooled buffers would collide
        images = [rng.standard_normal((96, 128)) * 64.0 for _ in range(4)]

        def roundtrip(image):
            t = Dtcwt2D(levels=3)
            pyr = t.forward(image)
            return pyr, t.inverse(pyr)

        serial = [roundtrip(image) for image in images]
        results = [[] for _ in images]
        barrier = threading.Barrier(len(images))

        def work(i):
            barrier.wait(timeout=30)
            for _ in range(8):
                results[i].append(roundtrip(images[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(images))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for (pyr_s, rec_s), runs in zip(serial, results):
            assert len(runs) == 8
            for pyr, rec in runs:
                assert np.array_equal(pyr.lowpass, pyr_s.lowpass)
                for band, band_s in zip(pyr.highpasses, pyr_s.highpasses):
                    assert np.array_equal(band, band_s)
                assert np.array_equal(rec, rec_s)
