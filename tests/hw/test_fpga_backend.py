"""FPGA functional backend: bit-level agreement with the reference path."""

import numpy as np
import pytest

from repro.dtcwt import Dtcwt2D, dtcwt_banks
from repro.errors import EngineError
from repro.hw.fpga import FpgaEngine, HlsBackend, pad_filter_pair

from kernel_oracle import NumpyBackend


@pytest.fixture
def banks():
    return dtcwt_banks()


@pytest.fixture
def backend():
    return HlsBackend()


@pytest.fixture
def reference():
    return NumpyBackend(dtype=np.float32)


class TestPadFilterPair:
    def test_alignment(self, banks):
        bank = banks.level1
        f0, f1, center = pad_filter_pair(bank.h0, bank.c_h0,
                                         bank.h1, bank.c_h1)
        assert len(f0) == len(f1)
        assert center == max(bank.c_h0, bank.c_h1)
        # padded filters keep their taps at the right relative offsets
        assert np.allclose(f0[center - bank.c_h0:
                              center - bank.c_h0 + len(bank.h0)], bank.h0)
        assert np.allclose(f1[center - bank.c_h1:
                              center - bank.c_h1 + len(bank.h1)], bank.h1)

    def test_equal_length_inputs_passthrough(self):
        h = np.arange(8.0)
        f0, f1, center = pad_filter_pair(h, 3, h, 3)
        assert np.allclose(f0, h)
        assert center == 3


class TestPrimitiveEquality:
    """Every backend primitive must match the numpy reference in float32."""

    def test_analysis_u(self, rng, backend, reference, banks):
        x = rng.standard_normal((16, 20)).astype(np.float32)
        bank = banks.level1
        for axis in (0, 1):
            lo_h, hi_h = backend.analysis_u(x, bank.h0, bank.c_h0,
                                            bank.h1, bank.c_h1, axis)
            lo_r, hi_r = reference.analysis_u(x, bank.h0, bank.c_h0,
                                              bank.h1, bank.c_h1, axis)
            assert np.allclose(lo_h, lo_r, atol=1e-4)
            assert np.allclose(hi_h, hi_r, atol=1e-4)

    def test_analysis_d(self, rng, backend, reference, banks):
        x = rng.standard_normal((16, 24)).astype(np.float32)
        qs = banks.qshift
        for axis in (0, 1):
            lo_h, hi_h = backend.analysis_d(x, qs.h0a, qs.h1a, axis)
            lo_r, hi_r = reference.analysis_d(x, qs.h0a, qs.h1a, axis)
            assert np.allclose(lo_h, lo_r, atol=1e-4)
            assert np.allclose(hi_h, hi_r, atol=1e-4)

    def test_synthesis_d(self, rng, backend, reference, banks):
        lo = rng.standard_normal((8, 12)).astype(np.float32)
        hi = rng.standard_normal((8, 12)).astype(np.float32)
        qs = banks.qshift
        for axis in (0, 1):
            out_h = backend.synthesis_d(lo, hi, qs.h0a, qs.h1a, axis)
            out_r = reference.synthesis_d(lo, hi, qs.h0a, qs.h1a, axis)
            assert np.allclose(out_h, out_r, atol=1e-4)

    def test_synthesis_u(self, rng, backend, reference, banks):
        u0 = rng.standard_normal((12, 16)).astype(np.float32)
        u1 = rng.standard_normal((12, 16)).astype(np.float32)
        bank = banks.level1
        for axis in (0, 1):
            out_h = backend.synthesis_u(u0, u1, bank.g0, bank.c_g0,
                                        bank.g1, bank.c_g1, axis)
            out_r = reference.synthesis_u(u0, u1, bank.g0, bank.c_g0,
                                          bank.g1, bank.c_g1, axis)
            assert np.allclose(out_h, out_r, atol=1e-4)


class TestFullTransformOnHls:
    def test_roundtrip_through_hardware_path(self, rng):
        x = rng.standard_normal((24, 32)).astype(np.float32)
        t = Dtcwt2D(levels=3, backend=HlsBackend())
        rec = t.inverse(t.forward(x))
        assert np.max(np.abs(rec - x)) < 1e-4

    def test_matches_reference_pyramid(self, rng):
        x = rng.standard_normal((24, 32)).astype(np.float32)
        hw = Dtcwt2D(levels=2, backend=HlsBackend()).forward(x)
        ref = Dtcwt2D(levels=2,
                      backend=NumpyBackend(dtype=np.float32)).forward(x)
        for level in range(2):
            assert np.allclose(hw.highpasses[level], ref.highpasses[level],
                               atol=1e-4)
        assert np.allclose(hw.lowpass, ref.lowpass, atol=1e-4)

    def test_engine_stats_track_invocations(self, rng):
        """The functional path's invocation count equals the analytic
        work model's — the two views of the workload agree."""
        from repro.hw.work import WorkModel
        from repro.types import FrameShape
        backend = HlsBackend()
        x = rng.standard_normal((24, 32)).astype(np.float32)
        Dtcwt2D(levels=3, backend=backend).forward(x)
        expected = WorkModel(FrameShape(32, 24), levels=3).forward_invocations()
        assert backend.engine.stats.invocations == expected

    def test_every_pass_goes_through_the_line_jobs(self, rng,
                                                   monkeypatch):
        """One 88x72 / 3-level forward plus inverse makes exactly one
        ``forward_line``/``inverse_line`` call per filter pass: 27 each
        way.  Tracers time the HLS layer by wrapping those two methods,
        so a pass that bypassed them would read as zero time."""
        from repro.hw.hls import HlsWaveletEngine
        from repro.hw.work import WorkModel
        from repro.types import FrameShape
        calls = []
        for name in ("forward_line", "inverse_line"):
            job = getattr(HlsWaveletEngine, name)

            def counted(self, *args, _job=job, _name=name, **kwargs):
                calls.append(_name)
                return _job(self, *args, **kwargs)
            monkeypatch.setattr(HlsWaveletEngine, name, counted)
        backend = HlsBackend()
        transform = Dtcwt2D(levels=3, backend=backend)
        x = rng.standard_normal((72, 88)).astype(np.float32)
        transform.inverse(transform.forward(x))
        assert calls.count("forward_line") == calls.count("inverse_line") == 27
        work = WorkModel(FrameShape(88, 72), levels=3)
        assert backend.engine.stats.invocations == (
            work.forward_invocations() + work.inverse_invocations())

    def test_line_width_limit(self, rng):
        backend = HlsBackend()
        too_wide = rng.standard_normal((4, 4096)).astype(np.float32)
        with pytest.raises(EngineError):
            backend.analysis_d(too_wide, np.ones(14) / 14, np.ones(14) / 14, 1)


class TestMakeBackend:
    def test_engine_produces_working_backend(self, rng):
        engine = FpgaEngine()
        transform = engine.transform(levels=2)
        x = rng.standard_normal((16, 16))
        rec = transform.inverse(transform.forward(x))
        assert np.max(np.abs(rec - x)) < 1e-4

    def test_backends_are_independent(self):
        engine = FpgaEngine()
        b1, b2 = engine.make_backend(), engine.make_backend()
        assert b1.engine is not b2.engine
