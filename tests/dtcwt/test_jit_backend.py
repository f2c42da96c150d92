"""Host KernelBackend: bitwise parity with the oracle, pooling, fallback.

The host backend's whole contract is *bitwise* equality with the
circular-convolution oracle (``tests/kernel_oracle.py``) at the same
dtype — not closeness — because the halo-extension formulation replays
the oracle's per-element IEEE operation sequence.  These tests pin that contract across all four
primitives, both dtypes, arbitrary leading batch axes and every
filtered axis, plus the scratch-pool steady state and the
Numba-availability switches.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.dtcwt.backend import NUMBA_AVAILABLE, KernelBackend, ScratchPool
from repro.dtcwt.coeffs import dtcwt_banks
from repro.dtcwt.transform2d import Dtcwt2D

from kernel_oracle import NumpyBackend

SHAPES = [(16,), (12, 16), (3, 12, 16), (2, 3, 10, 8)]


@pytest.fixture
def banks():
    return dtcwt_banks()


def _primitive_outputs(backend, x, banks, axis):
    """All four primitives' outputs on matching inputs."""
    lvl, q = banks.level1, banks.qshift
    lo_u, hi_u = backend.analysis_u(x, lvl.h0, lvl.c_h0,
                                    lvl.h1, lvl.c_h1, axis)
    syn_u = backend.synthesis_u(lo_u, hi_u, lvl.g0, lvl.c_g0,
                                lvl.g1, lvl.c_g1, axis)
    lo_d, hi_d = backend.analysis_d(x, q.h0a, q.h1a, axis)
    syn_d = backend.synthesis_d(lo_d, hi_d, q.h0a, q.h1a, axis)
    return lo_u, hi_u, syn_u, lo_d, hi_d, syn_d


class TestBitwiseParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_primitives_all_axes(self, rng, banks, dtype, shape):
        x = rng.standard_normal(shape)
        ref = NumpyBackend(dtype=dtype)
        jit = KernelBackend(dtype=dtype)
        for axis in range(len(shape)):
            if x.shape[axis] % 2:
                continue  # decimated pair needs an even axis
            for a, b in zip(_primitive_outputs(ref, x, banks, axis),
                            _primitive_outputs(jit, x, banks, axis)):
                assert a.dtype == b.dtype == dtype
                # array_equal + signbit: -0.0 must survive (the
                # zero-stuffed synthesis keeps zero data terms)
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_full_transform_roundtrip(self, rng, banks, dtype):
        img = rng.standard_normal((40, 48)) * 64.0
        ref = Dtcwt2D(levels=3, banks=banks,
                      backend=NumpyBackend(dtype=dtype))
        jit = Dtcwt2D(levels=3, banks=banks,
                      backend=KernelBackend(dtype=dtype))
        pr = ref.forward(img)
        pj = jit.forward(img)
        assert np.array_equal(pr.lowpass, pj.lowpass)
        for hr, hj in zip(pr.highpasses, pj.highpasses):
            assert np.array_equal(hr, hj)
        assert np.array_equal(ref.inverse(pr), jit.inverse(pj))

    def test_negative_axis(self, rng, banks):
        x = rng.standard_normal((6, 16))
        ref = NumpyBackend(dtype=np.float32)
        jit = KernelBackend(dtype=np.float32)
        for a, b in zip(_primitive_outputs(ref, x, banks, -1),
                        _primitive_outputs(jit, x, banks, -1)):
            assert np.array_equal(a, b)


class TestScratchSteadyState:
    def test_pool_stops_growing(self, rng, banks):
        """Steady state must allocate only outputs: the pooled buffer
        count stabilizes after the first call at each shape."""
        jit = KernelBackend(dtype=np.float32)
        x = rng.standard_normal((4, 16, 20))
        for axis in (1, 2):
            _primitive_outputs(jit, x, banks, axis)
        settled = len(jit._pool)
        for _ in range(3):
            for axis in (1, 2):
                _primitive_outputs(jit, x, banks, axis)
        assert len(jit._pool) == settled

    def test_outputs_are_never_pooled(self, rng, banks):
        """Callers hold returned subbands across calls; a second call
        must not overwrite the first call's outputs."""
        jit = KernelBackend(dtype=np.float64)
        q = banks.qshift
        x = rng.standard_normal((8, 16))
        lo1, hi1 = jit.analysis_d(x, q.h0a, q.h1a, axis=1)
        keep_lo, keep_hi = lo1.copy(), hi1.copy()
        jit.analysis_d(rng.standard_normal((8, 16)), q.h0a, q.h1a, axis=1)
        assert np.array_equal(lo1, keep_lo)
        assert np.array_equal(hi1, keep_hi)


class TestInputAliasingContract:
    """_x() may alias the caller's buffer at matching dtype; every
    primitive must leave its inputs bit-unchanged."""

    @pytest.mark.parametrize("make", [
        lambda dtype: NumpyBackend(dtype=dtype),
        lambda dtype: KernelBackend(dtype=dtype),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_untouched(self, rng, banks, make, dtype):
        backend = make(dtype)
        x = rng.standard_normal((8, 16)).astype(dtype)
        snap = x.copy()
        lvl, q = banks.level1, banks.qshift
        lo, hi = backend.analysis_u(x, lvl.h0, lvl.c_h0,
                                    lvl.h1, lvl.c_h1, axis=1)
        lo_s, hi_s = lo.copy(), hi.copy()
        backend.synthesis_u(lo, hi, lvl.g0, lvl.c_g0,
                            lvl.g1, lvl.c_g1, axis=1)
        assert np.array_equal(lo, lo_s) and np.array_equal(hi, hi_s)
        lo_d, hi_d = backend.analysis_d(x, q.h0a, q.h1a, axis=1)
        lo_ds, hi_ds = lo_d.copy(), hi_d.copy()
        backend.synthesis_d(lo_d, hi_d, q.h0a, q.h1a, axis=1)
        assert np.array_equal(lo_d, lo_ds)
        assert np.array_equal(hi_d, hi_ds)
        assert np.array_equal(x, snap)
        assert x.dtype == dtype  # aliased, not up-cast in place


class TestScratchPool:
    def test_dtype_switch_drops_every_key(self):
        pool = ScratchPool()
        a64 = pool.take("a", (4, 4), np.float64)
        pool.take("b", (8,), np.float64)
        assert len(pool) == 2
        a32 = pool.take("a", (4, 4), np.float32)
        # the generation flipped: *both* float64 buffers are gone,
        # not just the re-requested key
        assert len(pool) == 1
        assert a32.dtype == np.float32
        assert a32 is not a64
        b32 = pool.take("b", (8,), np.float32)
        assert len(pool) == 2
        assert b32.dtype == np.float32

    def test_same_dtype_reuses_buffers(self):
        pool = ScratchPool()
        first = pool.take("k", (6, 6), np.float32)
        again = pool.take("k", (6, 6), np.float32)
        assert again is first

    def test_shape_change_reallocates_one_key(self):
        pool = ScratchPool()
        pool.take("k", (6, 6), np.float32)
        other = pool.take("other", (3,), np.float32)
        grown = pool.take("k", (12, 6), np.float32)
        assert grown.shape == (12, 6)
        assert pool.take("other", (3,), np.float32) is other

    def test_clear_resets_dtype_generation(self):
        pool = ScratchPool()
        pool.take("k", (4,), np.float64)
        pool.clear()
        assert len(pool) == 0
        assert pool.nbytes == 0
        buf = pool.take("k", (4,), np.float32)
        assert buf.dtype == np.float32

    def test_nbytes_tracks_contents(self):
        pool = ScratchPool()
        pool.take("k", (4,), np.float64)
        assert pool.nbytes == 32


class TestNumbaSwitches:
    def test_forced_fallback_matches(self, rng, banks):
        """compiled=False pins the NumPy path regardless of install."""
        jit = KernelBackend(dtype=np.float32, compiled=False)
        assert jit.compiled is False
        ref = NumpyBackend(dtype=np.float32)
        x = rng.standard_normal((4, 16))
        for a, b in zip(_primitive_outputs(ref, x, banks, 1),
                        _primitive_outputs(jit, x, banks, 1)):
            assert np.array_equal(a, b)

    def test_auto_tracks_availability(self):
        assert KernelBackend().compiled is NUMBA_AVAILABLE

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_compiled_true_requires_numba(self):
        with pytest.raises(RuntimeError, match="numba"):
            KernelBackend(compiled=True)

    def test_env_kill_switch_forces_fallback(self):
        """REPRO_NO_NUMBA=1 must disable the compiled path at import
        (checked in a subprocess: the flag is read once, at import)."""
        env = dict(os.environ, REPRO_NO_NUMBA="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.dtcwt.backend import NUMBA_AVAILABLE, "
             "KernelBackend; print(NUMBA_AVAILABLE, "
             "KernelBackend().compiled)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]
