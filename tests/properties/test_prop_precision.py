"""Property-based tests of the precision datapath contracts.

Two distinct guarantees, tested separately:

* **Tolerance parity** (documented in README "Precision & compiled
  backends"): for 0-255-scale inputs the float32 datapath's outputs
  stay within 1e-3 max-abs of the float64 datapath's — a bound, not
  bitwise (measured worst case is ~1.1e-4; the 1e-3 bar leaves ~10x
  margin so the contract is stable, not flaky).
* **Kernel-swap bitwise parity**: at a *fixed* dtype, the host
  backend is bit-for-bit identical to the circular-convolution oracle
  (``tests/kernel_oracle.py``) — swapping the kernel implementation is
  never a numerics change.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.fusion import ImageFusion
from repro.dtcwt import Dtcwt2D, KernelBackend
from repro.hw.registry import create_engine

from kernel_oracle import NumpyBackend

_SETTINGS = dict(deadline=None, max_examples=25)

#: the documented tolerance-parity bound for 0-255-scale inputs
MAX_ABS_F32_VS_F64 = 1e-3


def pixel_images(min_side=8, max_side=40):
    """0-255-scale frames — the scale the documented bound applies to."""
    sides = st.integers(min_side, max_side)
    return sides.flatmap(
        lambda rows: sides.flatmap(
            lambda cols: hnp.arrays(
                dtype=np.float64,
                shape=(rows, cols),
                elements=st.floats(0.0, 255.0, allow_nan=False,
                                   allow_infinity=False, width=64),
            )
        )
    )


class TestTolerantFloat32Parity:
    @settings(**_SETTINGS)
    @given(image=pixel_images(), levels=st.integers(1, 3))
    def test_roundtrip_within_documented_bound(self, image, levels):
        engine = create_engine("arm")
        t64 = engine.transform(levels, precision="float64")
        t32 = engine.transform(levels, precision="float32")
        r64 = t64.inverse(t64.forward(image))
        r32 = t32.inverse(t32.forward(image))
        err = np.max(np.abs(r64 - np.asarray(r32, dtype=np.float64)))
        assert err <= MAX_ABS_F32_VS_F64

    @settings(**_SETTINGS)
    @given(visible=pixel_images(min_side=12, max_side=32),
           levels=st.integers(1, 2))
    def test_fused_output_within_documented_bound(self, visible, levels):
        rng = np.random.default_rng(int(np.sum(visible)) % (2 ** 31))
        thermal = rng.uniform(0.0, 255.0, size=visible.shape)
        engine = create_engine("arm")
        f64 = ImageFusion(
            transform=engine.transform(levels, precision="float64"))
        f32 = ImageFusion(
            transform=engine.transform(levels, precision="float32"))
        a = np.asarray(f64.fuse(visible, thermal).fused, dtype=np.float64)
        b = np.asarray(f32.fuse(visible, thermal).fused, dtype=np.float64)
        assert np.max(np.abs(a - b)) <= MAX_ABS_F32_VS_F64


class TestKernelSwapBitwiseParity:
    @settings(**_SETTINGS)
    @given(image=pixel_images(),
           levels=st.integers(1, 3),
           precision=st.sampled_from([np.float32, np.float64]))
    def test_jit_equals_numpy_at_same_dtype(self, image, levels,
                                            precision):
        ref = Dtcwt2D(levels=levels, backend=NumpyBackend(dtype=precision))
        jit = Dtcwt2D(levels=levels, backend=KernelBackend(dtype=precision))
        pr, pj = ref.forward(image), jit.forward(image)
        assert np.array_equal(pr.lowpass, pj.lowpass)
        for hr, hj in zip(pr.highpasses, pj.highpasses):
            assert np.array_equal(hr, hj)
        assert np.array_equal(ref.inverse(pr), jit.inverse(pj))

    @settings(**_SETTINGS)
    @given(stack=hnp.arrays(
        dtype=np.float64, shape=st.tuples(st.integers(1, 3),
                                          st.integers(8, 20),
                                          st.integers(8, 20)),
        elements=st.floats(-255.0, 255.0, allow_nan=False,
                           allow_infinity=False, width=64)))
    def test_jit_equals_numpy_on_batched_stacks(self, stack):
        """Leading batch axes ride the same per-element arithmetic."""
        ref = Dtcwt2D(levels=2, backend=NumpyBackend(dtype=np.float32))
        jit = Dtcwt2D(levels=2, backend=KernelBackend(dtype=np.float32))
        pr = ref.forward(stack)
        pj = jit.forward(stack)
        assert np.array_equal(pr.lowpass, pj.lowpass)
        for hr, hj in zip(pr.highpasses, pj.highpasses):
            assert np.array_equal(hr, hj)
