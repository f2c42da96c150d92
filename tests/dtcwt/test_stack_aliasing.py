"""The stacked kernels never return a view of their input stack.

The session feeds every stacked core from a pooled input stack that it
overwrites on the next call.  Under the ``pipeline`` executor a frame's
pyramids are still in flight when the worker writes its next frame
into that stack, so pooling is only safe while no array the kernels
return shares memory with their input.  This checks it for every
registered engine, batch sizes B = 1..3 and N = 2 or 3 sources.
"""

import numpy as np
import pytest

from repro.core.fusion import ImageFusion
from repro.hw.registry import create_engine, engine_names

SHAPE = (24, 32)
LEVELS = 2


@pytest.mark.parametrize("n_sources", (2, 3))
@pytest.mark.parametrize("batch", (1, 2, 3))
@pytest.mark.parametrize("engine", engine_names())
def test_no_output_shares_memory_with_the_input_stack(engine, batch,
                                                      n_sources):
    fuser = ImageFusion(transform=create_engine(engine).transform(LEVELS))
    rng = np.random.default_rng(batch * 10 + n_sources)
    stack = rng.uniform(0, 255, (n_sources * batch,) + SHAPE).astype(
        fuser.transform.backend.dtype)

    stacked = fuser.decompose(stack)
    outputs = [stacked.lowpass, *stacked.highpasses]
    assert len(outputs) == LEVELS + 1
    for array in outputs:
        assert not np.shares_memory(array, stack)

    slices = [stacked[s * batch:(s + 1) * batch]
              for s in range(n_sources)]
    combined = fuser.combine(*slices)
    fused = fuser.reconstruct(combined)
    assert fused.shape == (batch,) + SHAPE
    assert not np.shares_memory(fused, stack)
