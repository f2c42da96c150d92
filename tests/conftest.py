"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw.arm import ArmEngine
from repro.hw.engine import Engine
from repro.hw.fpga import FpgaEngine
from repro.hw.neon import NeonEngine
from repro.types import FrameShape
from repro.video.scene import SyntheticScene


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "soak: long-running churn/endurance tests (skipped unless "
        "selected with -m soak — CI runs them in their own "
        "deadlock-guarded step)")


def pytest_collection_modifyitems(config, items):
    # soak tests only run when explicitly asked for, so the tier-1 and
    # coverage suites stay fast; `-m soak` (the CI soak step) selects
    # them, everything else skips them
    if "soak" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="soak test: run with -m soak")
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(20160314)


@pytest.fixture
def random_image(rng):
    """A 48x64 random test image (rows, cols)."""
    return rng.standard_normal((48, 64))


@pytest.fixture
def structured_pair():
    """A (visible, thermal) pair with complementary information."""
    yy, xx = np.mgrid[0:72, 0:88]
    visible = (100.0 + 40.0 * np.sin(xx / 3.5)
               + 25.0 * (yy > 36) + 0.5 * yy)
    thermal = (60.0 + 150.0 * np.exp(-((xx - 60) ** 2 + (yy - 30) ** 2) / 90.0)
               + 90.0 * np.exp(-((xx - 20) ** 2 + (yy - 55) ** 2) / 40.0))
    return visible, thermal


@pytest.fixture
def full_frame():
    return FrameShape(88, 72)


@pytest.fixture
def small_frame():
    return FrameShape(32, 24)


@pytest.fixture(scope="session")
def arm_engine():
    return ArmEngine()


@pytest.fixture(scope="session")
def neon_engine():
    return NeonEngine()


@pytest.fixture(scope="session")
def fpga_engine():
    return FpgaEngine()


@pytest.fixture
def scene():
    return SyntheticScene(width=96, height=80, seed=42)


def _assert_bitwise_parity(reference, results, *, costs=True, label=""):
    """Golden-parity check shared by the executor, graph and serve
    suites: ``results`` must be *bitwise* identical to ``reference``
    (lists of :class:`repro.session.FusedFrameResult`) — same pixels,
    same frame order, and (unless ``costs=False``, for deliberately
    re-attributed accounting) identical modelled time/energy and
    engine labels.  The package-wide invariant: scheduling may change
    wall-clock, never a single output bit.
    """
    where = f" [{label}]" if label else ""
    assert len(results) == len(reference), \
        f"frame count mismatch{where}: {len(results)} != {len(reference)}"
    for ref, got in zip(reference, results):
        assert got.index == ref.index, \
            f"frame order diverged{where}: {got.index} != {ref.index}"
        assert np.array_equal(ref.frame.pixels, got.frame.pixels), \
            f"frame {ref.index} pixels diverged{where}"
        if costs:
            assert got.model_seconds == ref.model_seconds, \
                f"frame {ref.index} modelled seconds diverged{where}"
            assert got.model_millijoules == ref.model_millijoules, \
                f"frame {ref.index} modelled energy diverged{where}"
            assert got.engine == ref.engine, \
                f"frame {ref.index} engine label diverged{where}"


@pytest.fixture
def assert_bitwise_parity():
    """The shared run-serial/hash-frames/compare-executor helper."""
    return _assert_bitwise_parity


@pytest.fixture
def built_engines(monkeypatch):
    """Every :class:`Engine` constructed while the test runs, in order
    (clear it to start counting at a later point)."""
    built = []
    init = Engine.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "__init__", recording)
    return built
