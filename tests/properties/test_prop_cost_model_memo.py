"""Differential tests of the memoized engine cost model.

``Engine.forward_time``/``inverse_time``/``fusion_time``/``frame_time``
evaluate the analytic model once per configuration and return the same
frozen breakdown to every later caller.  The subclasses' live methods
(``_forward_time``, ``_inverse_time``, ``_fusion_time``) are the
oracle: every memoized field must be bitwise-equal to a fresh live
evaluation, and engines whose model inputs differ must never share an
entry.  A steady-state check rides along: once a session has fused its
first frame, later frames never re-run the per-pass model.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtcwt.coeffs import DtcwtBanks, dtcwt_banks
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.dvfs import scaled_calibration
from repro.hw.fpga import FpgaEngine
from repro.hw.platform import DEFAULT_PLATFORM, ZynqPlatform
from repro.hw.registry import create_engine, engine_names
from repro.hw.work import WorkModel
from repro.session import FusionConfig, FusionSession
from repro.types import FrameShape

_SETTINGS = dict(deadline=None, max_examples=40)
_FIELDS = ("compute_s", "transfer_s", "command_s", "overhead_s")

#: a second, distinct bank object with the default filters' contents,
#: and a genuinely different bank set
_DEFAULT_BANKS = dtcwt_banks()
_COPIED_BANKS = DtcwtBanks(level1=_DEFAULT_BANKS.level1,
                           qshift=_DEFAULT_BANKS.qshift)
_OTHER_BANKS = dtcwt_banks("legall53", 18)

shapes = st.one_of(
    st.sampled_from([FrameShape(35, 35), FrameShape(88, 72),
                     FrameShape(2, 2), FrameShape(5, 7)]),
    st.builds(FrameShape, st.integers(1, 64), st.integers(1, 64)),
)
calibrations = st.one_of(
    st.just(DEFAULT_CALIBRATION),
    st.sampled_from((266e6, 400e6, 533e6, 667e6)).map(scaled_calibration),
    st.floats(0.5, 2.0).map(lambda k: DEFAULT_CALIBRATION.with_overrides(
        arm_pass_overhead_s=DEFAULT_CALIBRATION.arm_pass_overhead_s * k,
        fpga_driver_invocation_s=(
            DEFAULT_CALIBRATION.fpga_driver_invocation_s * k))),
)


def _engine(name, calibration=DEFAULT_CALIBRATION, banks=_DEFAULT_BANKS,
            double_buffered=True, platform=DEFAULT_PLATFORM):
    cls = type(create_engine(name))
    if cls is FpgaEngine:
        return FpgaEngine(platform, calibration, banks,
                          double_buffered=double_buffered)
    return cls(platform, calibration, banks)


def _bits(breakdown):
    return tuple(np.float64(getattr(breakdown, f)).tobytes()
                 for f in _FIELDS)


def _live_frame(engine, shape, levels, sources):
    fwd = engine._forward_time(shape, levels)
    total = fwd
    for _ in range(sources - 1):
        total = total + fwd
    return (total + engine._fusion_time(shape, levels)
            + engine._inverse_time(shape, levels))


@st.composite
def model_case(draw):
    name = draw(st.sampled_from(engine_names()))
    calibration = draw(calibrations)
    banks = draw(st.sampled_from((_DEFAULT_BANKS, _COPIED_BANKS,
                                  _OTHER_BANKS)))
    double_buffered = draw(st.booleans())
    engine = _engine(name, calibration, banks, double_buffered)
    return (engine, draw(shapes), draw(st.integers(1, 4)),
            draw(st.integers(1, 4)))


class TestMemoizedModelMatchesLive:
    @settings(**_SETTINGS)
    @given(case=model_case())
    def test_every_field_bitwise_equal(self, case):
        engine, shape, levels, sources = case
        # twice: the first call may fill the entry, the second reads it
        for _ in range(2):
            assert _bits(engine.forward_time(shape, levels)) \
                == _bits(engine._forward_time(shape, levels))
            assert _bits(engine.inverse_time(shape, levels)) \
                == _bits(engine._inverse_time(shape, levels))
            assert _bits(engine.fusion_time(shape, levels)) \
                == _bits(engine._fusion_time(shape, levels))
            assert _bits(engine.frame_time(shape, levels, sources)) \
                == _bits(_live_frame(engine, shape, levels, sources))

    @settings(**_SETTINGS)
    @given(case=model_case())
    def test_equal_parameters_share_one_entry(self, case):
        engine, shape, levels, sources = case
        twin = _engine(engine.name, engine.calibration, engine.banks,
                       getattr(engine, "double_buffered", True))
        assert engine.forward_time(shape, levels) \
            is twin.forward_time(shape, levels)
        assert engine.frame_time(shape, levels, sources) \
            is twin.frame_time(shape, levels, sources)

    @settings(**_SETTINGS)
    @given(name=st.sampled_from(engine_names()), shape=shapes,
           levels=st.integers(1, 4), sources=st.integers(1, 4),
           scale=st.floats(0.5, 2.0).filter(lambda k: k != 1.0))
    def test_differing_parameters_never_share(self, name, shape, levels,
                                              sources, scale):
        """Engines differing in exactly one model input, queried at the
        same (shape, levels), each get their own entry holding their
        own live result."""
        overridden = DEFAULT_CALIBRATION.with_overrides(
            arm_mac_rate_fwd=DEFAULT_CALIBRATION.arm_mac_rate_fwd * scale)
        variants = [
            _engine(name),
            _engine(name, calibration=scaled_calibration(400e6)),
            _engine(name, calibration=overridden),
            _engine(name, banks=_COPIED_BANKS),
            _engine(name, banks=_OTHER_BANKS),
            _engine(name, platform=ZynqPlatform(pl_clock_hz=150e6)),
        ]
        if name == "fpga":
            variants.append(_engine(name, double_buffered=False))
        queries = (
            (lambda e: e.forward_time(shape, levels),
             lambda e: e._forward_time(shape, levels)),
            (lambda e: e.inverse_time(shape, levels),
             lambda e: e._inverse_time(shape, levels)),
            (lambda e: e.fusion_time(shape, levels),
             lambda e: e._fusion_time(shape, levels)),
            (lambda e: e.frame_time(shape, levels, sources),
             lambda e: _live_frame(e, shape, levels, sources)),
        )
        for memoized, live in queries:
            results = [memoized(engine) for engine in variants]
            assert len({id(r) for r in results}) == len(results)
            for engine, result in zip(variants, results):
                assert _bits(result) == _bits(live(engine))

    def test_engine_types_never_share(self):
        shape = FrameShape(40, 40)
        results = [create_engine(name).forward_time(shape, 2)
                   for name in engine_names()]
        assert len({id(r) for r in results}) == len(results)

    def test_shape_levels_and_sources_are_part_of_the_key(self):
        engine = FpgaEngine()
        base = engine.frame_time(FrameShape(40, 40), 2)
        assert engine.frame_time(FrameShape(40, 40), 3) is not base
        assert engine.frame_time(FrameShape(40, 32), 2) is not base
        assert engine.frame_time(FrameShape(40, 40), 2, sources=3) \
            is not base

    def test_concurrent_first_evaluations_agree(self):
        """Threads racing to fill one entry all get the same breakdown,
        bitwise equal to the live model."""
        calibration = DEFAULT_CALIBRATION.with_overrides(
            fpga_ps_word_s=DEFAULT_CALIBRATION.fpga_ps_word_s * 1.0625)
        shape = FrameShape(52, 44)
        engines = [FpgaEngine(calibration=calibration) for _ in range(8)]
        barrier = threading.Barrier(len(engines))
        results = [None] * len(engines)

        def query(i):
            barrier.wait(timeout=10)
            results[i] = engines[i].frame_time(shape, 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(len(engines))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is results[0] for result in results)
        assert _bits(results[0]) == _bits(_live_frame(engines[0], shape,
                                                      3, 2))


class _CallCounter:
    """Counts calls into the per-pass model while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for owner, name in ((FpgaEngine, "_pass_cost"),
                            (WorkModel, "forward_passes")):
            original = getattr(owner, name)

            def counted(*args, _original=original, **kwargs):
                self.calls += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)


class TestSteadyStateFrames:
    @pytest.mark.parametrize("executor", ("serial", "batch"))
    @pytest.mark.parametrize("engine", ("fpga", "adaptive"))
    def test_no_model_work_after_the_first_frame(self, monkeypatch,
                                                 executor, engine):
        shape = FrameShape(36, 28)
        rng = np.random.default_rng(16)
        pairs = [(rng.uniform(0, 255, shape.array_shape),
                  rng.uniform(0, 255, shape.array_shape))
                 for _ in range(5)]
        counter = _CallCounter(monkeypatch)
        config = FusionConfig(engine=engine, executor=executor,
                              batch_size=2, fusion_shape=shape, levels=2,
                              quality_metrics=False)
        with FusionSession(config) as session:
            session.run(1, source=iter(pairs[:1]))
            counter.calls = 0
            report = session.run(4, source=iter(pairs[1:]))
        assert report.frames == 4
        assert counter.calls == 0

    def test_counter_sees_a_live_evaluation(self, monkeypatch):
        counter = _CallCounter(monkeypatch)
        FpgaEngine()._forward_time(FrameShape(36, 28), 2)
        assert counter.calls > 0
