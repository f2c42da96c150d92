"""Per-frame quality and monitor readings under every driver.

The session grades each compute batch with one stacked
``fusion_report`` (or, with the metrics off and the monitor on, one
stacked ``petrovic_qabf``).  Whatever the batch — serial, batch at any
size, pipeline, a serving grant or ``process()`` — every frame's
quality dict must be bitwise what ``tests/metrics_oracle.py`` gives
that frame alone, and the monitor's readings, alarms and actions
must be bitwise those of a monitor that grades every frame with the
oracle's metrics, as the monitor did before the batching.  The
streams lose one sensor part-way, so the monitor's alarm paths run.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from metrics_oracle import (oracle_fusion_report, oracle_petrovic_qabf,
                            oracle_spatial_frequency)
from repro.core.quality_monitor import QualityMonitor
from repro.serve import FusionService
from repro.session import ArraySource, FusionConfig, FusionSession
from repro.session.session import _SessionProcessor
from repro.types import FrameShape
from repro.video.scene import SyntheticScene

SHAPE = FrameShape(32, 24)
FRAMES = 10
DEAD_FROM = 5


def config(**overrides):
    defaults = dict(engine="neon", fusion_shape=SHAPE, levels=2, seed=3,
                    monitor=True, quality_metrics=True)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def footage(dead: str):
    """Visible and thermal frames at the fusion shape; from frame
    ``DEAD_FROM`` on, the ``dead`` sensor reads flat."""
    scene = SyntheticScene(width=SHAPE.width, height=SHAPE.height, seed=9)
    visible, thermal = [], []
    for i in range(FRAMES):
        v = scene.render_visible(i / 25.0)
        t = scene.render_thermal(i / 25.0)
        if i >= DEAD_FROM:
            if dead == "thermal":
                t = np.full_like(t, 128.0)
            else:
                v = np.zeros_like(v)
        visible.append(v)
        thermal.append(t)
    return visible, thermal


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@lru_cache(maxsize=None)
def reference(dead: str, engine: str):
    """The serial run's frames and float fused images (metrics and
    monitor off), then the oracle's report and a monitor that grades
    each frame with the oracle's Q^AB/F and spatial frequency.  The FPGA lane's fused frames are
    column-major, so its reports add their whole-image sums column by
    column."""
    fused = {}
    finalize = _SessionProcessor.finalize

    def capture(self, task):
        fused[task.index] = np.array(task.fused, dtype=np.float64)
        return finalize(self, task)

    with mock.patch.object(_SessionProcessor, "finalize", capture):
        with FusionSession(config(engine=engine, monitor=False,
                                  quality_metrics=False)) as session:
            records = session.run(
                FRAMES, source=ArraySource(*footage(dead))).records
    monitor = QualityMonitor()
    reports = []
    with mock.patch("repro.core.quality_monitor.spatial_frequency",
                    oracle_spatial_frequency):
        for record in records:
            v, t, f = record.visible, record.thermal, fused[record.index]
            reports.append(oracle_fusion_report(v, t, f))
            monitor.observe(v, t, f, qabf=oracle_petrovic_qabf(v, t, f))
    return records, reports, monitor


@pytest.fixture(params=["thermal", "visible"])
def dead(request):
    return request.param


def assert_parity(records, ref_records, ref_reports, quality_metrics):
    assert [r.index for r in records] == list(range(FRAMES))
    for got, want, report in zip(records, ref_records, ref_reports):
        assert np.array_equal(got.frame.pixels, want.frame.pixels)
        if quality_metrics:
            assert list(got.quality) == list(report)
            for key, value in report.items():
                assert bits(got.quality[key]) == bits(value), key
        else:
            assert got.quality == {}


def assert_same_readings(history, monitor):
    assert len(history) == len(monitor.history)
    for got, want in zip(history, monitor.history):
        assert got.frame == want.frame
        assert got.action == want.action
        assert (got.visible_healthy, got.thermal_healthy) == \
            (want.visible_healthy, want.thermal_healthy)
        for field in ("visible_activity", "thermal_activity", "fused_qabf"):
            assert bits(getattr(got, field)) == bits(getattr(want, field))


def session_run(session, dead):
    return session.run(FRAMES, source=ArraySource(*footage(dead))).records


def session_process(session, dead):
    return [session.process(v, t) for v, t in zip(*footage(dead))]


DRIVERS = {
    "serial": (dict(executor="serial"), session_run),
    "batch-1": (dict(executor="batch", batch_size=1), session_run),
    "batch-3": (dict(executor="batch", batch_size=3), session_run),
    "batch-8": (dict(executor="batch", batch_size=8), session_run),
    "pipeline": (dict(executor="pipeline"), session_run),
    "process": (dict(), session_process),
    "fpga-serial": (dict(engine="fpga", executor="serial"), session_run),
    "fpga-batch-3": (dict(engine="fpga", executor="batch", batch_size=3),
                     session_run),
}


class TestSessionDrivers:
    @pytest.mark.parametrize("quality_metrics", [True, False])
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_quality_and_readings_match_the_oracle(
            self, dead, driver, quality_metrics):
        overrides, drive = DRIVERS[driver]
        ref_records, ref_reports, ref_monitor = reference(
            dead, overrides.get("engine", "neon"))
        with FusionSession(config(quality_metrics=quality_metrics,
                                  **overrides)) as session:
            records = drive(session, dead)
            assert_parity(records, ref_records, ref_reports,
                          quality_metrics)
            assert_same_readings(session.monitor.history, ref_monitor)
            assert session.monitor.alarms == ref_monitor.alarms
            assert ref_monitor.alarms > 0
        assert [r.action for r in records] == \
            [r.action for r in ref_monitor.history]


class TestServedTenants:
    def test_two_tenants_match_the_oracle(self, dead):
        """A neon and an FPGA tenant share the service; each grant is
        graded as one batch."""
        service = FusionService(pool={"neon": 1, "fpga": 1})
        for engine in ("neon", "fpga"):
            service.add_stream(engine, config=config(engine=engine),
                               source=ArraySource(*footage(dead)),
                               frames=FRAMES)
        report = service.serve()
        for engine in ("neon", "fpga"):
            ref_records, ref_reports, ref_monitor = reference(dead, engine)
            stream = report.streams[engine]
            assert_parity(stream.records, ref_records, ref_reports, True)
            assert [r.action for r in stream.records] == \
                [r.action for r in ref_monitor.history]
            assert stream.alarms == ref_monitor.alarms
            assert bits(stream.mean_qabf) == bits(ref_monitor.mean_qabf())
