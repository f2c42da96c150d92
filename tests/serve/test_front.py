"""The service front both serving tiers share, checked on each tier.

``FusionService`` and ``ShardedFusionService`` take streams through one
:class:`~repro.serve.service.ServiceFront`: one attach guard, one
stream validation, one drive per instance, one ``close``, one report
assembly.  Every contract here runs against both.
"""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, FusionError
from repro.serve import (FusionService, ShardedFusionService, StreamSLO,
                         StreamSpec)
from repro.session import (FramePair, FrameSource, FusionConfig,
                           SyntheticSource)
from repro.types import FrameShape

MID = FrameShape(40, 40)

FRONTS = {
    "FusionService": lambda **kwargs: FusionService(
        pool={"neon": 1}, **kwargs),
    "ShardedFusionService": lambda **kwargs: ShardedFusionService(
        pool={"neon": 1}, shards=1, **kwargs),
}


@pytest.fixture(params=sorted(FRONTS))
def front(request):
    """Builds an empty service of one front (``neon`` pool)."""
    return FRONTS[request.param]


def config(**overrides):
    defaults = dict(engine="neon", fusion_shape=MID, levels=2, seed=5,
                    quality_metrics=False)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def add(service, name="s", frames=1, method="add_stream", **kwargs):
    kwargs.setdefault("source", SyntheticSource(seed=1))
    kwargs.setdefault("config", config())
    return getattr(service, method)(name, frames=frames, **kwargs)


class _ClosableSource(FrameSource):
    def __init__(self, n=5, shape=(40, 40)):
        self.n = n
        self.shape = shape
        self.closed = False

    def frames(self):
        for i in range(self.n):
            yield FramePair(visible=np.full(self.shape, 10.0 + i),
                            thermal=np.full(self.shape, 200.0 - i),
                            timestamp_s=i / 25.0, index=i)

    def close(self):
        self.closed = True


# ----------------------------------------------------------------------
class TestAttachGuard:
    @pytest.mark.parametrize("kwargs", [
        dict(frames=0), dict(priority=0.0), dict(priority=-1.0),
        dict(batch_frames=0),
        dict(priority=2.0, slo=StreamSLO(target_fps=1.0)),
        # unknown config fields, with a config and without one (an
        # otherwise valid neon stream, so the name is the only fault)
        dict(bogus=1), dict(config=None, engine="neon", bogus=1),
    ])
    def test_bad_stream_parameters_rejected_at_add(self, front, kwargs):
        service = front()
        with pytest.raises(ConfigurationError):
            add(service, **kwargs)
        assert service.stream_names() == []
        service.close()

    def test_config_overrides_take_one_path(self, front):
        """Overrides with or without a config admit the config that
        ``FusionConfig(**kw)`` describes."""
        kw = dict(engine="neon", fusion_shape=(40, 40), levels=2,
                  quality_metrics=False)
        service = front()
        try:
            for name, base in (("bare", None), ("based", FusionConfig())):
                admitted = add(service, name=name, config=base, **kw)
                # every front returns the admitted StreamSpec
                assert type(admitted) is StreamSpec
                assert admitted.config == FusionConfig(**kw)
        finally:
            service.close()

    def test_missing_source_rejected(self, front):
        service = front()
        with pytest.raises(ConfigurationError, match="source"):
            add(service, source=None)
        service.close()

    def test_duplicate_and_unknown_names_rejected(self, front):
        service = front(live=True)
        add(service, frames=2)
        with pytest.raises(ConfigurationError, match="duplicate"):
            add(service, frames=2)
        service.start()
        try:
            with pytest.raises(ConfigurationError, match="duplicate"):
                add(service, frames=2, method="attach")
            with pytest.raises(ConfigurationError, match="no stream"):
                service.detach("nobody")
        finally:
            service.close()

    @pytest.mark.parametrize("method", ["add_stream", "attach"])
    def test_fixed_drive_rejects_late_attach(self, front, method):
        service = front()
        add(service, frames=2)
        service.start()
        try:
            with pytest.raises(ConfigurationError, match="live=True"):
                add(service, "late", frames=2, method=method)
            report = service.wait()
        finally:
            service.close()
        assert set(report.streams) == {"s"}


# ----------------------------------------------------------------------
class TestOneDrive:
    def test_empty_service_cannot_start(self, front):
        with pytest.raises(ConfigurationError, match="no streams"):
            front().serve()

    def test_service_is_one_shot(self, front):
        service = front()
        add(service)
        service.serve()
        with pytest.raises(FusionError, match="one"):
            service.start()

    def test_second_start_while_running_raises(self, front):
        service = front()
        add(service, frames=2)
        service.start()
        before = threading.active_count()
        with pytest.raises(FusionError, match="already started"):
            service.start()
        # the failed start spawned no duplicate threads
        assert threading.active_count() == before
        service.wait()

    def test_start_after_close_raises(self, front):
        service = front()
        add(service)
        service.close()
        with pytest.raises(FusionError, match="closed"):
            service.start()

    def test_close_is_idempotent(self, front):
        service = front()
        add(service)
        service.serve()
        service.close()
        service.close()  # second close is a no-op, never raises

    def test_close_before_start_releases_streams(self, front):
        """Leaving the with-block without serving must still release
        every added stream's source (and, in process, its session)."""
        source = _ClosableSource(n=5)
        with front() as service:
            add(service, frames=5, source=source)
        assert source.closed
        if isinstance(service, FusionService):
            assert service._streams["s"].session._closed


# ----------------------------------------------------------------------
class TestReport:
    def test_metrics_carry_the_end_of_drive_gauges(self, front):
        service = front()
        add(service, frames=2)
        report = service.serve()
        metrics = report.metrics
        assert metrics["repro_serve_aggregate_fps"]["series"]["{}"] \
            == report.aggregate_fps > 0
        occupancy = metrics["repro_serve_engine_occupancy_ratio"]["series"]
        assert sorted(occupancy.values()) \
            == sorted(report.engine_occupancy.values())
        energy = metrics["repro_serve_stream_energy_millijoules"]["series"]
        assert list(energy.values()) == [report.energy_mj_by_stream["s"]]

    def test_ledger_balances_after_the_drive(self, front):
        service = front()
        add(service, frames=3)
        report = service.serve()
        assert report.ledger == service.ledger()
        assert report.ledger["balanced"]
        assert report.ledger["totals"]["finalized"] == 3
        assert report.ledger["streams"]["s"]["offered"] == 3
