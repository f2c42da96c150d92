"""The unified streaming fusion API.

One validated :class:`FusionConfig` describes the whole system; one
:class:`FusionSession` facade runs it — per-pair (:meth:`~FusionSession.process`),
as a continuous stream over any :class:`FrameSource`
(:meth:`~FusionSession.stream`), or as a batch with an aggregate
:class:`FusionReport` (:meth:`~FusionSession.run`).  New capture
scenarios are new frame sources, not new system classes.

Quick start::

    from repro.session import FusionConfig, FusionSession, SyntheticSource

    session = FusionSession(FusionConfig(engine="adaptive", seed=7))
    for result in session.stream(SyntheticSource(seed=7), limit=10):
        print(result.engine, result.model_millijoules)
    print(session.report().as_dict())

The frame dataflow itself is declarative: the session builds its
pipeline as a :class:`repro.graph.FusionGraph`, lowers it through the
:class:`repro.graph.Planner`, and every executor interprets the
resulting plan.  ``session.plan.describe()`` shows the schedule and
placements; ``session.canonical_graph()`` returns a copy to extend
with custom stages for ``run(..., graph=...)``.
"""

from .config import FUSION_RULES, SCHEDULER_NAMES, FusionConfig
from .report import FusedFrameResult, FusionReport
from .session import FusionSession
from .sources import (
    ArraySource,
    CameraPairSource,
    CaptureChainSource,
    FrameGroup,
    FramePair,
    FrameSource,
    SyntheticSource,
    as_frame_source,
)
from .telemetry import FrameTelemetry, TelemetrySummary

__all__ = [
    "FUSION_RULES", "SCHEDULER_NAMES", "FusionConfig",
    "FusedFrameResult", "FusionReport",
    "FusionSession",
    "ArraySource", "CameraPairSource",
    "CaptureChainSource", "FrameGroup", "FramePair", "FrameSource",
    "SyntheticSource", "as_frame_source",
    "FrameTelemetry", "TelemetrySummary",
]
