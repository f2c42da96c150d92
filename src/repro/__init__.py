"""repro — reproduction of "Energy Efficient Video Fusion with
Heterogeneous CPU-FPGA Devices" (Nunez-Yanez & Sun, DATE 2016).

The package implements the paper's complete system in simulation:

* :mod:`repro.dtcwt` — the Dual-Tree Complex Wavelet Transform substrate
  (filters designed from first principles, perfect reconstruction);
* :mod:`repro.core` — DT-CWT image/video fusion, fusion-quality metrics
  and the adaptive NEON/FPGA scheduler (the paper's key finding);
* :mod:`repro.hw` — the modelled ZYNQ platform: ARM, NEON and FPGA
  engines (a shared registry makes them selectable by name), AXI
  interconnect, HLS wavelet datapath, kernel driver, power rails,
  energy accounting and resource estimation;
* :mod:`repro.baselines` — related-work fusion algorithms;
* :mod:`repro.graph` — the declarative plan API: frame processing as
  a dataflow IR (:class:`Stage`/:class:`FusionGraph`) lowered by a
  :class:`Planner` into the :class:`FusionPlan` every executor
  interprets;
* :mod:`repro.exec` — the pluggable execution layer: serial, pipelined
  (double-buffered) and micro-batched frame executors — all
  interpreters of the lowered plan, selectable via
  ``FusionConfig(executor=...)``;
* :mod:`repro.video` — cameras, BT.656 decode, scaler, FIFO and the
  :class:`CaptureChain` that wires them (the paper's Fig. 7 capture
  path; :class:`CaptureChainSource` feeds it to a session);
* :mod:`repro.serve` — multi-stream serving: N concurrent sessions
  multiplexed over a shared, leasable :class:`EnginePool` with
  admission control and energy-fair scheduling
  (:class:`FusionService`);
* :mod:`repro.session` — the public API: one :class:`FusionConfig`,
  one :class:`FusionSession` facade, pluggable :class:`FrameSource`
  streams (synthetic worlds, in-memory arrays, camera simulators, the
  full modelled capture chain);
* :mod:`repro.sweeps` / :mod:`repro.figures` — the Fig. 9/Fig. 10
  parameter sweeps over the engine models, as tables and SVG charts.

Quick start::

    from repro import FusionConfig, FusionSession, SyntheticSource

    session = FusionSession(FusionConfig(engine="adaptive", seed=7))
    report = session.run(10)                    # batch over capture chain
    for result in session.stream(SyntheticSource(seed=7), limit=5):
        ...                                     # continuous streaming

    from repro import fuse_images
    fused = fuse_images(visible, thermal)       # one frame pair
"""

from .core.adaptive import CostModelScheduler, OnlineScheduler, PerLevelScheduler
from .core.fusion import FusionResult, ImageFusion, fuse_images
from .exec import (
    BatchExecutor,
    ExecStats,
    PipelineExecutor,
    SerialExecutor,
    executor_names,
    register_executor,
)
from .core.fusion_rules import MaxMagnitudeRule, WeightedRule, WindowActivityRule
from .core.metrics import fusion_report
from .dtcwt import Dtcwt2D, DtcwtPyramid, Dwt2D, dtcwt_banks
from .errors import ReproError
from .hw import (
    ArmEngine,
    FpgaEngine,
    NeonEngine,
    ZynqPlatform,
    create_engine,
    engine_names,
    register_engine,
)
# NOTE: the session's pair-stream FrameSource is deliberately not
# re-exported here — repro.video.FrameSource (the single-camera
# interface) already owns that name; import the pair protocol as
# repro.session.FrameSource.
from .graph import FusionGraph, FusionPlan, Planner, Stage
from .serve import EngineLease, EnginePool, FusionService, ServiceReport
from .session import (
    ArraySource,
    CameraPairSource,
    CaptureChainSource,
    FrameGroup,
    FramePair,
    FusedFrameResult,
    FusionConfig,
    FusionReport,
    FusionSession,
    SyntheticSource,
)
from .types import FULL_FRAME, PAPER_FRAME_SIZES, FrameShape
from .video import SyntheticScene

__version__ = "1.2.0"

__all__ = [
    "CostModelScheduler", "OnlineScheduler", "PerLevelScheduler",
    "FusionResult", "ImageFusion", "fuse_images",
    "MaxMagnitudeRule", "WeightedRule", "WindowActivityRule",
    "fusion_report",
    "Dtcwt2D", "DtcwtPyramid", "Dwt2D", "dtcwt_banks",
    "ReproError",
    "ArmEngine", "FpgaEngine", "NeonEngine", "ZynqPlatform",
    "create_engine", "engine_names", "register_engine",
    "ExecStats", "SerialExecutor", "PipelineExecutor", "BatchExecutor",
    "executor_names", "register_executor",
    "FusionConfig", "FusionSession", "FusionReport", "FusedFrameResult",
    "FrameGroup", "FramePair", "SyntheticSource", "ArraySource",
    "CameraPairSource", "CaptureChainSource",
    "Stage", "FusionGraph", "FusionPlan", "Planner",
    "EngineLease", "EnginePool", "FusionService", "ServiceReport",
    "FULL_FRAME", "PAPER_FRAME_SIZES", "FrameShape",
    "SyntheticScene",
    "__version__",
]

