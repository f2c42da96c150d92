"""ZYNQ CPU-FPGA platform model: engines, interconnect, driver, power.

The three engines mirror the paper's execution configurations:

* :class:`repro.hw.ArmEngine`  — ARM Cortex-A9 scalar code,
* :class:`repro.hw.NeonEngine` — NEON 128-bit SIMD,
* :class:`repro.hw.FpgaEngine` — the HLS wavelet engine on the PL.

Each engine both *computes* the transforms (through its kernel backend)
and *estimates* latency from the shared analytic work model; power and
energy models turn stage timings into the paper's Fig. 10 numbers.
"""

from .arm import ArmEngine
from .axi import AcpModel, AxiLiteModel, GpPortModel
from .calibration import DEFAULT_CALIBRATION, PAPER_TARGETS, Calibration
from .design_space import (
    DesignPoint,
    EvaluatedPoint,
    explore,
    pareto_frontier,
)
from .driver import PassCost, WaveletDriver
from .dvfs import (
    PS_OPERATING_POINTS,
    best_operating_point,
    scaled_calibration,
    scaled_power_model,
    sweep_operating_points,
)
from .energy import EnergyMeter, energy_mj
from .engine import Engine
from .fpga import FpgaEngine, HlsBackend, pad_filter_pair
from .gpu import GpuEngine
from .hls import HlsWaveletEngine, shift_register_dual_fir
from .jit import JitEngine
from .neon import NeonEngine
from .platform import DEFAULT_PLATFORM, ZynqPlatform
from .power import DEFAULT_POWER_MODEL, MODES, PowerModel, PowerRecorder
from .registry import (
    DEFAULT_ENGINE_NAMES,
    create_engine,
    default_engines,
    engine_names,
    register_engine,
)
from .resources import (
    PAPER_TABLE1,
    ZYNQ_PARTS,
    EngineConfig,
    ResourceEstimate,
    estimate_resources,
)
from .trace import LANE_HW, LANE_PS, ScheduleTracer, TraceEvent, trace_forward
from .vectorization import (
    AUTO,
    MANUAL,
    VectorizationStrategy,
    compare_strategies,
    vectorization_report,
)
from .work import FilterPass, WorkModel, summarize_passes

__all__ = [
    "ArmEngine", "NeonEngine", "FpgaEngine", "Engine",
    "JitEngine", "GpuEngine",
    "create_engine", "default_engines",
    "engine_names", "register_engine", "DEFAULT_ENGINE_NAMES",
    "HlsBackend", "pad_filter_pair",
    "HlsWaveletEngine", "shift_register_dual_fir",
    "AcpModel", "AxiLiteModel", "GpPortModel",
    "Calibration", "DEFAULT_CALIBRATION", "PAPER_TARGETS",
    "WaveletDriver", "PassCost",
    "EnergyMeter", "energy_mj",
    "ZynqPlatform", "DEFAULT_PLATFORM",
    "PowerModel", "PowerRecorder", "DEFAULT_POWER_MODEL", "MODES",
    "EngineConfig", "ResourceEstimate", "estimate_resources",
    "ZYNQ_PARTS", "PAPER_TABLE1",
    "WorkModel", "FilterPass", "summarize_passes",
    "DesignPoint", "EvaluatedPoint", "explore", "pareto_frontier",
    "PS_OPERATING_POINTS", "best_operating_point", "scaled_calibration",
    "scaled_power_model", "sweep_operating_points",
    "AUTO", "MANUAL", "VectorizationStrategy", "compare_strategies",
    "vectorization_report",
    "LANE_HW", "LANE_PS", "ScheduleTracer", "TraceEvent", "trace_forward",
]
