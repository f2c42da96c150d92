"""The paper's primary contribution: DT-CWT fusion + adaptive scheduling."""

from .adaptive import (
    CostModelScheduler,
    Decision,
    LevelPlan,
    OnlineScheduler,
    PerLevelScheduler,
    default_engines,
)
from .fusion import FusionResult, ImageFusion, fuse_images
from .fusion_rules import (
    FusionRule,
    MaxMagnitudeRule,
    WeightedRule,
    WindowActivityRule,
    rule_by_name,
)
from .metrics import (
    average_gradient,
    entropy,
    fusion_mutual_information,
    fusion_report,
    mutual_information,
    petrovic_qabf,
    psnr,
    spatial_frequency,
    ssim,
)
from .profiling import STAGES, PipelineProfiler, profile_model
from .quality_monitor import (
    ACTION_FUSE,
    ACTION_PASS_THERMAL,
    ACTION_PASS_VISIBLE,
    MonitorReading,
    QualityMonitor,
)
from .registration import (
    DtcwtRegistration,
    RegistrationResult,
    phase_correlation,
    register_and_fuse,
)
from .video_fusion import TemporalFusion, TemporalStats, selection_flicker

__all__ = [
    "CostModelScheduler", "Decision", "LevelPlan", "OnlineScheduler",
    "PerLevelScheduler", "default_engines",
    "FusionResult", "ImageFusion", "fuse_images",
    "FusionRule", "MaxMagnitudeRule", "WeightedRule", "WindowActivityRule",
    "rule_by_name",
    "average_gradient", "entropy", "fusion_mutual_information",
    "fusion_report", "mutual_information", "petrovic_qabf", "psnr",
    "spatial_frequency", "ssim",
    "STAGES", "PipelineProfiler", "profile_model",
    "DtcwtRegistration", "RegistrationResult", "phase_correlation",
    "register_and_fuse",
    "TemporalFusion", "TemporalStats", "selection_flicker",
    "ACTION_FUSE", "ACTION_PASS_THERMAL", "ACTION_PASS_VISIBLE",
    "MonitorReading", "QualityMonitor",
]
