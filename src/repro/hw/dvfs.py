"""Frequency/voltage scaling study on the modelled platform.

The paper fixes the PS at 533 MHz and the PL at 100 MHz and asks which
*engine* is most efficient.  A natural follow-on (their "most energy
and performance efficiency point") is to ask how the answer moves when
the platform's operating points change — the classic DVFS question.

Model: PS dynamic power scales as ``f * V^2`` with the ZYNQ's
characterized frequency/voltage pairs; PS-bound latencies scale as
``1/f_ps``; PL latencies as ``1/f_pl``; the PL's dynamic power scales
linearly with its clock.  Static rails are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..types import FrameShape
from .arm import ArmEngine
from .calibration import DEFAULT_CALIBRATION, Calibration
from .energy import energy_mj
from .fpga import FpgaEngine
from .neon import NeonEngine
from .platform import ZynqPlatform
from .power import DEFAULT_RAILS, PowerModel

#: ZYNQ-7000 PS operating points: frequency -> core voltage (V).
PS_OPERATING_POINTS: Dict[float, float] = {
    222e6: 0.85,
    333e6: 0.90,
    444e6: 0.95,
    533e6: 1.00,
    667e6: 1.05,
    800e6: 1.10,
}

_BASE_PS_HZ = 533e6
_BASE_PL_HZ = 100e6


def scaled_calibration(ps_hz: float,
                       base: Calibration = DEFAULT_CALIBRATION) -> Calibration:
    """Scale every PS-side rate/cost with the PS clock."""
    if ps_hz <= 0:
        raise ConfigurationError("PS frequency must be positive")
    ratio = ps_hz / _BASE_PS_HZ
    return base.with_overrides(
        arm_mac_rate_fwd=base.arm_mac_rate_fwd * ratio,
        arm_mac_rate_inv=base.arm_mac_rate_inv * ratio,
        arm_pass_overhead_s=base.arm_pass_overhead_s / ratio,
        arm_fuse_coeff_s=base.arm_fuse_coeff_s / ratio,
        fpga_driver_invocation_s=base.fpga_driver_invocation_s / ratio,
        fpga_ps_word_s=base.fpga_ps_word_s / ratio,
        fpga_inverse_marshal_s=base.fpga_inverse_marshal_s / ratio,
    )


def scaled_power_model(ps_hz: float, pl_hz: float = _BASE_PL_HZ) -> PowerModel:
    """Rail model at a different operating point.

    PS dynamic component scales with ``f V^2`` (voltage from the
    operating-point table, interpolated); PL dynamic with ``f``.
    """
    if ps_hz not in PS_OPERATING_POINTS:
        raise ConfigurationError(
            f"unknown PS operating point {ps_hz / 1e6:.0f} MHz; known: "
            f"{sorted(f / 1e6 for f in PS_OPERATING_POINTS)} MHz"
        )
    volts = PS_OPERATING_POINTS[ps_hz]
    base_volts = PS_OPERATING_POINTS[_BASE_PS_HZ]
    ps_scale = (ps_hz / _BASE_PS_HZ) * (volts / base_volts) ** 2
    pl_scale = pl_hz / _BASE_PL_HZ

    rails = {name: dict(modes) for name, modes in DEFAULT_RAILS.items()}
    idle_pint = rails["vccpint"]["idle"]
    for mode in ("arm", "neon", "fpga"):
        dynamic = rails["vccpint"][mode] - idle_pint
        rails["vccpint"][mode] = idle_pint + dynamic * ps_scale
    pl_idle = rails["vccint"]["idle"]
    dynamic_pl = rails["vccint"]["fpga"] - pl_idle
    rails["vccint"]["fpga"] = pl_idle + dynamic_pl * pl_scale
    return PowerModel(rails=rails)


@dataclass(frozen=True)
class OperatingPointResult:
    ps_hz: float
    pl_hz: float
    engine: str
    seconds_per_frame: float
    millijoules_per_frame: float

    @property
    def energy_delay_product(self) -> float:
        return self.millijoules_per_frame * self.seconds_per_frame


def sweep_operating_points(
        shape: FrameShape = FrameShape(88, 72), levels: int = 3,
        ps_points: Optional[Sequence[float]] = None,
        pl_hz: float = _BASE_PL_HZ) -> List[OperatingPointResult]:
    """Time and energy of each engine across PS operating points."""
    ps_points = (tuple(sorted(PS_OPERATING_POINTS))
                 if ps_points is None else tuple(ps_points))
    results: List[OperatingPointResult] = []
    for ps_hz in ps_points:
        cal = scaled_calibration(ps_hz)
        power = scaled_power_model(ps_hz, pl_hz)
        platform = ZynqPlatform(ps_clock_hz=ps_hz, pl_clock_hz=pl_hz)
        engines = (ArmEngine(platform, cal), NeonEngine(platform, cal),
                   FpgaEngine(platform, cal))
        for engine in engines:
            seconds = engine.frame_time(shape, levels).total_s
            mj = energy_mj(seconds, engine.power_mode, power)
            results.append(OperatingPointResult(
                ps_hz=ps_hz, pl_hz=pl_hz, engine=engine.name,
                seconds_per_frame=seconds, millijoules_per_frame=mj,
            ))
    return results


def best_operating_point(results: Sequence[OperatingPointResult],
                         objective: str = "energy") -> OperatingPointResult:
    """Pick the platform+engine configuration minimizing an objective."""
    keys = {
        "energy": lambda r: r.millijoules_per_frame,
        "time": lambda r: r.seconds_per_frame,
        "edp": lambda r: r.energy_delay_product,
    }
    if objective not in keys:
        raise ConfigurationError(
            f"objective must be one of {sorted(keys)}, got {objective!r}"
        )
    return min(results, key=keys[objective])
