"""Sweep helpers and report formatting shared by benchmarks and the CLI.

The paper's evaluation is a grid: {ARM, ARM+NEON, ARM+FPGA} x five
frame sizes x {forward, inverse, total, energy}.  These helpers run
that grid against the engine models and lay the rows out the way the
figures do, so every ``bench_fig9*``/``bench_fig10`` file is a thin
wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .core.adaptive import default_engines
from .hw.energy import energy_mj
from .hw.engine import Engine
from .hw.power import DEFAULT_POWER_MODEL, PowerModel
from .types import PAPER_FRAME_SIZES, FrameShape


@dataclass
class SweepRow:
    """One frame size's numbers across engines."""

    shape: FrameShape
    values: Dict[str, float]  # engine name -> metric value


def sweep(metric: Callable[[Engine, FrameShape], float],
          engines: Optional[Sequence[Engine]] = None,
          sizes: Sequence[FrameShape] = PAPER_FRAME_SIZES) -> List[SweepRow]:
    """Evaluate ``metric`` for every engine at every frame size."""
    engines = tuple(engines) if engines is not None else default_engines()
    rows = []
    for shape in sizes:
        rows.append(SweepRow(
            shape=shape,
            values={e.name: metric(e, shape) for e in engines},
        ))
    return rows


def forward_stage_sweep(levels: int = 3, frames: int = 10) -> List[SweepRow]:
    """Fig. 9(a): forward DT-CWT seconds for ``frames`` fused frames."""
    return sweep(lambda e, s: frames * e.forward_stage_time(s, levels))


def inverse_stage_sweep(levels: int = 3, frames: int = 10) -> List[SweepRow]:
    """Fig. 9(c): inverse DT-CWT seconds for ``frames`` fused frames."""
    return sweep(lambda e, s: frames * e.inverse_stage_time(s, levels))


def total_time_sweep(levels: int = 3, frames: int = 10) -> List[SweepRow]:
    """Fig. 9(b): decompose+fuse+reconstruct seconds for ``frames`` frames."""
    return sweep(lambda e, s: frames * e.frame_time(s, levels).total_s)


def energy_sweep(levels: int = 3, frames: int = 10,
                 power_model: PowerModel = DEFAULT_POWER_MODEL) -> List[SweepRow]:
    """Fig. 10: total energy (mJ) for ``frames`` fused frames."""
    return sweep(lambda e, s: energy_mj(
        frames * e.frame_time(s, levels).total_s, e.power_mode, power_model))


def format_rows(rows: Sequence[SweepRow], unit: str,
                title: str, mode_names: Sequence[str] = ("arm", "neon", "fpga"),
                precision: int = 3) -> str:
    """Render sweep rows as the aligned text table the benches print."""
    header = f"{'frame size':>12} | " + " | ".join(
        f"{name.upper():>10}" for name in mode_names)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for row in rows:
        cells = " | ".join(f"{row.values[name]:10.{precision}f}"
                           for name in mode_names)
        lines.append(f"{str(row.shape):>12} | {cells}")
    lines.append(f"(values in {unit})")
    return "\n".join(lines)


def find_crossover(rows: Sequence[SweepRow], a: str = "fpga",
                   b: str = "neon") -> Optional[FrameShape]:
    """First frame size (ascending) at which engine ``a`` beats ``b``."""
    for row in rows:
        if row.values[a] < row.values[b]:
            return row.shape
    return None
