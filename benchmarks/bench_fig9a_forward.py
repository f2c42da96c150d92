"""Fig. 9(a): forward DT-CWT time on ARM / NEON / FPGA vs frame size.

Regenerates the figure's series (seconds for 10 fused frames at the
five paper sizes) from the calibrated platform model and checks the
published anchor percentages; pytest-benchmark times the functional
forward transform that underlies the ARM path.
"""

import numpy as np

from repro.dtcwt import Dtcwt2D
from repro.sweeps import format_rows, forward_stage_sweep
from repro.types import FrameShape

from conftest import format_line

FULL = FrameShape(88, 72)
SMALL = FrameShape(32, 24)


def test_fig9a_table(engines, report):
    rows = forward_stage_sweep(levels=3, frames=10)
    table = format_rows(rows, "seconds / 10 frames",
                        "Fig. 9(a) - Performance Comparison of Forward DT-CWT")

    arm, neon, fpga = engines["arm"], engines["neon"], engines["fpga"]
    fpga_gain = 1 - fpga.forward_stage_time(FULL) / arm.forward_stage_time(FULL)
    neon_gain = 1 - neon.forward_stage_time(FULL) / arm.forward_stage_time(FULL)
    penalty = (fpga.forward_stage_time(SMALL)
               / neon.forward_stage_time(SMALL) - 1.0)

    lines = [table, "", "Anchors:"]
    lines.append(format_line("FPGA enhancement @88x72", "55.6 %",
                             f"{fpga_gain * 100:.1f} %"))
    lines.append(format_line("NEON enhancement @88x72", "10 %",
                             f"{neon_gain * 100:.1f} %"))
    lines.append(format_line("FPGA degradation vs NEON @32x24", "36.4 %",
                             f"{penalty * 100:.1f} %"))
    report("\n".join(lines))

    assert abs(fpga_gain - 0.556) < 0.02
    assert abs(neon_gain - 0.10) < 0.02
    assert abs(penalty - 0.364) < 0.04


def test_forward_transform_kernel(benchmark, frame_pair_88x72):
    """Wall-clock of the functional forward DT-CWT (reference backend)."""
    visible, _ = frame_pair_88x72
    transform = Dtcwt2D(levels=3)
    pyramid = benchmark(transform.forward, visible)
    assert pyramid.levels == 3
