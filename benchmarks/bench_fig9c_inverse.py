"""Fig. 9(c): inverse DT-CWT time on ARM / NEON / FPGA vs frame size."""

from repro.dtcwt import Dtcwt2D
from repro.sweeps import format_rows, inverse_stage_sweep
from repro.types import FrameShape

from conftest import format_line

FULL = FrameShape(88, 72)


def test_fig9c_table(engines, report):
    rows = inverse_stage_sweep(levels=3, frames=10)
    table = format_rows(rows, "seconds / 10 frames",
                        "Fig. 9(c) - Performance Comparison of Inverse DT-CWT")

    arm, neon, fpga = engines["arm"], engines["neon"], engines["fpga"]
    fpga_gain = 1 - fpga.inverse_stage_time(FULL) / arm.inverse_stage_time(FULL)
    neon_gain = 1 - neon.inverse_stage_time(FULL) / arm.inverse_stage_time(FULL)
    at35 = (engines["fpga"].inverse_stage_time(FrameShape(35, 35))
            > engines["neon"].inverse_stage_time(FrameShape(35, 35)))

    lines = [table, "", "Anchors:"]
    lines.append(format_line("FPGA enhancement @88x72", "60.6 %",
                             f"{fpga_gain * 100:.1f} %"))
    lines.append(format_line("NEON enhancement @88x72", "16 %",
                             f"{neon_gain * 100:.1f} %"))
    lines.append(format_line("FPGA worse than NEON at 35x35", "yes",
                             "yes" if at35 else "no"))
    report("\n".join(lines))

    assert abs(fpga_gain - 0.606) < 0.03
    assert abs(neon_gain - 0.16) < 0.02
    assert at35


def test_inverse_transform_kernel(benchmark, frame_pair_88x72):
    visible, _ = frame_pair_88x72
    transform = Dtcwt2D(levels=3)
    pyramid = transform.forward(visible)
    image = benchmark(transform.inverse, pyramid)
    assert image.shape == visible.shape
