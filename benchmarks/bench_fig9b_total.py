"""Fig. 9(b): total time (decompose + fuse + reconstruct, 10 frames)."""

from repro.core.fusion import ImageFusion
from repro.sweeps import find_crossover, format_rows, total_time_sweep
from repro.types import FrameShape

from conftest import format_line

FULL = FrameShape(88, 72)


def test_fig9b_table(engines, report):
    rows = total_time_sweep(levels=3, frames=10)
    table = format_rows(rows, "seconds / 10 frames",
                        "Fig. 9(b) - Comparison of Total Time Taken")

    arm, neon, fpga = engines["arm"], engines["neon"], engines["fpga"]
    fpga_gain = 1 - (fpga.frame_time(FULL).total_s
                     / arm.frame_time(FULL).total_s)
    neon_gain = 1 - (neon.frame_time(FULL).total_s
                     / arm.frame_time(FULL).total_s)
    crossover = find_crossover(rows, "fpga", "neon")

    lines = [table, "", "Anchors:"]
    lines.append(format_line("FPGA enhancement @88x72", "48.1 %",
                             f"{fpga_gain * 100:.1f} %"))
    lines.append(format_line("NEON enhancement @88x72", "8 %",
                             f"{neon_gain * 100:.1f} %"))
    lines.append(format_line("first paper size where FPGA beats NEON",
                             "beyond 40x40", str(crossover)))
    report("\n".join(lines))

    assert 0.44 < fpga_gain < 0.54
    assert 0.06 < neon_gain < 0.13
    assert crossover in (FrameShape(40, 40), FrameShape(64, 48))


def test_full_fusion_kernel(benchmark, frame_pair_88x72):
    """Wall-clock of one complete fuse (two forwards + rule + inverse)."""
    visible, thermal = frame_pair_88x72
    fusion = ImageFusion(levels=3)
    result = benchmark(fusion.fuse, visible, thermal)
    assert result.fused.shape == visible.shape
