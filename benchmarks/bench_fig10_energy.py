"""Fig. 10: total energy of fusing 10 frames at each size and mode."""

from repro.hw.energy import EnergyMeter
from repro.hw.power import PowerModel
from repro.sweeps import energy_sweep, find_crossover, format_rows
from repro.types import FrameShape

from conftest import format_line

FULL = FrameShape(88, 72)


def test_fig10_table(engines, report):
    rows = energy_sweep(levels=3, frames=10)
    table = format_rows(rows, "millijoules / 10 frames",
                        "Fig. 10 - Comparison of Total Energy Used",
                        precision=1)

    power = PowerModel()
    arm, neon, fpga = engines["arm"], engines["neon"], engines["fpga"]

    def energy(engine, shape):
        return (engine.frame_time(shape).total_s
                * power.power_w(engine.power_mode))

    fpga_saving = 1 - energy(fpga, FULL) / energy(arm, FULL)
    neon_saving = 1 - energy(neon, FULL) / energy(arm, FULL)
    crossover = find_crossover(rows, "fpga", "neon")
    power_up = power.fpga_power_increase_w()

    lines = [table, "", "Anchors:"]
    lines.append(format_line("ARM+FPGA energy saving @88x72", "46.3 %",
                             f"{fpga_saving * 100:.1f} %"))
    lines.append(format_line("ARM+NEON energy saving @88x72", "8 %",
                             f"{neon_saving * 100:.1f} %"))
    lines.append(format_line("FPGA-mode power increase", "19.2 mW (3.6 %)",
                             f"{power_up * 1e3:.1f} mW "
                             f"({100 * power_up / power.power_w('arm'):.1f} %)"))
    lines.append(format_line("energy crossover (first FPGA win)",
                             "between 40x40 and 64x48", str(crossover)))
    report("\n".join(lines))

    assert 0.42 < fpga_saving < 0.52
    assert 0.05 < neon_saving < 0.13
    assert abs(power_up - 0.0192) < 5e-4
    assert crossover == FrameShape(64, 48)


def test_energy_accounting_kernel(benchmark, engines):
    """Wall-clock of the energy bookkeeping path itself."""
    fpga = engines["fpga"]

    def account():
        meter = EnergyMeter(mode="fpga")
        for _ in range(10):
            meter.add_breakdown("frame", fpga.frame_time(FULL))
        return meter.total_millijoules

    mj = benchmark(account)
    assert mj > 0
