"""Fig. 6 — encoder area / energy / delay vs. coset count."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_fig06_hardware(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark, lambda: run_experiment("fig6", coset_counts=(32, 64, 128, 256))
    )
    record_table("fig06", table)

    def series(design, column):
        return [row[column] for row in table.filter(design=design)]

    # (a) Area: RCC starts much higher and grows much faster than VCC.
    rcc_area = series("RCC", "area_um2")
    vcc_area = series("VCC-64", "area_um2")
    assert all(r > v for r, v in zip(rcc_area, vcc_area))
    assert (rcc_area[-1] - rcc_area[0]) > 5 * (vcc_area[-1] - vcc_area[0])

    # (b) Energy: RCC is roughly an order of magnitude above VCC and the gap
    # grows with the coset count; VCC-32 costs more than VCC-64.
    rcc_energy = series("RCC", "energy_pj")
    vcc_energy = series("VCC-64", "energy_pj")
    vcc32_energy = series("VCC-32", "energy_pj")
    assert all(r > 5 * v for r, v in zip(rcc_energy, vcc_energy))
    assert (rcc_energy[-1] - vcc_energy[-1]) > (rcc_energy[0] - vcc_energy[0])
    assert all(v32 > v64 for v32, v64 in zip(vcc32_energy, vcc_energy))

    # (c) Delay: VCC holds its latency to ~1.8-2 ns at 256 cosets while RCC
    # exceeds it; both remain tiny against the 84 ns array access.
    rcc_delay = series("RCC", "delay_ps")
    vcc_delay = series("VCC-64", "delay_ps")
    assert all(r > v for r, v in zip(rcc_delay, vcc_delay))
    assert vcc_delay[-1] < 2200.0
    assert 2000.0 < rcc_delay[-1] < 3000.0

    # Stored vs generated kernels are nearly identical (the paper's point
    # that either implementation choice is practical).
    stored_delay = series("VCC-64-Stored", "delay_ps")
    assert stored_delay == vcc_delay
