"""E8 (Fig. 3): full-system speed / energy / footprint comparison.

Regenerates the gem5-MARVEL-style evaluation: the same integer GeMM
workload executed (a) in software on the RISC-V host, (b) offloaded to a
digital MAC-array DSA, and (c) offloaded to the photonic in-memory GeMM
DSA, reporting end-to-end cycles, total energy, and configuration area.
"""

import numpy as np

from repro.eval import format_table, make_gemm_workload, speedup
from repro.system import PhotonicSoC


def _system_comparison(n=10, cols=6):
    weights, inputs = make_gemm_workload(n, n, cols, rng=0)
    golden = weights @ inputs

    cpu_soc = PhotonicSoC()
    cpu = cpu_soc.run_cpu_gemm(weights, inputs)

    mac_soc = PhotonicSoC()
    mac_soc.add_mac_array_accelerator()
    mac = mac_soc.run_offloaded_gemm(weights, inputs)

    photonic_soc = PhotonicSoC()
    photonic_soc.add_photonic_accelerator()
    photonic = photonic_soc.run_offloaded_gemm(weights, inputs)

    irq_soc = PhotonicSoC()
    irq_soc.add_photonic_accelerator()
    irq = irq_soc.run_offloaded_gemm(weights, inputs, use_interrupt=True)

    reports = [cpu, mac, photonic, irq]
    for report in reports:
        assert np.array_equal(report.result, golden)
    return reports


def test_bench_full_system_comparison():
    reports = _system_comparison()
    cpu = reports[0]
    rows = [
        [report.label, report.cycles, speedup(cpu.cycles, report.cycles),
         report.instructions, report.energy_j, report.area_mm2]
        for report in reports
    ]
    print("\n[E8] full-system GeMM: CPU vs digital DSA vs photonic DSA (10x10x6)")
    print(format_table(
        ["configuration", "cycles", "speedup", "host instructions", "energy (J)", "area (mm^2)"],
        rows,
    ))
    cpu, mac, photonic, irq = reports
    # Both accelerators beat the software baseline by a wide margin.
    assert speedup(cpu.cycles, mac.cycles) > 5
    assert speedup(cpu.cycles, photonic.cycles) > 5
    # The photonic DSA's compute is at least as fast as the MAC array at
    # this size (it does the whole MVM in one optical pass).
    assert photonic.cycles <= mac.cycles * 1.5
    # Offload also cuts total energy versus running the loop on the CPU.
    assert photonic.energy_j < cpu.energy_j
    # The accelerator costs area: the accelerated SoCs are bigger than CPU-only.
    assert photonic.area_mm2 > cpu.area_mm2
