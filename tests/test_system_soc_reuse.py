"""A reused SoC runs every host program under the same watchdog budget.

The event scheduler's clock is absolute over a SoC's lifetime, so the
``max_cycles`` watchdog of ``PhotonicSoC.run_program`` is counted from the
cycle the program starts at, as tiled offloads already do.
"""

import numpy as np

from repro.system.soc import PhotonicSoC


def _operands(seed, shape=(6, 6, 4)):
    rows, inner, cols = shape
    rng = np.random.default_rng(seed)
    return rng.integers(-8, 9, size=(rows, inner)), rng.integers(-8, 9, size=(inner, cols))


class TestRelativeWatchdog:
    def test_reused_soc_completes_every_program(self):
        # each 6x6x4 software GeMM takes ~13.4k cycles: the third one used
        # to cross the absolute 40k bound and stop mid-program
        soc = PhotonicSoC(max_cycles=40_000)
        soc.add_photonic_accelerator()
        for seed in range(3):
            weights, inputs = _operands(seed)
            report = soc.run_cpu_gemm(weights, inputs)
            assert soc.cpu.halted
            assert np.array_equal(report.result, weights @ inputs)

    def test_reported_cycles_stay_lifetime_cumulative(self):
        soc = PhotonicSoC()
        soc.add_photonic_accelerator()
        weights, inputs = _operands(0)
        first = soc.run_cpu_gemm(weights, inputs)
        second = soc.run_cpu_gemm(weights, inputs)
        assert second.cycles == 2 * first.cycles

    def test_watchdog_still_stops_a_program_over_budget(self):
        soc = PhotonicSoC()
        soc.add_photonic_accelerator()
        weights, inputs = _operands(0)
        first = soc.run_cpu_gemm(weights, inputs)
        soc.max_cycles = first.cycles // 2
        soc.run_cpu_gemm(weights, inputs)
        assert not soc.cpu.halted

    def test_explicit_limit_is_relative_too(self):
        soc = PhotonicSoC()
        soc.add_photonic_accelerator()
        weights, inputs = _operands(0)
        first = soc.run_cpu_gemm(weights, inputs)
        end = soc.run_program("addi x1, x0, 1\necall", max_cycles=first.cycles)
        assert soc.cpu.halted
        assert end > first.cycles


class TestFaultCause:
    def test_a_new_program_clears_the_previous_fault(self):
        soc = PhotonicSoC()
        soc.run_program("li t0, 3\nlw t1, 0(t0)\nhalt")
        assert soc.cpu.fault_cause == "misaligned word access at 0x3"
        soc.run_program("li t0, 4\nhalt")
        assert soc.cpu.halted
        assert soc.cpu.fault_cause is None

    def test_a_fresh_cpu_has_no_fault(self):
        assert PhotonicSoC().cpu.fault_cause is None
