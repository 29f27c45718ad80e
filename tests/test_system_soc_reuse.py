"""A reused SoC runs every host program under the same watchdog budget.

The event scheduler's clock is absolute over a SoC's lifetime, so the
``max_cycles`` watchdog of ``PhotonicSoC.run_program`` is counted from the
cycle the program starts at, as tiled offloads already do.  A tiled offload
the watchdog cuts raises instead of returning a partial result, and the
next offload refuses the PEs it left busy before it writes anything.
"""

import numpy as np
import pytest

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


def _cluster(n_pes, **soc_kwargs):
    soc = PhotonicSoC(**soc_kwargs)
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


def _side_effects(soc):
    return (
        soc.bus.transfers,
        soc.scheduler.current_cycle,
        soc.scheduler.pending,
        soc.main_memory.stats.reads,
        soc.main_memory.stats.writes,
        soc.main_memory.dump_words(0x1000, 0x8000 // 4),
        [(pe.mmr.write_count, list(pe.mmr.data), pe.mmr.control, pe.mmr.status)
         for pe in soc.accelerators],
    )


class TestWatchdogCutTiledOffload:
    ALL_BUSY = "photonic0, photonic1, photonic2, photonic3"

    @pytest.mark.parametrize("k_shards", [None, 4])
    def test_cut_offload_raises_naming_the_busy_pes(self, k_shards):
        soc = _cluster(4, max_cycles=200)
        weights, inputs = _operands(0, shape=(32, 16, 16))
        with pytest.raises(RuntimeError, match=f"{self.ALL_BUSY} still busy after the 200-cycle"):
            soc.run_tiled_gemm(weights, inputs, k_shards=k_shards)
        assert all(pe.busy for pe in soc.accelerators)

    def test_next_offload_refuses_busy_pes_before_any_write(self):
        soc = _cluster(4, max_cycles=200)
        weights, inputs = _operands(0, shape=(32, 16, 16))
        with pytest.raises(RuntimeError, match="still busy"):
            soc.run_tiled_gemm(weights, inputs)
        before = _side_effects(soc)
        other_weights, other_inputs = _operands(1, shape=(8, 16, 16))
        with pytest.raises(RuntimeError, match=f"cannot offload onto busy {self.ALL_BUSY} "):
            soc.run_tiled_gemm(other_weights, other_inputs)
        assert _side_effects(soc) == before

    def test_a_drained_soc_offloads_correctly_again(self):
        soc = _cluster(4, max_cycles=200)
        weights, inputs = _operands(0, shape=(32, 16, 16))
        with pytest.raises(RuntimeError, match="still busy"):
            soc.run_tiled_gemm(weights, inputs)
        soc.scheduler.run()  # let the cut streams finish
        assert not any(pe.busy for pe in soc.accelerators)
        soc.max_cycles = 50_000
        report = soc.run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)

    def test_offload_within_the_budget_completes(self):
        weights, inputs = _operands(0, shape=(32, 16, 16))
        cycles = _cluster(4).run_tiled_gemm(weights, inputs).cycles
        report = _cluster(4, max_cycles=cycles).run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)
        assert report.cycles == cycles
