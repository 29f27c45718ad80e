"""Tests for MMR blocks, the interrupt controller and the DMA engine."""

import pytest

from repro.system.bus import SystemBus
from repro.system.dma import DMADescriptor, DMAEngine
from repro.system.event import EventScheduler
from repro.system.interrupt import InterruptController
from repro.system.memory import MainMemory, MemoryAccessError, Scratchpad
from repro.system.mmr import (
    CTRL_IRQ_ENABLE,
    CTRL_OFFSET,
    CTRL_RESET,
    CTRL_START,
    DATA_OFFSET,
    MemoryMappedRegisters,
    STATUS_BUSY,
    STATUS_DONE,
    STATUS_IDLE,
    STATUS_OFFSET,
)


class TestMemoryMappedRegisters:
    def test_start_bit_invokes_callback_and_sets_busy(self):
        calls = []
        mmr = MemoryMappedRegisters(on_start=lambda: calls.append("go"))
        mmr.write_word(CTRL_OFFSET, CTRL_START)
        assert calls == ["go"]
        assert mmr.read_word(STATUS_OFFSET) == STATUS_BUSY

    def test_reset_bit_invokes_callback_and_clears_status(self):
        calls = []
        mmr = MemoryMappedRegisters(on_reset=lambda: calls.append("reset"))
        mmr.mark_done()
        mmr.write_word(CTRL_OFFSET, CTRL_RESET)
        assert calls == ["reset"]
        assert mmr.read_word(STATUS_OFFSET) == STATUS_IDLE

    def test_data_register_roundtrip(self):
        mmr = MemoryMappedRegisters(n_data_registers=4)
        mmr.write_word(DATA_OFFSET + 8, 77)
        assert mmr.read_word(DATA_OFFSET + 8) == 77
        assert mmr.data_register(2) == 77

    def test_device_side_done_and_error(self):
        mmr = MemoryMappedRegisters()
        mmr.mark_done()
        assert mmr.read_word(STATUS_OFFSET) == STATUS_DONE
        mmr.mark_done(error=True)
        assert mmr.read_word(STATUS_OFFSET) != STATUS_DONE

    def test_irq_enable_flag(self):
        mmr = MemoryMappedRegisters()
        assert not mmr.irq_enabled
        mmr.write_word(CTRL_OFFSET, CTRL_IRQ_ENABLE)
        assert mmr.irq_enabled

    def test_host_write_to_status_clears_it(self):
        mmr = MemoryMappedRegisters()
        mmr.mark_done()
        mmr.write_word(STATUS_OFFSET, 0)
        assert mmr.read_word(STATUS_OFFSET) == STATUS_IDLE

    def test_invalid_offset_rejected(self):
        mmr = MemoryMappedRegisters(n_data_registers=2)
        with pytest.raises(MemoryAccessError):
            mmr.read_word(DATA_OFFSET + 100)
        with pytest.raises(MemoryAccessError):
            mmr.read_word(DATA_OFFSET + 1)

    def test_size_matches_register_count(self):
        assert MemoryMappedRegisters(n_data_registers=4).size_bytes == DATA_OFFSET + 16


class TestInterruptController:
    def test_allocate_and_raise(self):
        controller = InterruptController()
        line = controller.allocate_line("dsa0")
        seen = []
        controller.subscribe(line.index, lambda index: seen.append(index))
        controller.raise_interrupt(line.index)
        assert seen == [line.index]
        assert controller.pending_lines() == [line.index]

    def test_acknowledge_clears_pending(self):
        controller = InterruptController()
        line = controller.allocate_line("dsa0")
        controller.raise_interrupt(line.index)
        controller.acknowledge(line.index)
        assert controller.pending_lines() == []
        assert controller.line(line.index).fire_count == 1

    def test_unknown_line_rejected(self):
        controller = InterruptController()
        with pytest.raises(KeyError):
            controller.raise_interrupt(3)
        with pytest.raises(KeyError):
            controller.subscribe(3, lambda index: None)


class TestDMAEngine:
    def _setup(self):
        scheduler = EventScheduler()
        bus = SystemBus()
        memory = MainMemory(4096)
        bus.attach(0, 4096, memory, "mem")
        scratchpad = Scratchpad(1024)
        return scheduler, bus, memory, scratchpad

    def test_copy_to_scratchpad_moves_data(self):
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(64, [10, 20, 30])
        dma = DMAEngine(scheduler, bus)
        latency = dma.copy_to_scratchpad(64, scratchpad, 0, 3)
        assert [scratchpad.read_word(i * 4) for i in range(3)] == [10, 20, 30]
        assert latency > 0
        assert dma.stats.words_moved == 3

    def test_copy_from_scratchpad_moves_data(self):
        scheduler, bus, memory, scratchpad = self._setup()
        scratchpad.load_words(0, [5, 6])
        dma = DMAEngine(scheduler, bus)
        dma.copy_from_scratchpad(scratchpad, 0, 128, 2)
        assert memory.dump_words(128, 2) == [5, 6]

    def test_burst_pipelining_reduces_per_word_cost(self):
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(0, list(range(64)))
        dma = DMAEngine(scheduler, bus, words_per_burst=16)
        latency = dma.copy_to_scratchpad(0, scratchpad, 0, 64)
        per_word_latency = bus.traversal_latency + memory.read_latency
        assert latency < 64 * per_word_latency

    def test_energy_accounting(self):
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(0, [1, 2, 3, 4])
        dma = DMAEngine(scheduler, bus, energy_per_word=1e-12)
        dma.copy_to_scratchpad(0, scratchpad, 0, 4)
        assert dma.energy_j() == pytest.approx(4e-12)

    def test_invalid_burst_size_rejected(self):
        scheduler, bus, _, _ = self._setup()
        with pytest.raises(ValueError):
            DMAEngine(scheduler, bus, words_per_burst=0)


class TestDMABusyWindow:
    """Every transfer keeps the engine busy for its modelled window, so a
    back-to-back issue from a later cycle trips the guard; the caller
    schedules its own completion after the returned latency."""

    def _setup(self):
        scheduler = EventScheduler()
        bus = SystemBus()
        memory = MainMemory(4096)
        bus.attach(0, 4096, memory, "mem")
        scratchpad = Scratchpad(1024)
        return scheduler, bus, memory, scratchpad

    def test_callbackless_transfer_opens_the_same_busy_window(self):
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(0, [1, 2, 3, 4])
        dma = DMAEngine(scheduler, bus)
        latency = dma.copy_to_scratchpad(0, scratchpad, 0, 4)
        assert dma.busy  # busy for the whole modelled window
        observed = []
        scheduler.schedule(latency - 1, lambda: observed.append(dma.busy))
        scheduler.schedule(latency, lambda: observed.append(dma.busy))
        scheduler.run()
        assert observed == [True, False]

    def test_same_cycle_issues_chain_and_extend_the_window(self):
        # an accelerator queues weights + input fetches back to back in
        # the same cycle: that is descriptor chaining, not a bug
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(0, list(range(8)))
        dma = DMAEngine(scheduler, bus)
        first = dma.copy_to_scratchpad(0, scratchpad, 0, 4)
        second = dma.copy_to_scratchpad(16, scratchpad, 16, 4)
        assert dma.busy
        observed = []
        scheduler.schedule(first + second - 1, lambda: observed.append(dma.busy))
        scheduler.schedule(first + second, lambda: observed.append(dma.busy))
        scheduler.run()
        assert observed == [True, False]

    def test_issue_inside_open_window_raises(self):
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(0, list(range(8)))
        dma = DMAEngine(scheduler, bus)
        dma.copy_to_scratchpad(0, scratchpad, 0, 4)
        caught = []

        def reissue():
            assert dma.busy
            with pytest.raises(RuntimeError, match="busy"):
                dma.copy_to_scratchpad(16, scratchpad, 16, 4)
            with pytest.raises(RuntimeError, match="busy"):
                dma.copy_from_scratchpad(scratchpad, 0, 64, 4)
            caught.append(True)

        scheduler.schedule(1, reissue)  # strictly later, window still open
        scheduler.run()
        assert caught == [True]

    def test_issue_after_window_closes_is_fine_both_paths(self):
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(0, list(range(8)))
        dma = DMAEngine(scheduler, bus)
        latency = dma.copy_to_scratchpad(0, scratchpad, 0, 4)
        closed = []
        # the caller's completion event lands exactly at the window end
        scheduler.schedule(latency, lambda: closed.append(not dma.busy))
        scheduler.run()
        assert closed == [True] and not dma.busy
        dma.copy_from_scratchpad(scratchpad, 0, 64, 4)  # must not raise
        assert dma.busy


class TestDMADescriptors:
    def _setup(self):
        scheduler = EventScheduler()
        bus = SystemBus()
        memory = MainMemory(4096)
        bus.attach(0, 4096, memory, "mem")
        scratchpad = Scratchpad(1024)
        return scheduler, bus, memory, scratchpad

    def test_strided_descriptor_streams_a_column_slice_in_place(self):
        scheduler, bus, memory, scratchpad = self._setup()
        # a 4x6 row-major matrix; descriptor reads columns [2, 4) of every row
        matrix = [[10 * r + c for c in range(6)] for r in range(4)]
        memory.load_words(0, [v for row in matrix for v in row])
        dma = DMAEngine(scheduler, bus)
        descriptor = DMADescriptor(base=2 * 4, block_words=2, n_blocks=4, stride_words=6)
        dma.copy_to_scratchpad(descriptor, scratchpad, 0, 8)
        got = [scratchpad.read_word(i * 4) for i in range(8)]
        assert got == [v for row in matrix for v in row[2:4]]

    def test_strided_latency_equals_contiguous_of_same_word_count(self):
        # the burst model charges the whole descriptor as one transfer, so
        # in-place strided reads cost exactly what the staged copy's
        # contiguous read of the same words cost
        scheduler, bus, memory, scratchpad = self._setup()
        memory.load_words(0, list(range(64)))
        dma = DMAEngine(scheduler, bus)
        strided = dma.copy_to_scratchpad(
            DMADescriptor(base=0, block_words=4, n_blocks=4, stride_words=8),
            scratchpad, 0, 16,
        )
        contiguous = dma.copy_to_scratchpad(0, scratchpad, 64, 16)
        assert strided == contiguous

    def test_word_count_mismatch_rejected(self):
        scheduler, bus, memory, scratchpad = self._setup()
        dma = DMAEngine(scheduler, bus)
        with pytest.raises(ValueError, match="descriptor moves"):
            dma.copy_to_scratchpad(
                DMADescriptor(base=0, block_words=4, n_blocks=2), scratchpad, 0, 4
            )

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            DMADescriptor(base=-4, block_words=2)
        with pytest.raises(ValueError):
            DMADescriptor(base=0, block_words=-1)
        with pytest.raises(ValueError):
            DMADescriptor(base=0, block_words=4, n_blocks=2, stride_words=2)
        assert DMADescriptor(base=0, block_words=4, n_blocks=2, stride_words=4).contiguous
        assert not DMADescriptor(base=0, block_words=4, n_blocks=2, stride_words=8).contiguous

    def test_faulted_strided_transfer_counts_nothing(self):
        scheduler, bus, memory, scratchpad = self._setup()
        dma = DMAEngine(scheduler, bus)
        out_of_range = DMADescriptor(base=4000, block_words=8, n_blocks=4, stride_words=16)
        with pytest.raises(MemoryAccessError):
            dma.copy_to_scratchpad(out_of_range, scratchpad, 0, 32)
        assert dma.stats.transfers == 0 and not dma.busy
