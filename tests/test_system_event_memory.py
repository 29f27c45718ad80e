"""Tests for the event scheduler, memory devices and system bus."""

import numpy as np
import pytest

from repro.system.bus import SystemBus
from repro.system.event import EventScheduler
from repro.system.memory import (
    MainMemory,
    MemoryAccessError,
    Scratchpad,
    to_signed,
    to_unsigned,
)
from repro.system.mmr import MemoryMappedRegisters


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(10, lambda: order.append("late"))
        scheduler.schedule(1, lambda: order.append("early"))
        scheduler.run()
        assert order == ["early", "late"]

    def test_ties_broken_by_scheduling_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(5, lambda: order.append("first"))
        scheduler.schedule(5, lambda: order.append("second"))
        scheduler.run()
        assert order == ["first", "second"]

    def test_current_cycle_advances(self):
        scheduler = EventScheduler()
        scheduler.schedule(7, lambda: None)
        scheduler.run()
        assert scheduler.current_cycle == 7

    def test_events_can_schedule_more_events(self):
        scheduler = EventScheduler()
        seen = []

        def chain():
            seen.append(scheduler.current_cycle)
            if len(seen) < 3:
                scheduler.schedule(2, chain)

        scheduler.schedule(1, chain)
        scheduler.run()
        assert seen == [1, 3, 5]

    def test_cancel(self):
        scheduler = EventScheduler()
        seen = []
        handle = scheduler.schedule(1, lambda: seen.append("no"))
        scheduler.cancel(handle)
        scheduler.run()
        assert seen == []

    def test_max_cycles_limit(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(1, lambda: seen.append(1))
        scheduler.schedule(100, lambda: seen.append(2))
        scheduler.run(max_cycles=10)
        assert seen == [1]

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(-1, lambda: None)

    def test_schedule_at_absolute_cycle(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule_at(4, lambda: seen.append(scheduler.current_cycle))
        scheduler.run()
        assert seen == [4]

    def test_horizon_is_the_earliest_live_event(self):
        scheduler = EventScheduler()
        assert scheduler.horizon() == float("inf")
        cancelled = scheduler.schedule(3, lambda: None)
        scheduler.schedule(9, lambda: None)
        assert scheduler.horizon() == 3
        scheduler.cancel(cancelled)
        assert scheduler.horizon() == 9

    def test_horizon_inside_run_stops_past_max_cycles(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(2, lambda: seen.append(scheduler.horizon()))
        scheduler.schedule(50, lambda: None)
        scheduler.run(max_cycles=10)
        scheduler.schedule(1, lambda: seen.append(scheduler.horizon()))
        scheduler.run(max_cycles=40)
        # the limit term (max_cycles + 1) wins over the event at 50, and a
        # later run records its own limit
        assert seen == [11, 41]
        assert scheduler.horizon() == 50

    def test_sequence_counts_scheduled_events(self):
        scheduler = EventScheduler()
        scheduler.schedule(1, lambda: None)
        scheduler.schedule(1, lambda: None)
        assert scheduler.sequence == 2


class TestWordHelpers:
    def test_to_unsigned_wraps(self):
        assert to_unsigned(-1) == 0xFFFFFFFF

    def test_to_signed_roundtrip(self):
        for value in (-5, 0, 7, -(2**31), 2**31 - 1):
            assert to_signed(to_unsigned(value)) == value


class TestMainMemoryAndScratchpad:
    def test_read_write_roundtrip(self):
        memory = MainMemory(1024)
        memory.write_word(16, 0xDEADBEEF)
        assert memory.read_word(16) == 0xDEADBEEF

    def test_misaligned_access_rejected(self):
        with pytest.raises(MemoryAccessError):
            MainMemory(1024).read_word(2)

    def test_out_of_range_rejected(self):
        with pytest.raises(MemoryAccessError):
            MainMemory(64).write_word(64, 1)

    def test_bulk_load_and_dump(self):
        memory = MainMemory(256)
        memory.load_words(0, [1, 2, 3, 4])
        assert memory.dump_words(0, 4) == [1, 2, 3, 4]

    def test_stats_and_energy(self):
        memory = MainMemory(256, energy_per_access=1e-12)
        memory.write_word(0, 5)
        memory.read_word(0)
        assert memory.stats.accesses == 2
        assert memory.energy_j() == pytest.approx(2e-12)

    def test_scratchpad_is_single_cycle(self):
        scratchpad = Scratchpad(1024)
        assert scratchpad.read_latency == 1
        assert scratchpad.write_latency == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MainMemory(10)


class TestStridedAndGatherReads:
    @staticmethod
    def _matrix_memory(n_rows=4, n_cols=6):
        memory = MainMemory(1024)
        matrix = [[10 * r + c for c in range(n_cols)] for r in range(n_rows)]
        memory.load_words(0, [v for row in matrix for v in row])
        return memory, matrix

    def test_read_strided_extracts_a_column_slice(self):
        memory, matrix = self._matrix_memory()
        values = memory.read_strided(2 * 4, block_words=2, n_blocks=4, stride_words=6)
        assert values.tolist() == [v for row in matrix for v in row[2:4]]
        assert memory.stats.reads == 8  # every streamed word is counted

    def test_read_strided_contiguous_matches_read_block(self):
        memory, _ = self._matrix_memory()
        strided = memory.read_strided(0, block_words=6, n_blocks=4, stride_words=6)
        block = memory.read_block(0, 24)
        assert np.array_equal(strided, block)

    def test_read_strided_bounds_checked(self):
        memory, _ = self._matrix_memory()
        with pytest.raises(MemoryAccessError):
            memory.read_strided(1020, block_words=2, n_blocks=2, stride_words=4)
        with pytest.raises(MemoryAccessError):
            memory.read_strided(0, block_words=2, n_blocks=-1, stride_words=4)
        with pytest.raises(MemoryAccessError):
            memory.read_strided(0, block_words=2, n_blocks=2, stride_words=-4)
        assert memory.read_strided(0, 0, 4, 4).size == 0

    def test_bus_read_strided_single_decode_fast_path(self):
        bus = SystemBus()
        memory, matrix = self._matrix_memory()
        bus.attach(0, 1024, memory, "mem")
        values, latency = bus.read_strided(2 * 4, 2, 4, 6)
        assert values.tolist() == [v for row in matrix for v in row[2:4]]
        assert latency == bus.traversal_latency + memory.read_latency
        assert bus.transfers == 8  # accounting-equivalent of 8 word reads

    def test_bus_read_strided_falls_back_across_mappings(self):
        bus = SystemBus()
        low, high = MainMemory(256), MainMemory(256)
        bus.attach(0, 256, low, "low")
        bus.attach(256, 256, high, "high")
        low.load_words(0, [1, 2])
        high.load_words(0, [3, 4])
        values, _ = bus.read_strided(0, block_words=2, n_blocks=2, stride_words=64)
        assert values.tolist() == [1, 2, 3, 4]


class TestSystemBus:
    def test_routes_to_memory(self):
        bus = SystemBus()
        memory = MainMemory(1024, read_latency=10)
        bus.attach(0x1000, 1024, memory, "mem")
        latency = bus.write_word(0x1010, 42)
        value, read_latency = bus.read_word(0x1010)
        assert value == 42
        assert read_latency == bus.traversal_latency + 10
        assert latency == bus.traversal_latency + memory.write_latency

    def test_routes_to_mmr(self):
        bus = SystemBus()
        mmr = MemoryMappedRegisters()
        bus.attach(0x2000, mmr.size_bytes, mmr, "mmr")
        bus.write_word(0x2008, 99)
        value, _ = bus.read_word(0x2008)
        assert value == 99

    def test_decode_error(self):
        with pytest.raises(MemoryAccessError):
            SystemBus().read_word(0x5000)

    def test_overlapping_mappings_rejected(self):
        bus = SystemBus()
        bus.attach(0, 1024, MainMemory(1024), "a")
        with pytest.raises(ValueError):
            bus.attach(512, 1024, MainMemory(1024), "b")

    def test_energy_counts_transfers(self):
        bus = SystemBus(energy_per_transfer=2e-12)
        bus.attach(0, 256, MainMemory(256), "mem")
        bus.write_word(0, 1)
        bus.read_word(0)
        assert bus.energy_j() == pytest.approx(4e-12)
