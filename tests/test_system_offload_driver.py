"""Tests for the tiled-offload driver path of the SoC.

Covers the bisected bus address decode (against a linear-scan oracle),
block MMR tile-stream writes (accounting-equal to the per-word ENQUEUE
protocol, with arbitration on), rejected word accesses that charge nothing, the integer
row/K partition of the shard planners (against ``np.array_split``), the
tuple event heap, ``mmr_data`` fault injection during tiled offloads pinned
to figures of the per-word driver, and offloads that stop at their last
stream's completion.
"""

import numpy as np
import pytest

from repro.eval.workloads import make_gemm_workload
from repro.system.accelerator import (
    FLAG_SKIP_INPUT_LOAD,
    REG_FLAGS,
    REG_WEIGHTS_ADDR,
    REG_WEIGHTS_PITCH,
    TileDescriptor,
)
from repro.system.bus import SystemBus
from repro.system.event import EventScheduler
from repro.system.faults import FaultInjector, FaultSpec
from repro.system.memory import MainMemory, MemoryAccessError, WORD_BYTES
from repro.system.mmr import CTRL_ENQUEUE, DATA_OFFSET, MemoryMappedRegisters
from repro.system.soc import PhotonicSoC, plan_k_shards, plan_shards


# ---------------------------------------------------------------------- #
# bus decode
# ---------------------------------------------------------------------- #
def _linear_find(bus, address):
    for mapping in bus.mappings():
        if mapping.contains(address):
            return mapping
    return None


def _random_bus(rng):
    """A bus with non-overlapping random mappings, attached out of order."""
    ranges = []
    cursor = int(rng.integers(0, 3)) * WORD_BYTES  # sometimes a mapping at 0
    for _ in range(int(rng.integers(1, 9))):
        size = int(rng.integers(1, 64)) * WORD_BYTES
        ranges.append((cursor, size))
        cursor += size + int(rng.integers(0, 3)) * int(rng.integers(1, 32)) * WORD_BYTES
    bus = SystemBus()
    for position in rng.permutation(len(ranges)):
        base, size = ranges[position]
        bus.attach(base, size, MainMemory(size), f"m{position}")
    return bus, ranges


class TestBisectedDecode:
    def test_matches_linear_scan_on_random_maps(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            bus, ranges = _random_bus(rng)
            probes = {0}
            for base, size in ranges:
                # every base, last byte and first byte past each mapping,
                # plus addresses inside the gap that follows it
                probes.update({base, base - 1, base + size - 1, base + size,
                               base + size + 5 * WORD_BYTES})
            probes.update(int(a) for a in rng.integers(0, ranges[-1][0] + 512, 20))
            for address in sorted(a for a in probes if a >= 0):
                expected = _linear_find(bus, address)
                if expected is None:
                    with pytest.raises(MemoryAccessError, match="bus decode error"):
                        bus.find(address)
                else:
                    assert bus.find(address) is expected

    def test_mappings_stay_sorted_and_overlaps_rejected(self):
        bus = SystemBus()
        bus.attach(0x2000, 0x100, MainMemory(0x100), "high")
        bus.attach(0x1000, 0x100, MainMemory(0x100), "low")
        bus.attach(0x1800, 0x100, MainMemory(0x100), "mid")
        assert [m.name for m in bus.mappings()] == ["low", "mid", "high"]
        with pytest.raises(ValueError, match="overlaps"):
            bus.attach(0x10F0, 0x20, MainMemory(0x20), "bad")
        assert [m.name for m in bus.mappings()] == ["low", "mid", "high"]

    def test_unmapped_addresses_raise_decode_error(self):
        bus = SystemBus()
        bus.attach(0x100, 0x40, MainMemory(0x40), "mem")
        for address in (0x0, 0xFC, 0x140, 0x1_0000):
            with pytest.raises(MemoryAccessError, match=f"no target at {address:#x}"):
                bus.find(address)
        with pytest.raises(MemoryAccessError, match="bus decode error"):
            SystemBus().find(0)


# ---------------------------------------------------------------------- #
# stream block writes
# ---------------------------------------------------------------------- #
HIGH = 1 << 32  # a bit the 32-bit data registers drop

STREAMS = {
    "dense": [
        TileDescriptor(0x1000, 0x4000, 0x8000, 6, 5, 4, scale_shift=2, load_input=True),
        TileDescriptor(0x1078, 0x4000, 0x8060, 6, 5, 4, scale_shift=2, load_input=False),
    ],
    "pitched": [
        TileDescriptor(0x1000, 0x4000, 0x8000, 6, 2, 4, load_input=True, weights_pitch=5),
        TileDescriptor(0x1078, 0x4000, 0x8060, 6, 2, 4, load_input=False, weights_pitch=5),
    ],
    "masked": [
        TileDescriptor(0x1000 + HIGH, 0x4000, 0x8000 + 3 * HIGH, 6, 5, 4, scale_shift=HIGH,
                       load_input=True, weights_pitch=5 + HIGH),
        TileDescriptor(0x1078, 0x4000 + HIGH, 0x8060, 6, 5, 4, load_input=False),
    ],
}


def _word_protocol(bus, mmr_base, stream, initiator):
    """The word writes a stream block stands for; returns their summed latency."""
    data = mmr_base + DATA_OFFSET
    pitched = any(d.weights_pitch for d in stream)
    latency = 0
    for d in stream:
        fields = (d.weights_addr, d.input_addr, d.output_addr, d.rows, d.inner, d.cols,
                  d.scale_shift, 0 if d.load_input else FLAG_SKIP_INPUT_LOAD)
        for register, value in enumerate(fields, start=REG_WEIGHTS_ADDR):
            latency += bus.write_word(data + register * WORD_BYTES, value, initiator)
        if pitched:
            latency += bus.write_word(data + REG_WEIGHTS_PITCH * WORD_BYTES,
                                      d.weights_pitch, initiator)
        latency += bus.write_word(mmr_base, CTRL_ENQUEUE, initiator)
    latency += bus.write_word(data + REG_FLAGS * WORD_BYTES, 0, initiator)
    if pitched:
        latency += bus.write_word(data + REG_WEIGHTS_PITCH * WORD_BYTES, 0, initiator)
    return latency


def _arbitrated_soc():
    soc = PhotonicSoC()
    soc.add_photonic_accelerator()
    soc.bus.arbitration_penalty = 3
    soc.bus.begin_stream("photonic0-dma")  # another DMA stream holds the bus
    return soc


def _bus_counters(soc):
    pe = soc.accelerators[0]
    mmr = pe.mmr
    return (soc.bus.transfers, soc.bus.contention_cycles, soc.bus.contention_events,
            mmr.write_count, mmr.control, mmr.status, list(mmr.data), list(pe._pending),
            pe.busy)


class TestBlockRegisterWrites:
    """A stream block access against the word writes it stands for."""

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_block_write_equals_word_writes_under_arbitration(self, stream):
        block, words = _arbitrated_soc(), _arbitrated_soc()
        for soc in (block, words):
            # a stale pitch, which only a dense stream latches
            soc.bus.write_word(soc.accelerators[0].mmr_base + DATA_OFFSET
                               + REG_WEIGHTS_PITCH * WORD_BYTES, 7)
        base = block.accelerators[0].mmr_base
        block_latency = block.bus.write_stream(base, STREAMS[stream], initiator="host")
        word_latency = _word_protocol(words.bus, base, STREAMS[stream], "host")
        n_words = block.bus.transfers - 1
        assert block_latency == word_latency == n_words * (block.bus.traversal_latency + 1 + 3)
        assert _bus_counters(block) == _bus_counters(words)
        assert block.bus.contention_events == n_words + 1
        assert len(block.accelerators[0]._pending) == 2

    def test_initiator_holding_the_bus_pays_no_arbitration(self):
        block, words = _arbitrated_soc(), _arbitrated_soc()
        base = block.accelerators[0].mmr_base
        block_latency = block.bus.write_stream(base, STREAMS["pitched"],
                                               initiator="photonic0-dma")
        word_latency = _word_protocol(words.bus, base, STREAMS["pitched"], "photonic0-dma")
        assert block_latency == word_latency
        assert _bus_counters(block) == _bus_counters(words)
        assert block.bus.contention_events == 0

    @pytest.mark.parametrize(
        "offset",
        [
            0x04,                                 # STATUS
            DATA_OFFSET,                          # first data register
            DATA_OFFSET + 2,                      # misaligned
            DATA_OFFSET + 16 * WORD_BYTES,        # past the block
        ],
    )
    def test_bad_block_raises_before_any_side_effect(self, offset):
        soc = _arbitrated_soc()
        before = _bus_counters(soc)
        with pytest.raises(MemoryAccessError):
            soc.bus.write_stream(soc.accelerators[0].mmr_base + offset, STREAMS["dense"],
                                 initiator="host")
        assert _bus_counters(soc) == before

    def test_block_write_needs_a_register_block(self):
        bus = SystemBus()
        bus.attach(0, 0x100, MainMemory(0x100), "mem")
        bus.attach(0x200, 0x48, MemoryMappedRegisters(), "mmr")  # no stream handler
        with pytest.raises(MemoryAccessError, match="takes stream writes"):
            bus.write_stream(0, STREAMS["dense"])
        with pytest.raises(MemoryAccessError, match="no stream writes"):
            bus.write_stream(0x200, STREAMS["dense"])
        with pytest.raises(MemoryAccessError, match="bus decode error"):
            bus.write_stream(0x1000, STREAMS["dense"])
        assert bus.transfers == 0


# ---------------------------------------------------------------------- #
# rejected word accesses
# ---------------------------------------------------------------------- #
def _access_state(soc):
    mmr = soc.accelerators[0].mmr
    memory = soc.main_memory.stats
    return (soc.bus.transfers, soc.bus.energy_j(), soc.bus.contention_cycles,
            soc.bus.contention_events, mmr.read_count, mmr.write_count, list(mmr.data),
            mmr.control, mmr.status, memory.reads, memory.writes)


class TestRejectedAccessesChargeNothing:
    """A word access the target rejects counts no transfer, energy or slot."""

    BAD_MMR_OFFSETS = [0x0A, 0x01, 0x06, DATA_OFFSET + 16 * WORD_BYTES - 1]

    @pytest.mark.parametrize("offset", BAD_MMR_OFFSETS)
    def test_rejected_mmr_write(self, offset):
        soc = _arbitrated_soc()
        before = _access_state(soc)
        with pytest.raises(MemoryAccessError, match="invalid MMR offset"):
            soc.bus.write_word(soc.accelerators[0].mmr_base + offset, 1, initiator="host")
        assert _access_state(soc) == before

    @pytest.mark.parametrize("offset", BAD_MMR_OFFSETS)
    def test_rejected_mmr_read(self, offset):
        soc = _arbitrated_soc()
        before = _access_state(soc)
        with pytest.raises(MemoryAccessError, match="invalid MMR offset"):
            soc.bus.read_word(soc.accelerators[0].mmr_base + offset, initiator="host")
        assert _access_state(soc) == before

    def test_rejected_main_memory_accesses(self):
        soc = _arbitrated_soc()
        before = _access_state(soc)
        with pytest.raises(MemoryAccessError, match="misaligned"):
            soc.bus.write_word(0x1002, 1, initiator="host")
        with pytest.raises(MemoryAccessError, match="misaligned"):
            soc.bus.read_word(0x1002, initiator="host")
        assert _access_state(soc) == before

    def test_accepted_accesses_still_charge_one_arbitrated_transfer_each(self):
        soc = _arbitrated_soc()
        register = soc.accelerators[0].mmr_base + DATA_OFFSET
        assert soc.bus.write_word(register, 7, initiator="host") == soc.bus.traversal_latency + 4
        value, latency = soc.bus.read_word(register, initiator="host")
        assert (value, latency) == (7, soc.bus.traversal_latency + 4)
        mmr = soc.accelerators[0].mmr
        assert (soc.bus.transfers, mmr.write_count, mmr.read_count) == (2, 1, 1)
        assert (soc.bus.contention_cycles, soc.bus.contention_events) == (6, 2)
        assert soc.bus.energy_j() == 2 * soc.bus.energy_per_transfer


# ---------------------------------------------------------------------- #
# shard planners
# ---------------------------------------------------------------------- #
def _reference_plan_shards(n_rows, n_inner, n_cols, n_pes, a_addr, b_addr, c_addr,
                           tile_rows=None, weights_pitch=0):
    """The ``np.array_split`` row partition the integer planner must match."""
    row_pitch = weights_pitch if weights_pitch else n_inner
    plans = []
    for rows in np.array_split(np.arange(n_rows), n_pes):
        descriptors = []
        if rows.size:
            chunk_rows = tile_rows if tile_rows is not None else max(1, -(-rows.size // 2))
            for start in range(0, rows.size, chunk_rows):
                chunk = rows[start : start + chunk_rows]
                first_row = int(chunk[0])
                descriptors.append(TileDescriptor(
                    weights_addr=a_addr + first_row * row_pitch * WORD_BYTES,
                    input_addr=b_addr,
                    output_addr=c_addr + first_row * n_cols * WORD_BYTES,
                    rows=int(chunk.size), inner=n_inner, cols=n_cols,
                    load_input=start == 0, weights_pitch=weights_pitch,
                ))
        plans.append(descriptors)
    return plans


class TestIntegerPartition:
    @pytest.mark.parametrize("weights_pitch", [0, 11])
    @pytest.mark.parametrize("tile_rows", [None, 1, 2, 3, 7, 40])
    def test_plan_shards_matches_array_split(self, tile_rows, weights_pitch):
        for n_rows in range(1, 18):
            for n_pes in range(1, 8):  # includes n_pes > n_rows
                args = (n_rows, 5, 3, n_pes, 0x1000, 0x4000, 0x8000)
                assert plan_shards(*args, tile_rows=tile_rows,
                                   weights_pitch=weights_pitch) == \
                    _reference_plan_shards(*args, tile_rows=tile_rows,
                                           weights_pitch=weights_pitch)

    def test_plan_k_shards_matches_array_split(self):
        for n_inner in range(1, 14):
            for k_shards in range(1, n_inner + 1):
                slices = plan_k_shards(5, n_inner, 3, k_shards, a_addr=0, b_addr=0x800)
                expected = [(int(c[0]), int(c[-1]) + 1)
                            for c in np.array_split(np.arange(n_inner), k_shards)]
                assert [(s.k_start, s.k_stop) for s in slices] == expected


# ---------------------------------------------------------------------- #
# event heap
# ---------------------------------------------------------------------- #
class TestTupleEventHeap:
    def test_ties_run_in_scheduling_order_and_cancel_skips(self):
        scheduler = EventScheduler()
        trace = scheduler.enable_trace()
        seen = []
        handles = [scheduler.schedule(5, lambda i=i: seen.append(i), label=f"e{i}")
                   for i in range(6)]
        scheduler.schedule_at(2, lambda: seen.append("early"), label="early")
        scheduler.cancel(handles[0])
        scheduler.cancel(handles[3])
        assert scheduler.horizon() == 2
        scheduler.run()
        assert seen == ["early", 1, 2, 4, 5]
        assert trace == [(2, "early"), (5, "e1"), (5, "e2"), (5, "e4"), (5, "e5")]
        assert scheduler.events_processed == 5 and scheduler.pending == 0

    def test_cancelled_head_is_skipped_by_step_and_horizon(self):
        scheduler = EventScheduler()
        seen = []
        head = scheduler.schedule(1, lambda: seen.append("no"))
        scheduler.schedule(4, lambda: seen.append("yes"))
        scheduler.cancel(head)
        assert scheduler.horizon() == 4
        assert scheduler.step() is True
        assert seen == ["yes"] and scheduler.current_cycle == 4
        assert scheduler.step() is False


# ---------------------------------------------------------------------- #
# MMR faults during tiled offloads (figures of the per-word driver)
# ---------------------------------------------------------------------- #
ROW_SHARDED_PIPELINE = {
    "n_tiles": 6, "dma_cycles": 1184, "compute_cycles": 6, "serial_cycles": 1364,
    "critical_path_serial_cycles": 769, "pipelined_cycles": 623,
    "overlap_cycles": 741, "intra_pe_overlap_cycles": 146,
}
ROW_SHARDED_DMA = {
    f"photonic{pe}{suffix}": traffic
    for pe in (0, 1)
    for suffix, traffic in (
        ("-dma", {"transfers": 4, "words_moved": 66, "bytes_moved": 264, "busy_cycles": 376}),
        ("-dma-wb", {"transfers": 3, "words_moved": 30, "bytes_moved": 120,
                     "busy_cycles": 216}),
    )
}
K_SHARDED_PIPELINE = {
    "n_tiles": 12, "dma_cycles": 1462, "compute_cycles": 12, "serial_cycles": 2125,
    "critical_path_serial_cycles": 1388, "pipelined_cycles": 1198,
    "overlap_cycles": 927, "intra_pe_overlap_cycles": 190, "k_shards": 2,
    "accumulate_cycles": 273, "staging_cycles": 0, "staging_words": 0,
}
K_SHARDED_DMA = {
    f"photonic{pe}{suffix}": traffic
    for pe in (0, 1)
    for suffix, traffic in (
        ("-dma", {"transfers": 7, "words_moved": 51, "bytes_moved": 204, "busy_cycles": 299}),
        ("-dma-wb", {"transfers": 6, "words_moved": 60, "bytes_moved": 240,
                     "busy_cycles": 432}),
    )
}

FAULT_CASES = {
    # transient flip of REG_FLAGS at the cycle the stream starts: the fault
    # event ties with the stream's start and must land after the driver
    "transient-at-start": (
        dict(fault_type="transient", location=REG_FLAGS, bit=0), 0, None,
        623, ROW_SHARDED_PIPELINE, ROW_SHARDED_DMA,
        [4192, 16384, 32848, 2, 6, 5, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0], 49,
    ),
    # transient flip of REG_TILES_DONE while tiles are in flight
    "transient-mid-stream": (
        dict(fault_type="transient", location=8, bit=3), 40, None,
        623, ROW_SHARDED_PIPELINE, ROW_SHARDED_DMA,
        [4192, 16384, 32848, 2, 6, 5, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0], 49,
    ),
    # stuck-at-1 pitch bit on a K-sharded (strided, pitch-programming) run
    "permanent-k-sharded": (
        dict(fault_type="permanent", location=9, bit=4), 10, 2,
        1198, K_SHARDED_PIPELINE, K_SHARDED_DMA,
        [4336, 16384, 262344, 2, 3, 5, 0, 0, 6, 16, 0, 0, 0, 0, 0, 0], 83,
    ),
}


class TestMMRFaultsDuringTiledOffload:
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_faulted_offload_matches_per_word_driver(self, case):
        fault, offset, k_shards, cycles, pipeline, dma, data, write_count = FAULT_CASES[case]
        soc = PhotonicSoC()
        for _ in range(2):
            soc.add_photonic_accelerator()
        weights, inputs = make_gemm_workload(12, 6, 5, rng=3)
        soc.run_tiled_gemm(weights, inputs)  # the faulted run starts mid-life
        start = soc.scheduler.current_cycle
        assert start == 454
        injector = FaultInjector(
            soc, FaultSpec(target="mmr_data", cycle=start + offset, **fault)
        )
        injector.arm()
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=2, k_shards=k_shards)
        assert injector.injected
        assert np.array_equal(report.result, weights @ inputs)
        assert report.cycles == cycles
        assert report.pipeline == pipeline
        assert report.dma == dma
        mmr = soc.accelerators[0].mmr
        assert mmr.data == data
        assert mmr.write_count == write_count


# ---------------------------------------------------------------------- #
# an offload ends at its last stream's completion
# ---------------------------------------------------------------------- #
class TestOffloadStopsAtLastStream:
    """Events after the last stream completes stay queued for the next run."""

    @staticmethod
    def _soc():
        soc = PhotonicSoC()
        for _ in range(2):
            soc.add_mac_array_accelerator()
        return soc

    def test_fault_free_reference(self):
        weights, inputs = make_gemm_workload(12, 6, 5, rng=3)
        report = self._soc().run_tiled_gemm(weights, inputs, tile_rows=2)
        assert report.cycles == report.pipeline["pipelined_cycles"] == 657

    @pytest.mark.parametrize("fault_type", ["transient", "permanent"])
    def test_later_fault_is_not_charged_to_the_offload(self, fault_type):
        soc = self._soc()
        weights, inputs = make_gemm_workload(12, 6, 5, rng=3)
        location = 0x20000 // WORD_BYTES  # a word no offload touches
        injector = FaultInjector(
            soc,
            FaultSpec(target="main_memory", fault_type=fault_type,
                      location=location, bit=2, cycle=5000),
        )
        injector.arm()
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=2)
        assert report.cycles == report.pipeline["pipelined_cycles"] == 657
        assert np.array_equal(report.result, weights @ inputs)
        assert not injector.injected
        assert soc.scheduler.pending == 1  # the armed fault, still pending
        soc.run_program("ebreak")  # the SoC's next run fires it
        assert injector.injected
        assert soc.scheduler.current_cycle >= 5000
        assert soc.main_memory.read_word(location * WORD_BYTES) == 1 << 2
