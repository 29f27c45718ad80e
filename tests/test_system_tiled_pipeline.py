"""Tests for the pipelined multi-tile offload engine.

Covers the sharded SoC GeMM scheduler (``plan_shards`` +
``PhotonicSoC.run_tiled_gemm``), DMA/compute overlap through the
double-buffered accelerator pipeline, backend equivalence against the
digital reference, interrupt routing under concurrent per-tile DMA
completions, and the bulk-DMA bitwise/cycle equivalence guarantees.
"""

import numpy as np
import pytest

from repro.core.backends import AnalogPhotonicBackend, available_backends
from repro.eval.workloads import make_gemm_workload
from repro.system.accelerator import TileDescriptor
from repro.system.bus import SystemBus
from repro.system.dma import DMAEngine
from repro.system.event import EventScheduler
from repro.system.memory import MainMemory, Scratchpad, WORD_BYTES, to_unsigned
from repro.system.soc import PhotonicSoC, plan_k_shards, plan_shards


def _cluster(n_pes, **accelerator_kwargs):
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator(**accelerator_kwargs)
    return soc


class TestShardPlanner:
    def test_rows_partitioned_exactly_once(self):
        plans = plan_shards(13, 6, 5, 4, 0x1000, 0x4000, 0x8000)
        covered = []
        for descriptors in plans:
            for descriptor in descriptors:
                first_row = (descriptor.weights_addr - 0x1000) // (6 * WORD_BYTES)
                covered.extend(range(first_row, first_row + descriptor.rows))
        assert sorted(covered) == list(range(13))

    def test_each_pe_gets_multiple_tiles_by_default(self):
        plans = plan_shards(16, 4, 4, 2, 0, 0x4000, 0x8000)
        assert all(len(descriptors) == 2 for descriptors in plans)

    def test_input_loaded_once_per_stream(self):
        plans = plan_shards(16, 4, 4, 2, 0, 0x4000, 0x8000, tile_rows=2)
        for descriptors in plans:
            flags = [descriptor.load_input for descriptor in descriptors]
            assert flags[0] is True
            assert not any(flags[1:])

    def test_more_pes_than_rows(self):
        plans = plan_shards(2, 3, 3, 4, 0, 0x4000, 0x8000)
        assert sum(len(descriptors) for descriptors in plans) == 2
        assert sum(1 for descriptors in plans if not descriptors) == 2

    def test_explicit_tile_rows(self):
        plans = plan_shards(12, 4, 4, 1, 0, 0x4000, 0x8000, tile_rows=3)
        assert [d.rows for d in plans[0]] == [3, 3, 3, 3]

    @pytest.mark.parametrize(
        "shape",
        [(0, 4, 4), (4, 0, 4), (4, 4, 0), (-1, 4, 4), (4, -3, 4), (4, 4, -2)],
    )
    def test_degenerate_dimensions_rejected(self, shape):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            plan_shards(*shape, 2, 0x1000, 0x4000, 0x8000)

    def test_degenerate_pe_count_rejected(self):
        with pytest.raises(ValueError, match="n_pes"):
            plan_shards(4, 4, 4, 0, 0x1000, 0x4000, 0x8000)


class TestKShardPlanner:
    def test_k_slices_cover_the_inner_dimension_exactly_once(self):
        slices = plan_k_shards(8, 13, 5, 3)
        covered = []
        for piece in slices:
            covered.extend(range(piece.k_start, piece.k_stop))
        assert sorted(covered) == list(range(13))

    def test_staging_regions_are_disjoint_and_ordered(self):
        slices = plan_k_shards(8, 12, 5, 2, staging_addr=0x40000)
        regions = []
        for piece in slices:
            regions.append((piece.a_addr, piece.a_addr + 8 * piece.k_size * WORD_BYTES))
            regions.append((piece.b_addr, piece.b_addr + piece.k_size * 5 * WORD_BYTES))
            regions.append((piece.partial_addr, piece.partial_addr + 8 * 5 * WORD_BYTES))
        for (_, end), (start, _) in zip(regions[:-1], regions[1:]):
            assert end <= start

    def test_each_slice_loads_its_own_input(self):
        slices = plan_k_shards(8, 12, 5, 2)
        for piece in slices:
            assert piece.descriptors[0].load_input is True
            assert all(d.inner == piece.k_size for d in piece.descriptors)

    def test_non_default_staging_addr_offsets_every_region(self):
        default = plan_k_shards(8, 12, 5, 2)
        moved = plan_k_shards(8, 12, 5, 2, staging_addr=0x80000)
        shift = 0x80000 - 0x40000
        for before, after in zip(default, moved):
            assert after.a_addr == before.a_addr + shift
            assert after.b_addr == before.b_addr + shift
            assert after.partial_addr == before.partial_addr + shift

    def test_in_place_plan_reads_operands_from_their_matrices(self):
        slices = plan_k_shards(
            8, 12, 5, 2, staging_addr=0x80000, a_addr=0x1000, b_addr=0x4000
        )
        for piece in slices:
            assert piece.a_addr == 0x1000 + piece.k_start * WORD_BYTES
            assert piece.b_addr == 0x4000 + piece.k_start * 5 * WORD_BYTES
            # only the (M, N) partials come from the staging region
            assert piece.partial_addr >= 0x80000
            assert all(d.weights_pitch == 12 for d in piece.descriptors)

    def test_validation(self):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            plan_k_shards(0, 8, 4, 2)
        with pytest.raises(ValueError, match="k_shards"):
            plan_k_shards(8, 8, 4, 0)
        with pytest.raises(ValueError, match="k_shards <= K"):
            plan_k_shards(8, 2, 4, 3)
        with pytest.raises(ValueError, match="in-place planning"):
            plan_k_shards(8, 8, 4, 2, a_addr=0x1000)


class TestKShardedGemm:
    def test_k_sharded_matches_unsharded_exactly(self):
        weights, inputs = make_gemm_workload(12, 16, 6, rng=0)
        golden = weights @ inputs
        soc = _cluster(2)
        report = soc.run_tiled_gemm(weights, inputs, k_shards=2)
        assert np.array_equal(report.result, golden)
        assert report.pipeline["k_shards"] == 2
        assert report.pipeline["n_tiles"] >= 4  # 2 slices x >= 2 row tiles

    def test_k_sharded_pipelined_below_serial_phase_sum(self):
        weights, inputs = make_gemm_workload(16, 16, 8, rng=1)
        soc = _cluster(2)
        report = soc.run_tiled_gemm(weights, inputs, k_shards=2)
        assert report.pipeline["pipelined_cycles"] < report.pipeline["serial_cycles"]
        assert report.pipeline["overlap_cycles"] > 0
        assert report.pipeline["accumulate_cycles"] > 0

    def test_more_slices_than_pes_round_robins(self):
        weights, inputs = make_gemm_workload(8, 12, 4, rng=2)
        soc = _cluster(2)
        report = soc.run_tiled_gemm(weights, inputs, k_shards=4)
        assert np.array_equal(report.result, weights @ inputs)
        assert report.pipeline["k_shards"] == 4

    def test_k_sharding_on_digital_mac_cluster(self):
        weights, inputs = make_gemm_workload(10, 8, 4, rng=3)
        soc = PhotonicSoC()
        soc.add_mac_array_accelerator()
        soc.add_mac_array_accelerator()
        report = soc.run_tiled_gemm(weights, inputs, k_shards=2)
        assert np.array_equal(report.result, weights @ inputs)

    def test_k_shards_one_uses_the_row_path(self):
        weights, inputs = make_gemm_workload(8, 8, 4, rng=4)
        soc = _cluster(2)
        report = soc.run_tiled_gemm(weights, inputs, k_shards=1)
        assert "k_shards" not in report.pipeline
        assert np.array_equal(report.result, weights @ inputs)

    @pytest.mark.parametrize("k_shards", [0, -2, 1.5, 2.7, "2", np.float64(2.0)])
    def test_bad_k_shards_rejected_before_any_write(self, k_shards):
        weights, inputs = make_gemm_workload(8, 8, 4, rng=4)
        soc = _cluster(2)
        with pytest.raises(ValueError, match="k_shards"):
            soc.run_tiled_gemm(weights, inputs, k_shards=k_shards)
        assert soc.bus.transfers == 0
        assert soc.main_memory.dump_words(0x1000, 64) == [0] * 64
        for accelerator in soc.accelerators:
            assert accelerator.mmr.write_count == 0
            assert not accelerator._pending
        assert soc.scheduler.current_cycle == 0

    @pytest.mark.parametrize("k_shards", [None, 1, np.int64(1), 2, np.int32(2)])
    def test_integer_k_shards_accepted(self, k_shards):
        weights, inputs = make_gemm_workload(8, 8, 4, rng=4)
        report = _cluster(2).run_tiled_gemm(weights, inputs, k_shards=k_shards)
        assert np.array_equal(report.result, weights @ inputs)
        assert report.pipeline.get("k_shards", 1) == (k_shards or 1)

    def test_staging_overflow_rejected(self):
        soc = _cluster(2)
        weights, inputs = make_gemm_workload(64, 64, 64, rng=5)
        with pytest.raises(ValueError, match="staging region"):
            soc._run_k_sharded_gemm(
                weights.astype(np.int64),
                inputs.astype(np.int64),
                0x8000,
                None,
                False,
                2,
                staging_addr=(1 << 20) - 0x100,
            )

    def test_in_place_and_staged_results_bitwise_identical(self):
        weights, inputs = make_gemm_workload(16, 16, 8, rng=6)
        golden = weights @ inputs
        in_place = _cluster(2).run_tiled_gemm(weights, inputs, k_shards=2)
        staged = _cluster(2).run_tiled_gemm(
            weights, inputs, k_shards=2, k_staging="staged"
        )
        assert np.array_equal(in_place.result, golden)
        assert np.array_equal(staged.result, golden)
        # deleting the staging loop is a measured win, not just fewer words
        assert in_place.cycles < staged.cycles
        assert in_place.pipeline["pipelined_cycles"] < in_place.pipeline["serial_cycles"]
        assert staged.pipeline["pipelined_cycles"] < staged.pipeline["serial_cycles"]

    def test_in_place_path_performs_zero_staging_writes(self):
        weights, inputs = make_gemm_workload(16, 16, 8, rng=6)
        soc_in_place, soc_staged = _cluster(2), _cluster(2)
        in_place = soc_in_place.run_tiled_gemm(weights, inputs, k_shards=2)
        staged = soc_staged.run_tiled_gemm(
            weights, inputs, k_shards=2, k_staging="staged"
        )
        assert in_place.pipeline["staging_words"] == 0
        assert in_place.pipeline["staging_cycles"] == 0
        assert staged.pipeline["staging_words"] > 0
        # the staged path's extra main-memory writes are exactly the staged
        # operand copies plus the partial-region zeroing, per slice
        per_slice = 16 * 8 + 8 * 8 + 16 * 8  # A words + B words + C words
        assert (
            soc_staged.main_memory.stats.writes
            - soc_in_place.main_memory.stats.writes
            == 2 * per_slice
        )

    def test_unknown_staging_mode_rejected(self):
        weights, inputs = make_gemm_workload(8, 8, 4, rng=0)
        with pytest.raises(ValueError, match="k_staging"):
            _cluster(2).run_tiled_gemm(
                weights, inputs, k_shards=2, k_staging="zero-copy"
            )

    def test_custom_staging_addr_round_trips(self):
        weights, inputs = make_gemm_workload(12, 8, 4, rng=7)
        soc = _cluster(2)
        report = soc._run_k_sharded_gemm(
            weights.astype(np.int64), inputs.astype(np.int64),
            0x8000, None, False, 2, staging_addr=0x80000,
        )
        assert np.array_equal(report.result, weights @ inputs)

    @pytest.mark.parametrize("staged", [False, True])
    def test_staging_exactly_filling_main_memory_accepted(self, staged):
        weights, inputs = make_gemm_workload(16, 16, 8, rng=8)
        partial_bytes = 16 * 8 * WORD_BYTES
        if staged:
            slice_bytes = (16 * 8 + 8 * 8) * WORD_BYTES + partial_bytes
        else:
            slice_bytes = partial_bytes
        boundary = (1 << 20) - 2 * slice_bytes  # last byte = last memory byte
        soc = _cluster(2)
        report = soc._run_k_sharded_gemm(
            weights.astype(np.int64), inputs.astype(np.int64),
            0x8000, None, False, 2, staging_addr=boundary, staged=staged,
        )
        assert np.array_equal(report.result, weights @ inputs)
        with pytest.raises(ValueError, match="staging region"):
            _cluster(2)._run_k_sharded_gemm(
                weights.astype(np.int64), inputs.astype(np.int64),
                0x8000, None, False, 2,
                staging_addr=boundary + WORD_BYTES, staged=staged,
            )

    def test_repeated_offloads_report_per_run_cycles(self):
        # the event-scheduler clock is absolute across a SoC's lifetime; a
        # second offload on the same SoC must not report the first one's time
        weights, inputs = make_gemm_workload(12, 8, 4, rng=6)
        soc = _cluster(2)
        first = soc.run_tiled_gemm(weights, inputs)
        second = soc.run_tiled_gemm(weights, inputs)
        assert second.cycles < 2 * first.cycles
        assert second.pipeline["overlap_cycles"] > 0

    def test_repeated_offloads_report_per_run_energy(self):
        # energy counters are cumulative too: the second identical offload
        # must charge about one run's energy, not the lifetime total
        weights, inputs = make_gemm_workload(12, 8, 4, rng=7)
        soc = _cluster(2)
        first = soc.run_tiled_gemm(weights, inputs)
        second = soc.run_tiled_gemm(weights, inputs)
        assert first.energy_j > 0
        assert second.energy_j < 1.5 * first.energy_j
        assert all(value >= 0 for value in second.energy_breakdown.values())
        assert second.instructions == 0  # host driver is MMR writes, not CPU


class TestTiledGemmEquivalence:
    @pytest.mark.parametrize("n_pes", [1, 2, 4])
    def test_matches_reference_on_ideal_digital(self, n_pes):
        weights, inputs = make_gemm_workload(12, 8, 6, rng=0)
        soc = _cluster(n_pes, backend="ideal-digital")
        report = soc.run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)
        assert report.pipeline["n_tiles"] >= n_pes

    def test_equivalence_across_all_registered_backends(self):
        """Every registered backend agrees with the digital reference.

        Digital backends must be exact for in-range integer operands; the
        analog backend must stay within the noise tolerance of the
        photonic datapath.
        """
        weights, inputs = make_gemm_workload(8, 6, 5, value_range=4, rng=3)
        golden = weights @ inputs
        for name in available_backends():
            soc = _cluster(2, backend=name)
            report = soc.run_tiled_gemm(weights, inputs)
            if name == "analog-photonic":
                error = np.linalg.norm(report.result - golden) / np.linalg.norm(golden)
                assert error < 0.25, name
            else:
                assert np.array_equal(report.result, golden), name

    def test_single_shot_offload_accepts_backend(self):
        weights, inputs = make_gemm_workload(5, 5, 4, rng=1)
        soc = _cluster(1, backend="quantized-digital")
        report = soc.run_offloaded_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)

    def test_mac_array_cluster(self):
        weights, inputs = make_gemm_workload(10, 6, 4, rng=2)
        soc = PhotonicSoC()
        for _ in range(2):
            soc.add_mac_array_accelerator()
        report = soc.run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)


class TestPipelineOverlap:
    def test_four_pe_overlap_beats_serial_phases(self):
        """Acceptance: 4-PE pipelined cycles < serial DMA + compute sum."""
        weights, inputs = make_gemm_workload(32, 16, 16, rng=0)
        soc = _cluster(4)
        report = soc.run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)
        assert report.cycles < report.pipeline["serial_cycles"]
        assert report.pipeline["overlap_cycles"] > 0

    def test_four_pe_overlap_beats_per_pe_critical_path(self):
        """Double buffering wins even against the slowest PE run serially.

        This isolates intra-PE DMA/compute overlap from the trivial gain
        of running PEs in parallel.
        """
        weights, inputs = make_gemm_workload(32, 16, 16, rng=0)
        soc = _cluster(4)
        report = soc.run_tiled_gemm(weights, inputs)
        assert report.cycles < report.pipeline["critical_path_serial_cycles"]
        assert report.pipeline["intra_pe_overlap_cycles"] > 0

    def test_single_pe_still_overlaps_across_tiles(self):
        """Double buffering overlaps DMA-in of tile t+1 with tile t."""
        weights, inputs = make_gemm_workload(24, 12, 8, rng=1)
        soc = _cluster(1)
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=6)
        assert np.array_equal(report.result, weights @ inputs)
        assert report.pipeline["n_tiles"] == 4
        assert report.cycles < report.pipeline["serial_cycles"]

    def test_event_trace_shows_interleaved_stages(self):
        soc = _cluster(1)
        trace = soc.scheduler.enable_trace()
        weights, inputs = make_gemm_workload(16, 8, 8, rng=2)
        soc.run_tiled_gemm(weights, inputs, tile_rows=4)
        labels = [label for _, label in trace]
        first_out = labels.index("photonic0-dma-out")
        later_dma_in = [
            index for index, label in enumerate(labels)
            if label == "photonic0-dma-in" and index > 0
        ]
        # a later tile's DMA-in completes before an earlier tile drained
        assert later_dma_in and later_dma_in[0] < first_out

    def test_more_pes_reduce_cycles(self):
        weights, inputs = make_gemm_workload(32, 12, 8, rng=3)
        cycles = {}
        for n_pes in (1, 4):
            soc = _cluster(n_pes)
            cycles[n_pes] = soc.run_tiled_gemm(weights, inputs).cycles
        assert cycles[4] < cycles[1]


class TestInterruptRouting:
    def test_per_tile_interrupts_under_concurrent_completions(self):
        """4 PEs completing tiles concurrently: each line fires per tile."""
        weights, inputs = make_gemm_workload(16, 8, 4, rng=4)
        soc = _cluster(4)
        fired = []
        for accelerator in soc.accelerators:
            soc.interrupts.subscribe(
                accelerator.irq_line.index,
                lambda line, _pe=accelerator.name: fired.append((_pe, line)),
            )
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=2, irq_per_tile=True)
        assert np.array_equal(report.result, weights @ inputs)
        per_pe_tiles = {
            accelerator.name: accelerator.stats.tiles_completed
            for accelerator in soc.accelerators
        }
        assert sum(per_pe_tiles.values()) == report.pipeline["n_tiles"]
        for accelerator in soc.accelerators:
            line = accelerator.irq_line
            observed = sum(1 for name, _ in fired if name == accelerator.name)
            assert observed == per_pe_tiles[accelerator.name]
            assert line.fire_count == per_pe_tiles[accelerator.name]
            assert line.pending  # host has not acknowledged yet

    def test_stream_mode_raises_one_interrupt_per_pe(self):
        weights, inputs = make_gemm_workload(12, 6, 4, rng=5)
        soc = _cluster(2)
        soc.run_tiled_gemm(weights, inputs)
        for accelerator in soc.accelerators:
            assert accelerator.irq_line.fire_count == 1

    def test_tiles_done_register_tracks_stream(self):
        weights, inputs = make_gemm_workload(8, 4, 4, rng=6)
        soc = _cluster(1)
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=2)
        from repro.system.accelerator import REG_TILES_DONE

        accelerator = soc.accelerators[0]
        assert accelerator.mmr.data_register(REG_TILES_DONE) == report.pipeline["n_tiles"]


class TestPipelineStateHygiene:
    """Regression tests: persistent device state must not leak across runs."""

    def test_single_shot_offload_after_tiled_run(self):
        """A tiled stream must not leave a stale skip-input flag behind."""
        weights, inputs = make_gemm_workload(8, 4, 4, rng=7)
        soc = _cluster(1)
        soc.run_tiled_gemm(weights, inputs, tile_rows=2)
        new_weights = np.ones((4, 4), dtype=np.int64)
        new_inputs = np.full((4, 4), 2, dtype=np.int64)
        report = soc.run_offloaded_gemm(new_weights, new_inputs)
        assert np.array_equal(report.result, new_weights @ new_inputs)

    def test_oversized_tile_falls_back_to_exclusive_mode(self):
        """Tiles too big for a ping-pong region keep the old serial capacity."""
        # 1 KiB scratchpads: 256 words total, 128 words per double buffer
        soc = _cluster(1, scratchpad_bytes=1024)
        weights, inputs = make_gemm_workload(10, 20, 2, rng=8)
        assert 128 < 10 * 20 <= 256  # weight tile only fits the whole SPM
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=10)
        assert np.array_equal(report.result, weights @ inputs)

    def test_mixed_pipelined_and_exclusive_tiles(self):
        soc = _cluster(1, scratchpad_bytes=1024)
        weights, inputs = make_gemm_workload(12, 20, 2, rng=9)
        # tile_rows=8 -> first tile 8x20=160 words (exclusive), second 4x20
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=8)
        assert np.array_equal(report.result, weights @ inputs)

    def test_tile_too_large_for_scratchpad_raises(self):
        from repro.system.mmr import STATUS_ERROR

        soc = _cluster(1, scratchpad_bytes=1024)
        weights, inputs = make_gemm_workload(20, 20, 2, rng=10)  # 400 words > 256
        with pytest.raises(RuntimeError, match="STATUS_ERROR"):
            soc.run_tiled_gemm(weights, inputs, tile_rows=20)
        assert soc.accelerators[0].mmr.status == STATUS_ERROR

    def test_fixed_engine_analog_backend_rejects_mismatched_tiles(self):
        """A resident analog engine must not silently compute wrong tiles.

        Default sharding splits an 8-row GeMM into 4-row tiles; a fixed
        8x8 engine cannot serve them and must refuse loudly.
        """
        from repro.core.mvm import PhotonicMVM

        weights, inputs = make_gemm_workload(8, 8, 4, value_range=4, rng=12)
        engine = PhotonicMVM(weights.astype(float), rng=0)
        soc = PhotonicSoC()
        soc.add_photonic_accelerator(backend=AnalogPhotonicBackend(engine=engine))
        with pytest.raises(ValueError, match="do not match the programmed engine"):
            soc.run_tiled_gemm(weights, inputs)

    def test_fixed_engine_analog_backend_works_with_matching_tile(self):
        from repro.core.mvm import PhotonicMVM

        weights, inputs = make_gemm_workload(8, 8, 4, value_range=4, rng=12)
        engine = PhotonicMVM(weights.astype(float), rng=0)
        soc = PhotonicSoC()
        soc.add_photonic_accelerator(backend=AnalogPhotonicBackend(engine=engine))
        report = soc.run_tiled_gemm(weights, inputs, tile_rows=8)
        golden = weights @ inputs
        error = np.linalg.norm(report.result - golden) / np.linalg.norm(golden)
        assert error < 0.25

    def test_reset_clears_queued_tiles(self):
        from repro.system.accelerator import (
            REG_COLS, REG_INNER, REG_OUTPUT_ADDR, REG_ROWS, REG_WEIGHTS_ADDR,
        )
        from repro.system.mmr import CTRL_ENQUEUE, CTRL_RESET

        weights, inputs = make_gemm_workload(4, 4, 4, rng=11)
        soc = _cluster(1)
        accelerator = soc.accelerators[0]
        # host queues a tile aimed at a scratch output region, then aborts
        for index, value in [
            (REG_WEIGHTS_ADDR, 0x1000), (REG_OUTPUT_ADDR, 0xC000),
            (REG_ROWS, 4), (REG_INNER, 4), (REG_COLS, 4),
        ]:
            accelerator.mmr.set_data_register(index, value)
        accelerator.mmr.write_word(0x00, CTRL_ENQUEUE)
        accelerator.mmr.write_word(0x00, CTRL_RESET)
        report = soc.run_offloaded_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)
        # the aborted tile never executed
        assert soc.read_matrix(0xC000, 4, 4).any() == False  # noqa: E712

    def test_invalid_enqueued_descriptor_refuses_to_start(self):
        from repro.system.accelerator import TileDescriptor
        from repro.system.mmr import CTRL_START, STATUS_ERROR

        soc = _cluster(1)
        accelerator = soc.accelerators[0]
        accelerator.enqueue_tile(TileDescriptor(0x1000, 0x4000, 0x8000, 4, 4, 4))
        accelerator.enqueue_tile(TileDescriptor(0x1000, 0x4000, 0x8000, 0, 4, 4))
        accelerator.mmr.write_word(0x00, CTRL_START)
        soc.scheduler.run()
        assert accelerator.mmr.status == STATUS_ERROR
        assert not accelerator.busy
        # the poisoned stream was dropped entirely, nothing was written
        assert not soc.read_matrix(0x8000, 4, 4).any()


class TestBulkDMAEquivalence:
    def _system(self):
        scheduler = EventScheduler()
        bus = SystemBus()
        memory = MainMemory(1 << 16)
        bus.attach(0, 1 << 16, memory, "mem")
        return scheduler, bus, memory

    def test_bulk_copy_bitwise_equal_to_word_loop(self, rng):
        scheduler, bus, memory = self._system()
        words = [to_unsigned(int(v)) for v in rng.integers(-(2**31), 2**31, size=37)]
        memory.load_words(0x100, words)
        scratchpad = Scratchpad(1 << 12)
        dma = DMAEngine(scheduler, bus)
        dma.copy_to_scratchpad(0x100, scratchpad, 0, 37)
        observed = [scratchpad.read_word(i * WORD_BYTES) for i in range(37)]
        assert observed == words

    def test_bulk_copy_cycle_accounting_matches_word_model(self):
        """Latency must equal the historical per-word burst formula."""
        scheduler, bus, memory = self._system()
        scratchpad = Scratchpad(1 << 12)
        dma = DMAEngine(scheduler, bus, words_per_burst=8)
        n_words = 37
        latency = dma.copy_to_scratchpad(0, scratchpad, 0, n_words)
        per_word = bus.traversal_latency + memory.read_latency
        n_bursts = (n_words + 7) // 8
        assert latency == n_bursts * per_word + (n_words - n_bursts)
        assert dma.stats.words_moved == n_words
        assert memory.stats.reads == n_words

    def test_bulk_writeback_counts_bus_transfers_per_word(self):
        scheduler, bus, memory = self._system()
        scratchpad = Scratchpad(1 << 12)
        scratchpad.load_words(0, list(range(16)))
        dma = DMAEngine(scheduler, bus)
        before = bus.transfers
        dma.copy_from_scratchpad(scratchpad, 0, 0x200, 16)
        assert bus.transfers - before == 16
        assert memory.dump_words(0x200, 16) == list(range(16))

    def test_unmapped_block_rejected(self):
        scheduler, bus, memory = self._system()
        scratchpad = Scratchpad(1 << 12)
        dma = DMAEngine(scheduler, bus)
        with pytest.raises(Exception):
            dma.copy_to_scratchpad((1 << 16) - 8, scratchpad, 0, 16)


class TestTileDescriptor:
    def test_word_counts(self):
        descriptor = TileDescriptor(0, 0, 0, rows=3, inner=4, cols=5)
        assert descriptor.weight_words == 12
        assert descriptor.input_words == 20
        assert descriptor.output_words == 15
        assert descriptor.macs == 60
        assert descriptor.valid

    def test_invalid_dimensions_flagged(self):
        assert not TileDescriptor(0, 0, 0, rows=0, inner=4, cols=5).valid


class TestBusArbitration:
    """Opt-in round-robin bus contention (default off = historical model)."""

    def _run(self, penalty, n_pes=2, shape=(16, 8, 8)):
        weights, inputs = make_gemm_workload(*shape, rng=0)
        soc = _cluster(n_pes)
        soc.bus.arbitration_penalty = penalty
        report = soc.run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, weights @ inputs)
        return report, soc.bus

    def test_default_accounting_is_contention_free(self):
        report, bus = self._run(penalty=0)
        assert bus.contention_cycles == 0
        assert bus.contention_events == 0
        assert bus.active_streams == 0

    def test_concurrent_pe_streams_pay_arbitration_cycles(self):
        baseline, _ = self._run(penalty=0)
        contended, bus = self._run(penalty=4)
        # two PEs streaming the shared bus concurrently now cost cycles
        assert bus.contention_cycles > 0
        assert bus.contention_events > 0
        assert contended.cycles > baseline.cycles
        # every stream window was released by the end of the run
        assert bus.active_streams == 0

    def test_penalty_scales_contention(self):
        _, light = self._run(penalty=1)
        _, heavy = self._run(penalty=8)
        assert heavy.contention_cycles > light.contention_cycles

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            SystemBus(arbitration_penalty=-1)

    def test_faulted_transfer_releases_the_stream(self):
        scheduler = EventScheduler()
        bus = SystemBus(arbitration_penalty=4)
        memory = MainMemory(1 << 12)
        bus.attach(0, 1 << 12, memory, "mem")
        scratchpad = Scratchpad(1 << 12)
        dma = DMAEngine(scheduler, bus)
        with pytest.raises(Exception):
            dma.copy_to_scratchpad((1 << 16), scratchpad, 0, 8)  # unmapped
        # the failed stream must not tax later accesses with phantom cycles
        assert bus.active_streams == 0
        _, latency = bus.read_word(0)
        assert latency == bus.traversal_latency + memory.read_latency
