"""Oracles for the shared default photonic-core energy model.

``default_energy_model(rows, inner)`` is memoized per tile shape for the
whole process, and ``default_tile_cost`` memoizes each tile's cycles and
energy on that model per ``(rows, inner, cols, include_programming,
clock_hz)``.  These tests pin down what that may and may not change: no
rebuilds on repeated or fresh-SoC offloads, cycles and energy bitwise equal
to building the model per tile, a cleared or bypassed model cache computing
the tile costs again, and an explicit ``energy_model=`` still taking
precedence over both caches and being read on every tile.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.energy import PhotonicCoreEnergyModel
from repro.eval.workloads import make_gemm_workload
from repro.system import accelerator as accelerator_module
from repro.system.accelerator import default_energy_model, default_tile_cost
from repro.system.soc import PhotonicSoC


def _cluster(n_pes, **accelerator_kwargs):
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator(**accelerator_kwargs)
    return soc


@pytest.fixture
def model_builds(monkeypatch):
    """Count ``PhotonicCoreEnergyModel`` constructions from here on."""
    calls = []
    original = PhotonicCoreEnergyModel.__init__

    def spy(self, *args, **kwargs):
        calls.append((args, kwargs))
        original(self, *args, **kwargs)

    monkeypatch.setattr(PhotonicCoreEnergyModel, "__init__", spy)
    return calls


@pytest.fixture
def cost_evaluations(monkeypatch):
    """Count tile-cost evaluations on any energy model from here on."""
    calls = []
    original = PhotonicCoreEnergyModel.inference_energy_j

    def spy(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PhotonicCoreEnergyModel, "inference_energy_j", spy)
    return calls


def _figures(report):
    return report.cycles, report.energy_j, dict(report.energy_breakdown)


OFFLOADS = {
    "row-sharded": dict(),
    "k-sharded": dict(k_shards=4),
}


class TestNoRebuilds:
    def test_repeat_and_fresh_soc_build_no_models(self, model_builds):
        weights, inputs = make_gemm_workload(32, 16, 16, rng=0)
        soc = _cluster(4)
        soc.run_tiled_gemm(weights, inputs)  # warms the cache for these shapes
        model_builds.clear()
        soc.run_tiled_gemm(weights, inputs)
        _cluster(4).run_tiled_gemm(weights, inputs)
        assert model_builds == []

    def test_cleared_cache_builds_once_per_shape(self, model_builds, cost_evaluations):
        weights, inputs = make_gemm_workload(32, 16, 16, rng=0)
        _cluster(4).run_tiled_gemm(weights, inputs)  # tile costs cached for these shapes
        default_energy_model.cache_clear()
        model_builds.clear()
        cost_evaluations.clear()
        report = _cluster(4).run_tiled_gemm(weights, inputs)
        assert report.pipeline["n_tiles"] > 1
        assert 1 <= len(model_builds) == default_energy_model.cache_info().currsize
        assert len(model_builds) < report.pipeline["n_tiles"]
        # the cleared model cache took the tile costs with it: each is
        # computed again, on the rebuilt models
        assert cost_evaluations
        assert all(
            model is default_energy_model(model.n_outputs, model.n_inputs)
            for model in cost_evaluations
        )

    def test_warm_tile_costs_are_not_recomputed(self, cost_evaluations):
        weights, inputs = make_gemm_workload(32, 16, 16, rng=0)
        _cluster(4).run_tiled_gemm(weights, inputs)
        cost_evaluations.clear()
        _cluster(4).run_tiled_gemm(weights, inputs)
        assert cost_evaluations == []

    def test_default_model_is_never_exposed(self):
        soc = _cluster(2)
        weights, inputs = make_gemm_workload(8, 8, 4, rng=1)
        soc.run_tiled_gemm(weights, inputs)
        assert all(pe.energy_model is None for pe in soc.accelerators)


class TestBitwiseEqualToPerTileBuild:
    @pytest.mark.parametrize("offload", sorted(OFFLOADS))
    def test_warm_cold_and_uncached_runs_agree(self, offload, monkeypatch, cost_evaluations):
        weights, inputs = make_gemm_workload(32, 16, 16, rng=2)
        kwargs = OFFLOADS[offload]
        warm = _figures(_cluster(4).run_tiled_gemm(weights, inputs, **kwargs))
        default_energy_model.cache_clear()
        cold = _figures(_cluster(4).run_tiled_gemm(weights, inputs, **kwargs))
        # the path these caches replaced: a fresh model for every tile, and
        # every tile's cost computed on it
        monkeypatch.setattr(
            accelerator_module, "default_energy_model", default_energy_model.__wrapped__
        )
        cost_evaluations.clear()
        report = _cluster(4).run_tiled_gemm(weights, inputs, **kwargs)
        per_tile = _figures(report)
        assert len(cost_evaluations) == report.pipeline["n_tiles"]
        assert len({id(model) for model in cost_evaluations}) == report.pipeline["n_tiles"]
        assert warm == cold == per_tile

    def test_repeated_offloads_on_one_soc_agree(self):
        weights, inputs = make_gemm_workload(32, 16, 16, rng=3)
        soc = _cluster(4, reprogram_every_call=True)
        first = soc.run_tiled_gemm(weights, inputs)
        second = soc.run_tiled_gemm(weights, inputs)
        assert _figures(first) == _figures(second)


class TestExplicitModelBypassesCache:
    def test_user_model_is_used_and_cache_untouched(self, model_builds):
        model = PhotonicCoreEnergyModel(
            n_inputs=16, n_outputs=16, component_count={"phase_shifters": 512}
        )
        weights, inputs = make_gemm_workload(32, 16, 16, rng=4)
        before = default_energy_model.cache_info()
        model_builds.clear()
        explicit = _cluster(4, energy_model=model).run_tiled_gemm(weights, inputs)
        after = default_energy_model.cache_info()
        assert model_builds == []
        assert (after.hits, after.misses) == (before.hits, before.misses)
        default = _cluster(4).run_tiled_gemm(weights, inputs)
        assert explicit.energy_j != default.energy_j
        assert np.array_equal(explicit.result, default.result)

    def test_mutating_an_explicit_model_changes_the_next_offload(self):
        model = PhotonicCoreEnergyModel(
            n_inputs=16, n_outputs=16, component_count={"phase_shifters": 512}
        )
        weights, inputs = make_gemm_workload(32, 16, 16, rng=4)
        soc = _cluster(4, energy_model=model, reprogram_every_call=True)
        first = soc.run_tiled_gemm(weights, inputs)
        # a slower modulator: more cycles per tile
        model.modulator = dataclasses.replace(model.modulator, bandwidth_hz=5e9)
        second = soc.run_tiled_gemm(weights, inputs)
        assert second.cycles > first.cycles
        assert second.pipeline["compute_cycles"] > first.pipeline["compute_cycles"]
        assert np.array_equal(second.result, first.result)


class TestDefaultTileCost:
    def test_decided_once_per_shape_and_tied_to_the_model_cache(self, cost_evaluations):
        args = (5, 7, 100, True, 1e9)
        first = default_tile_cost(*args)
        cost_evaluations.clear()
        assert default_tile_cost(*args) == first
        assert cost_evaluations == []
        default_energy_model.cache_clear()
        assert default_tile_cost(*args) == first
        assert len(cost_evaluations) == 1
        assert cost_evaluations[0] is default_energy_model(5, 7)

    def test_every_key_field_selects_its_own_cost(self):
        base = default_tile_cost(5, 7, 100, True, 1e9)
        for changed in [(6, 7, 100, True, 1e9), (5, 8, 100, True, 1e9), (5, 7, 9, True, 1e9),
                        (5, 7, 100, False, 1e9), (5, 7, 100, True, 3e8)]:
            model = default_energy_model.__wrapped__(*changed[:2])
            cols, include_programming, clock_hz = changed[2:]
            latency_s = model.mvm_latency_s + (cols - 1) / model.mvm_rate_hz
            expected = (
                max(1, int(np.ceil(latency_s * clock_hz))),
                model.inference_energy_j(cols, include_programming=include_programming),
            )
            assert default_tile_cost(*changed) == expected
            assert expected != base

    def test_cost_cache_is_bounded_and_evicts_the_oldest(self, monkeypatch, cost_evaluations):
        costs = {}
        monkeypatch.setattr(accelerator_module, "_DEFAULT_TILE_COSTS", costs)
        monkeypatch.setattr(accelerator_module, "_DEFAULT_TILE_COSTS_MAX", 3)
        keys = [(5, 7, cols, True, 1e9) for cols in range(1, 6)]
        figures = [default_tile_cost(*key) for key in keys]
        assert list(costs) == keys[2:]
        cost_evaluations.clear()
        assert [default_tile_cost(*key) for key in keys[2:]] == figures[2:]
        assert cost_evaluations == []
        assert default_tile_cost(*keys[0]) == figures[0]
        assert len(cost_evaluations) == 1
        assert list(costs) == keys[3:] + keys[:1]
