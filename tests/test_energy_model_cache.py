"""Oracles for the shared default photonic-core energy model.

``default_energy_model(rows, inner)`` is memoized per tile shape for the
whole process.  These tests pin down what that may and may not change:
no rebuilds on repeated or fresh-SoC offloads, cycles and energy bitwise
equal to building the model per tile, and an explicit ``energy_model=``
still taking precedence over the cache.
"""

import numpy as np
import pytest

from repro.core.energy import PhotonicCoreEnergyModel
from repro.eval.workloads import make_gemm_workload
from repro.system import accelerator as accelerator_module
from repro.system.accelerator import default_energy_model
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

    def test_cleared_cache_builds_once_per_shape(self, model_builds):
        weights, inputs = make_gemm_workload(32, 16, 16, rng=0)
        default_energy_model.cache_clear()
        report = _cluster(4).run_tiled_gemm(weights, inputs)
        assert report.pipeline["n_tiles"] > 1
        assert 1 <= len(model_builds) == default_energy_model.cache_info().currsize
        assert len(model_builds) < report.pipeline["n_tiles"]

    def test_default_model_is_never_exposed(self):
        soc = _cluster(2)
        weights, inputs = make_gemm_workload(8, 8, 4, rng=1)
        soc.run_tiled_gemm(weights, inputs)
        assert all(pe.energy_model is None for pe in soc.accelerators)


class TestBitwiseEqualToPerTileBuild:
    @pytest.mark.parametrize("offload", sorted(OFFLOADS))
    def test_warm_cold_and_uncached_runs_agree(self, offload, monkeypatch):
        weights, inputs = make_gemm_workload(32, 16, 16, rng=2)
        kwargs = OFFLOADS[offload]
        warm = _figures(_cluster(4).run_tiled_gemm(weights, inputs, **kwargs))
        default_energy_model.cache_clear()
        cold = _figures(_cluster(4).run_tiled_gemm(weights, inputs, **kwargs))
        # the path this cache replaced: a fresh model for every tile
        monkeypatch.setattr(
            accelerator_module, "default_energy_model", default_energy_model.__wrapped__
        )
        per_tile = _figures(_cluster(4).run_tiled_gemm(weights, inputs, **kwargs))
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
