"""Tests for mesh error sweeps, expressivity and the architecture comparison."""

import numpy as np
import pytest

from repro.mesh.analysis import compare_architectures, format_report_table
from repro.mesh.base import MeshErrorModel
from repro.mesh.clements import ClementsMesh
from repro.mesh.errors import (
    coupler_error_model,
    evaluate_mesh_under_error,
    loss_error_model,
    phase_error_model,
    quantization_error_model,
    sweep_error_magnitude,
)
from repro.mesh.expressivity import (
    evaluate_expressivity,
    expressivity_vs_layers,
    programming_fidelity,
)
from repro.mesh.fldzhyan import FldzhyanMesh


class TestErrorModelFactories:
    def test_phase_error_model(self):
        model = phase_error_model(0.1, rng=0, quantization=16)
        assert model.phase_error_std == 0.1
        assert model.phase_quantization_levels == 16

    def test_coupler_error_model(self):
        assert coupler_error_model(0.05).coupler_ratio_error_std == 0.05

    def test_loss_error_model(self):
        assert loss_error_model(0.3).mzi_insertion_loss_db == 0.3

    def test_quantization_error_model(self):
        assert quantization_error_model(32).phase_quantization_levels == 32

    def test_quantize_phase_snap(self):
        model = MeshErrorModel(phase_quantization_levels=4)
        assert model.quantize_phase(np.pi / 2 + 0.1) == pytest.approx(np.pi / 2)

    def test_quantize_phase_disabled(self):
        assert MeshErrorModel().quantize_phase(1.234) == 1.234

    def test_quantize_rejects_single_level(self):
        with pytest.raises(ValueError):
            MeshErrorModel(phase_quantization_levels=1).quantize_phase(0.5)


class TestEvaluateMeshUnderError:
    def test_statistics_keys_and_ranges(self, unitary4):
        mesh = ClementsMesh(4).program(unitary4)
        stats = evaluate_mesh_under_error(
            mesh, unitary4, MeshErrorModel(phase_error_std=0.05), n_trials=5, rng=0
        )
        assert 0 <= stats["fidelity_mean"] <= 1
        assert stats["fidelity_std"] >= 0
        assert stats["frobenius_error_mean"] >= 0

    def test_no_error_gives_unit_fidelity(self, unitary4):
        mesh = ClementsMesh(4).program(unitary4)
        stats = evaluate_mesh_under_error(mesh, unitary4, MeshErrorModel(), n_trials=2, rng=0)
        assert stats["fidelity_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_reproducible_with_seed(self, unitary4):
        mesh = ClementsMesh(4).program(unitary4)
        model = MeshErrorModel(phase_error_std=0.1)
        a = evaluate_mesh_under_error(mesh, unitary4, model, n_trials=4, rng=3)
        b = evaluate_mesh_under_error(mesh, unitary4, model, n_trials=4, rng=3)
        assert a == b


class TestSweepErrorMagnitude:
    def test_phase_sweep_is_monotone_decreasing_on_average(self, unitary4):
        results = sweep_error_magnitude(
            lambda: ClementsMesh(4), unitary4, "phase", [0.0, 0.1, 0.4], n_trials=6, rng=0
        )
        fidelities = [r.fidelity_mean for r in results]
        assert fidelities[0] == pytest.approx(1.0, abs=1e-9)
        assert fidelities[2] < fidelities[0]

    def test_quantization_sweep_improves_with_levels(self, unitary4):
        results = sweep_error_magnitude(
            lambda: ClementsMesh(4), unitary4, "quantization", [8, 128], n_trials=1, rng=0
        )
        assert results[1].fidelity_mean > results[0].fidelity_mean

    def test_sweep_records_metadata(self, unitary4):
        results = sweep_error_magnitude(
            lambda: ClementsMesh(4), unitary4, "loss", [0.1], n_trials=1, rng=0
        )
        assert results[0].architecture == "clements"
        assert results[0].error_kind == "loss"
        assert results[0].n_modes == 4

    def test_unknown_error_kind_rejected(self, unitary4):
        with pytest.raises(ValueError):
            sweep_error_magnitude(lambda: ClementsMesh(4), unitary4, "cosmic-rays", [1.0])


class TestExpressivity:
    def test_clements_is_universal(self):
        result = evaluate_expressivity(lambda: ClementsMesh(4), n_targets=3, rng=0)
        assert result.mean_fidelity > 0.9999
        assert result.coverage == 1.0

    def test_programming_fidelity_helper(self, unitary4):
        assert programming_fidelity(ClementsMesh(4), unitary4) == pytest.approx(1.0, abs=1e-9)

    def test_fldzhyan_expressivity_grows_with_layers(self):
        results = expressivity_vs_layers(
            lambda layers: FldzhyanMesh(4, n_layers=layers),
            layer_counts=[2, 8],
            n_targets=2,
            rng=0,
        )
        assert results[1].mean_fidelity >= results[0].mean_fidelity
        assert results[0].n_phase_shifters < results[1].n_phase_shifters


class TestArchitectureComparison:
    def test_compare_architectures_structure(self):
        reports = compare_architectures(
            4,
            architectures={
                "clements": lambda n: ClementsMesh(n),
            },
            n_targets=2,
            n_error_trials=2,
            rng=0,
        )
        assert len(reports) == 1
        report = reports[0]
        assert report.architecture == "clements"
        assert report.programming_fidelity > 0.999
        assert report.fidelity_under_phase_error <= report.programming_fidelity + 1e-9

    def test_format_report_table_contains_all_architectures(self):
        reports = compare_architectures(
            4,
            architectures={"clements": lambda n: ClementsMesh(n)},
            n_targets=1,
            n_error_trials=1,
            rng=0,
        )
        table = format_report_table(reports)
        assert "clements" in table
        assert "fidelity" in table
