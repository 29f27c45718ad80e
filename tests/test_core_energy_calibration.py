"""Tests for the energy/area model and the calibration routine."""

import numpy as np
import pytest

from repro.core.calibration import calibrate_mesh, measure_realized_matrix, project_to_unitary
from repro.core.energy import AreaModel, PhotonicCoreEnergyModel, combined_component_count
from repro.mesh.base import MeshErrorModel
from repro.mesh.clements import ClementsMesh
from repro.utils.linalg import is_unitary


def make_energy_model(non_volatile=True, n=8):
    mesh = ClementsMesh(n)
    counts = combined_component_count(mesh, mesh)
    return PhotonicCoreEnergyModel(
        n_inputs=n, n_outputs=n, component_count=counts, non_volatile=non_volatile
    )


class TestEnergyModel:
    def test_pcm_mesh_has_zero_static_power(self):
        assert make_energy_model(non_volatile=True).static_mesh_power_w == 0.0

    def test_thermo_optic_mesh_has_static_power(self):
        assert make_energy_model(non_volatile=False).static_mesh_power_w > 0.0

    def test_pcm_beats_thermo_on_energy_per_mac(self):
        pcm = make_energy_model(non_volatile=True)
        thermo = make_energy_model(non_volatile=False)
        assert pcm.energy_per_mac_j() < thermo.energy_per_mac_j()

    def test_energy_per_mac_decreases_with_size(self):
        # Larger meshes amortise the laser/supply power over more MACs.
        small = make_energy_model(n=4)
        large = make_energy_model(n=16)
        assert large.energy_per_mac_j() < small.energy_per_mac_j()

    def test_latency_dominated_by_symbol_period(self):
        model = make_energy_model()
        assert model.mvm_latency_s >= 1.0 / model.modulator.symbol_rate

    def test_peak_throughput(self):
        model = make_energy_model(n=8)
        assert model.peak_throughput_macs_per_s == pytest.approx(64 * model.mvm_rate_hz)

    def test_programming_energy_positive(self):
        assert make_energy_model().programming_energy_j() > 0

    def test_inference_energy_with_static_hold(self):
        thermo = make_energy_model(non_volatile=False)
        short = thermo.inference_energy_j(10, include_programming=False, hold_time_s=1e-6)
        long = thermo.inference_energy_j(10, include_programming=False, hold_time_s=1e-3)
        assert long > short

    def test_pcm_inference_energy_insensitive_to_hold_time(self):
        pcm = make_energy_model(non_volatile=True)
        short = pcm.inference_energy_j(10, include_programming=False, hold_time_s=1e-6)
        long = pcm.inference_energy_j(10, include_programming=False, hold_time_s=1e-3)
        # Only the laser supply scales with hold time for PCM; remove it for
        # the comparison by checking the difference equals the laser term.
        assert long - short == pytest.approx(pcm.laser_power_w * (1e-3 - 1e-6), rel=1e-6)

    def test_area_positive_and_grows_with_size(self):
        assert make_energy_model(n=4).area_mm2() < make_energy_model(n=16).area_mm2()

    def test_summary_keys(self):
        summary = make_energy_model().summary()
        for key in ("energy_per_mac_j", "area_mm2", "static_mesh_power_w", "mvm_latency_s"):
            assert key in summary

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            PhotonicCoreEnergyModel(n_inputs=0, n_outputs=4, component_count={})

    def test_invalid_workload_rejected(self):
        with pytest.raises(ValueError):
            make_energy_model().inference_energy_j(-1)


class TestAreaModel:
    def test_pcm_shifters_are_smaller(self):
        area = AreaModel()
        counts = {"mzis": 10, "couplers": 20, "phase_shifters": 25}
        assert area.mesh_area_mm2(counts, non_volatile=True) < area.mesh_area_mm2(
            counts, non_volatile=False
        )

    def test_compact_cells_are_smaller(self):
        area = AreaModel()
        counts = {"mzis": 10, "couplers": 20, "phase_shifters": 25}
        assert area.mesh_area_mm2(counts, non_volatile=True, compact=True) < area.mesh_area_mm2(
            counts, non_volatile=True, compact=False
        )

    def test_standalone_couplers_counted(self):
        area = AreaModel()
        only_couplers = {"mzis": 0, "couplers": 8, "phase_shifters": 0}
        assert area.mesh_area_mm2(only_couplers, non_volatile=True) > 0


class TestCombinedComponentCount:
    def test_sums_counts_and_depths(self):
        counts = combined_component_count(ClementsMesh(4), ClementsMesh(6))
        assert counts["mzis"] == 6 + 15
        assert counts["depth"] == 4 + 6
        assert counts["modes"] == 6

    def test_ignores_none(self):
        counts = combined_component_count(ClementsMesh(4), None)
        assert counts["mzis"] == 6


class TestCalibration:
    def test_project_to_unitary(self, rng):
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert is_unitary(project_to_unitary(matrix))

    def test_measure_realized_matrix_matches_ideal(self, unitary4):
        mesh = ClementsMesh(4).program(unitary4)
        assert np.allclose(measure_realized_matrix(mesh), unitary4, atol=1e-10)

    def test_calibration_improves_fidelity(self, unitary6):
        mesh = ClementsMesh(6)
        error = MeshErrorModel(phase_error_std=0.06, coupler_ratio_error_std=0.02, rng=21)
        report = calibrate_mesh(mesh, unitary6, error, n_iterations=3)
        assert report.final_fidelity > report.initial_fidelity
        assert report.final_fidelity > 0.995
        assert report.improvement > 0

    def test_calibration_requires_seeded_model(self, unitary4):
        with pytest.raises(ValueError):
            calibrate_mesh(ClementsMesh(4), unitary4, MeshErrorModel(phase_error_std=0.05))

    def test_calibrated_target_is_unitary(self, unitary4):
        error = MeshErrorModel(phase_error_std=0.05, rng=5)
        report = calibrate_mesh(ClementsMesh(4), unitary4, error, n_iterations=2)
        assert is_unitary(report.corrected_target, atol=1e-8)

    def test_zero_iterations_reports_baseline_only(self, unitary4):
        error = MeshErrorModel(phase_error_std=0.05, rng=5)
        report = calibrate_mesh(ClementsMesh(4), unitary4, error, n_iterations=0)
        assert len(report.fidelities) == 1
