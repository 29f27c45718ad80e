"""Cross-module integration tests: device -> mesh -> core -> system chains."""

import numpy as np
import pytest

from repro.core.backends import AnalogPhotonicBackend
from repro.core.energy import PhotonicCoreEnergyModel, combined_component_count
from repro.core.mvm import PhotonicMVM
from repro.core.nn import MLP, PhotonicMLP, train_mlp
from repro.core.quantization import QuantizationSpec
from repro.eval.metrics import speedup
from repro.eval.workloads import make_digit_dataset, make_gemm_workload
from repro.mesh.base import MeshErrorModel
from repro.mesh.clements import ClementsMesh
from repro.mesh.compact import CompactClementsMesh
from repro.system.soc import PhotonicSoC
from repro.utils.linalg import matrix_fidelity, random_unitary


class TestDeviceToMeshChain:
    def test_pcm_quantization_propagates_to_mesh_fidelity(self, unitary6):
        """The PCM level count (device) bounds the mesh programming fidelity."""
        mesh = ClementsMesh(6).program(unitary6)
        fidelities = [
            matrix_fidelity(
                mesh.matrix(MeshErrorModel(phase_quantization_levels=levels)), unitary6
            )
            for levels in (8, 32, 256)
        ]
        assert fidelities[0] < fidelities[1] < fidelities[2]
        assert fidelities[2] > 0.999


class TestMeshToCoreChain:
    def test_mvm_error_tracks_mesh_architecture(self, rng):
        """The MVM engine accepts different mesh architectures and stays exact."""
        weights = rng.normal(size=(5, 5))
        x = rng.normal(size=5)
        for mesh_factory in (ClementsMesh, CompactClementsMesh):
            engine = PhotonicMVM(
                weights, mesh_factory=mesh_factory,
                quantization=QuantizationSpec.ideal(), rng=0,
            )
            assert engine.apply(x, add_noise=False).relative_error < 1e-9

    def test_energy_model_consumes_real_mesh_inventory(self, rng):
        weights = rng.normal(size=(8, 8))
        engine = PhotonicMVM(weights, rng=0)
        counts = combined_component_count(engine._left_mesh, engine._right_mesh)
        pcm = PhotonicCoreEnergyModel(8, 8, counts, non_volatile=True)
        thermo = PhotonicCoreEnergyModel(8, 8, counts, non_volatile=False)
        # The headline device-level claim must survive the full chain.
        assert pcm.inference_energy_j(10_000) < thermo.inference_energy_j(10_000)


class TestCoreToApplicationChain:
    def test_photonic_inference_accuracy_degrades_gracefully_with_levels(self):
        dataset = make_digit_dataset(n_samples_per_class=25, n_classes=3, rng=4)
        model = MLP.random_init([dataset.n_features, 8, 3], rng=4)
        train_mlp(model, dataset.train_x, dataset.train_y, epochs=20, rng=4)
        subset_x, subset_y = dataset.test_x[:15], dataset.test_y[:15]
        accuracies = {}
        for levels in (None, 64, 4):
            photonic = PhotonicMLP(
                model,
                quantization=QuantizationSpec(8, 8, levels),
                add_noise=False,
                rng=0,
            )
            accuracies[levels] = photonic.accuracy(subset_x, subset_y)
        assert accuracies[None] >= accuracies[4]
        assert accuracies[64] >= accuracies[4]


class TestFullSystemChain:
    def test_cpu_vs_photonic_offload_speed_and_correctness(self):
        weights, inputs = make_gemm_workload(6, 6, 4, rng=5)
        golden = weights @ inputs

        cpu_soc = PhotonicSoC()
        cpu_report = cpu_soc.run_cpu_gemm(weights, inputs)

        offload_soc = PhotonicSoC()
        offload_soc.add_photonic_accelerator()
        offload_report = offload_soc.run_offloaded_gemm(weights, inputs)

        assert np.array_equal(cpu_report.result, golden)
        assert np.array_equal(offload_report.result, golden)
        assert speedup(cpu_report.cycles, offload_report.cycles) > 2.0

    def test_analog_photonic_accelerator_in_the_loop(self):
        """Offload through an analog PhotonicMVM model: results stay close to exact."""
        weights, inputs = make_gemm_workload(4, 4, 3, value_range=4, rng=6)
        golden = weights @ inputs
        analog = PhotonicMVM(
            weights.astype(float), quantization=QuantizationSpec(10, None, None), rng=0
        )
        soc = PhotonicSoC()
        soc.add_photonic_accelerator(backend=AnalogPhotonicBackend(engine=analog))
        report = soc.run_offloaded_gemm(weights, inputs)
        relative_error = np.linalg.norm(report.result - golden) / np.linalg.norm(golden)
        assert relative_error < 0.2

    def test_multi_pe_cluster_matches_single_pe_result(self):
        weights, inputs = make_gemm_workload(9, 6, 5, rng=7)
        golden = weights @ inputs
        soc = PhotonicSoC()
        for _ in range(3):
            soc.add_photonic_accelerator()
        report = soc.run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, golden)


class TestEndToEndDeterminism:
    def test_repeated_runs_are_identical(self):
        weights, inputs = make_gemm_workload(4, 4, 4, rng=8)

        def offload_once():
            soc = PhotonicSoC()
            soc.add_photonic_accelerator()
            report = soc.run_offloaded_gemm(weights, inputs)
            return report.cycles, report.energy_j, report.result.copy()

        first = offload_once()
        second = offload_once()
        assert first[0] == second[0]
        assert first[1] == pytest.approx(second[1])
        assert np.array_equal(first[2], second[2])

    def test_mesh_programming_is_deterministic(self):
        target = random_unitary(5, rng=9)
        a = ClementsMesh(5).program(target).phase_vector()
        b = ClementsMesh(5).program(target).phase_vector()
        assert np.allclose(a, b)
