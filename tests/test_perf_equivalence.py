"""Equivalence tests for the vectorized hot-path engine.

The vectorized kernels (O(N^3) mesh forward model, batched MVM datapath,
array-backed SNN synapses) must implement *the same physics* as the
original per-element formulations.  Every test here pits a vectorized path
against a straightforward composed/looped reference and demands agreement
to machine precision.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.gemm import TDMGeMM
from repro.core.mvm import PhotonicMVM
from repro.core.quantization import QuantizationSpec
from repro.devices.mzi import ideal_mzi_matrix, physical_mzi_matrix
from repro.mesh.base import MeshErrorModel
from repro.mesh.clements import ClementsMesh
from repro.mesh.reck import ReckMesh
from repro.snn.encoding import merge_spike_trains, rate_encode
from repro.snn.network import PhotonicSNN
from repro.snn.neuron import PhotonicLIFNeuron
from repro.snn.stdp import STDPRule
from repro.snn.synapse import PhotonicSynapse
from repro.utils.linalg import random_unitary


def composed_matmul_matrix(mesh, error_model=None):
    """The original O(N^5) forward model: one full N x N matmul per MZI."""
    n = mesh.n_modes

    def embed(block, mode):
        matrix = np.eye(n, dtype=complex)
        matrix[mode : mode + 2, mode : mode + 2] = block
        return matrix

    if error_model is None:
        result = np.diag(np.exp(1j * mesh.output_phases)).astype(complex)
        for placement in mesh.placements:
            block = ideal_mzi_matrix(placement.theta, placement.phi)
            result = result @ embed(block, placement.mode)
        return result

    # Deterministic error models only (quantisation / loss): random draws
    # would have to replicate the engine's stream, which is tested against
    # the scalar block formula elsewhere.
    assert error_model.phase_error_std == 0 and error_model.coupler_ratio_error_std == 0
    output = np.array([error_model.quantize_phase(p) for p in mesh.output_phases])
    result = np.diag(np.exp(1j * output)).astype(complex)
    for placement in mesh.placements:
        theta = error_model.quantize_phase(placement.theta)
        phi = error_model.quantize_phase(placement.phi)
        block = physical_mzi_matrix(
            theta, phi, arm_loss_db=error_model.mzi_insertion_loss_db
        )
        result = result @ embed(block, placement.mode)
    return result


class TestMeshForwardModelEquivalence:
    @pytest.mark.parametrize("mesh_cls", [ClementsMesh, ReckMesh])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_ideal_matrix_matches_composed_matmul(self, mesh_cls, n):
        mesh = mesh_cls(n).program(random_unitary(n, rng=300 + n))
        assert np.allclose(mesh.matrix(), composed_matmul_matrix(mesh), atol=1e-13)

    @pytest.mark.parametrize("mesh_cls", [ClementsMesh, ReckMesh])
    def test_quantized_physical_matrix_matches_composed_matmul(self, mesh_cls):
        mesh = mesh_cls(6).program(random_unitary(6, rng=31))
        model = MeshErrorModel(phase_quantization_levels=16, mzi_insertion_loss_db=0.2)
        assert np.allclose(
            mesh.matrix(model), composed_matmul_matrix(mesh, model), atol=1e-13
        )

    def test_unprogrammed_mesh_matches_composed_matmul(self):
        mesh = ClementsMesh(5)
        assert np.allclose(mesh.matrix(), composed_matmul_matrix(mesh), atol=1e-13)

    def test_cached_matrix_tracks_reprogramming(self):
        mesh = ClementsMesh(4)
        first_target = random_unitary(4, rng=1)
        second_target = random_unitary(4, rng=2)
        mesh.program(first_target)
        first = mesh.matrix()
        assert np.allclose(first, first_target, atol=1e-10)
        mesh.program(second_target)
        assert np.allclose(mesh.matrix(), second_target, atol=1e-10)
        assert not np.allclose(mesh.matrix(), first, atol=1e-6)

    def test_cached_matrix_tracks_set_phase_vector(self):
        mesh = ClementsMesh(4).program(random_unitary(4, rng=3))
        before = mesh.matrix()
        phases = mesh.phase_vector()
        phases[0] += 0.5
        mesh.set_phase_vector(phases)
        after = mesh.matrix()
        assert not np.allclose(before, after, atol=1e-6)
        assert np.allclose(after, composed_matmul_matrix(mesh), atol=1e-13)

    def test_repeated_matrix_calls_are_identical(self):
        mesh = ClementsMesh(6).program(random_unitary(6, rng=4))
        assert np.array_equal(mesh.matrix(), mesh.matrix())


class TestPhaseVectorRoundTrip:
    @pytest.mark.parametrize("mesh_cls", [ClementsMesh, ReckMesh])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_preserves_realized_matrix(self, mesh_cls, seed):
        n = 6
        mesh = mesh_cls(n).program(random_unitary(n, rng=400 + seed))
        phases = mesh.phase_vector()
        realized = mesh.matrix()
        mesh.set_phase_vector(phases)
        assert np.allclose(mesh.phase_vector(), phases, atol=0)
        assert np.allclose(mesh.matrix(), realized, atol=1e-13)

    def test_placements_assignment_round_trip(self):
        mesh = ClementsMesh(5).program(random_unitary(5, rng=7))
        other = ClementsMesh(5)
        other.placements = mesh.placements
        other.output_phases = mesh.output_phases.copy()
        assert np.allclose(other.matrix(), mesh.matrix(), atol=1e-13)


class TestQuantizePhaseVectorized:
    def test_array_matches_scalar(self):
        model = MeshErrorModel(phase_quantization_levels=12)
        phases = np.linspace(-7.0, 7.0, 41)
        vectorized = model.quantize_phase(phases)
        scalars = np.array([model.quantize_phase(float(p)) for p in phases])
        assert np.array_equal(vectorized, scalars)

    def test_scalar_returns_float(self):
        model = MeshErrorModel(phase_quantization_levels=8)
        assert isinstance(model.quantize_phase(1.234), float)

    def test_disabled_is_identity(self):
        model = MeshErrorModel()
        phases = np.array([0.1, 2.0])
        assert model.quantize_phase(phases) is phases


class TestBatchedMVMEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [QuantizationSpec.ideal(), QuantizationSpec(), QuantizationSpec(4, 6, 16)],
        ids=["ideal", "default", "coarse"],
    )
    def test_batch_matches_per_vector_apply(self, rng, spec):
        weights = rng.normal(size=(6, 5))
        engine = PhotonicMVM(weights, quantization=spec, rng=0)
        batch = rng.normal(size=(5, 9))
        batched = engine.apply_batch(batch, add_noise=False)
        for i in range(batch.shape[1]):
            single = engine.apply(batch[:, i], add_noise=False)
            assert np.allclose(batched.value[:, i], single.value, atol=1e-12)
            assert np.allclose(batched.reference[:, i], single.reference, atol=1e-12)

    def test_batch_matches_apply_for_complex_inputs(self, rng):
        weights = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        batched = engine.apply_batch(batch, add_noise=False)
        for i in range(5):
            single = engine.apply(batch[:, i], add_noise=False)
            assert np.allclose(batched.value[:, i], single.value, atol=1e-12)

    def test_batch_matches_apply_for_intensity_detection(self, rng):
        weights = rng.normal(size=(4, 4))
        engine = PhotonicMVM(
            weights, coherent_detection=False, quantization=QuantizationSpec.ideal(), rng=0
        )
        batch = rng.normal(size=(4, 6))
        batched = engine.apply_batch(batch, add_noise=False)
        for i in range(6):
            single = engine.apply(batch[:, i], add_noise=False)
            assert np.allclose(batched.value[:, i], single.value, atol=1e-12)

    def test_zero_columns_give_zero_output(self, rng):
        weights = rng.normal(size=(4, 3))
        engine = PhotonicMVM(weights, rng=0)
        batch = rng.normal(size=(3, 4))
        batch[:, 2] = 0.0
        result = engine.apply_batch(batch, add_noise=True)
        assert np.allclose(result.value[:, 2], 0.0)

    def test_batch_shape_validation(self, rng):
        engine = PhotonicMVM(rng.normal(size=(3, 4)), rng=0)
        with pytest.raises(ValueError):
            engine.apply_batch(np.ones((5, 2)))
        with pytest.raises(ValueError):
            engine.apply_batch(np.ones(4))


class TestRealDtypeConsistency:
    def test_apply_many_returns_real_for_real_workload(self, rng):
        weights = rng.normal(size=(4, 5))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(5, 6))
        out = engine.apply_many(batch, add_noise=False)
        assert not np.iscomplexobj(out)
        assert np.allclose(out, weights @ batch, atol=1e-8)

    def test_apply_many_real_even_with_zero_columns(self, rng):
        weights = rng.normal(size=(4, 5))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(5, 6))
        batch[:, 0] = 0.0
        out = engine.apply_many(batch, add_noise=False)
        assert not np.iscomplexobj(out)
        assert np.allclose(out[:, 0], 0.0)

    def test_apply_zero_vector_real_for_real_weights(self, rng):
        engine = PhotonicMVM(rng.normal(size=(4, 5)), rng=0)
        result = engine.apply(np.zeros(5))
        assert not np.iscomplexobj(result.value)
        assert np.allclose(result.value, 0.0)

    def test_tdm_gemm_real_for_real_workload(self, rng):
        weights = rng.normal(size=(4, 5))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(5, 6))
        batch[:, 3] = 0.0
        result = TDMGeMM(engine).multiply(batch, add_noise=False)
        assert not np.iscomplexobj(result.value)
        assert not np.iscomplexobj(result.reference)

    def test_complex_workload_stays_complex(self, rng):
        weights = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        out = engine.apply_many(batch, add_noise=False)
        assert np.iscomplexobj(out)


class TestSinglePortEngines:
    """Regression tests for 1 x N and N x 1 weight matrices."""

    def test_row_matrix_exact_when_ideal(self, rng):
        weights = rng.normal(size=(1, 6))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        x = rng.normal(size=6)
        result = engine.apply(x, add_noise=False)
        assert result.relative_error < 1e-10
        assert np.allclose(engine.realized_matrix, weights, atol=1e-10)

    def test_column_matrix_exact_when_ideal(self, rng):
        weights = rng.normal(size=(6, 1))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        x = rng.normal(size=1)
        result = engine.apply(x, add_noise=False)
        assert result.relative_error < 1e-10

    def test_one_by_one_matrix(self):
        engine = PhotonicMVM(np.array([[2.5]]), quantization=QuantizationSpec.ideal(), rng=0)
        result = engine.apply(np.array([1.2]), add_noise=False)
        assert np.allclose(result.value, 3.0, atol=1e-10)

    def test_single_port_sees_phase_error_model(self, rng):
        weights = -np.abs(rng.normal(size=(1, 6))) - 0.1  # negative => left = -1
        ideal = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        noisy = PhotonicMVM(
            weights,
            quantization=QuantizationSpec.ideal(),
            error_model=MeshErrorModel(phase_error_std=0.2, rng=5),
            rng=0,
        )
        # The trivial 1-port factor must not bypass the error model: with a
        # pure 1 x N matrix the left factor is a single phase shifter whose
        # programming error shows up in the realized matrix.
        assert not np.allclose(noisy.realized_matrix, ideal.realized_matrix, atol=1e-6)

    def test_single_port_quantization_applies(self, rng):
        weights = -np.abs(rng.normal(size=(1, 5))) - 0.1
        engine = PhotonicMVM(
            weights,
            quantization=QuantizationSpec(input_bits=None, output_bits=None, weight_levels=3),
            rng=0,
        )
        # With 3 uniform levels over [0, 2 pi) the value pi is off-grid, so
        # the left factor (-1 = e^{i pi}) cannot be realised exactly.
        assert not np.allclose(engine.realized_matrix, weights, atol=1e-3)

    def test_single_port_deterministic_per_seed(self, rng):
        weights = rng.normal(size=(1, 6))
        model = MeshErrorModel(phase_error_std=0.1, rng=9)
        a = PhotonicMVM(weights, error_model=model, rng=0).realized_matrix
        b = PhotonicMVM(weights, error_model=model, rng=0).realized_matrix
        assert np.allclose(a, b)


# Captured from the per-part ADC datapath (separate real and imaginary
# quantiser calls, ``allclose`` real-input checks).  Bits of the SVD and the
# complex matmuls enter it, so another BLAS/LAPACK build may need a fresh
# capture from a known-good commit.
MVM_DATAPATH_DIGEST = "29f27d555f36de6e3ccef1ce272584ae0e8a37d9"


def mvm_datapath_digest() -> str:
    """SHA-1 over dtype, shape and raw bytes of every MVM entry point's output.

    The grid crosses real, complex and one-port weight shapes with both
    detection modes, each quantiser on and off, an optional mesh error
    model, noise on and off, and real, complex, complex-with-zero-imag,
    int64 and zero-column inputs.  Each engine is seeded and called in a
    fixed order, so the noisy outputs also pin the RNG stream.
    """
    digest = hashlib.sha1()

    def feed(array):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())

    data = np.random.default_rng(2024)
    weight_cases = [
        data.normal(size=(4, 4)),
        data.normal(size=(3, 5)),
        data.normal(size=(4, 3)) + 1j * data.normal(size=(4, 3)),
        data.normal(size=(1, 5)),
        data.normal(size=(6, 1)),
    ]
    specs = [
        QuantizationSpec(input_bits=i, output_bits=o, weight_levels=w)
        for i, o, w in itertools.product((None, 5), (None, 6), (None, 32))
    ]
    error_models = [None, MeshErrorModel(phase_error_std=0.02, rng=3)]
    for weights, coherent, spec, error_model in itertools.product(
        weight_cases, (True, False), specs, error_models
    ):
        n_in = weights.shape[1]
        real = data.normal(size=(n_in, 3))
        zero_column = real.copy()
        zero_column[:, 1] = 0.0
        inputs = [
            real,
            real + 1j * data.normal(size=(n_in, 3)),
            real.astype(complex),
            data.integers(-3, 4, size=(n_in, 3)),
            zero_column,
        ]
        engine = PhotonicMVM(
            weights,
            quantization=spec,
            error_model=error_model,
            coherent_detection=coherent,
            rng=11,
        )
        for x, add_noise in itertools.product(inputs, (False, True)):
            feed(engine.matmul(x, add_noise=add_noise))
            batched = engine.apply_batch(x, add_noise=add_noise)
            feed(batched.value)
            feed(batched.reference)
            single = engine.apply(x[:, 0], add_noise=add_noise)
            feed(single.value)
            feed(single.reference)
            feed(engine.apply_many(x, add_noise=add_noise))
    return digest.hexdigest()


class TestMVMDatapathDigest:
    """Bitwise oracle over the MVM entry points.

    The batch-versus-apply tests above pass for a change that shifts every
    path alike; this one pins the bytes themselves, including the sign of
    zeros and the real/complex dtype of each result.  Update the literal
    only for a deliberate change of the analog model.
    """

    def test_outputs_match_pinned_digest(self):
        assert mvm_datapath_digest() == MVM_DATAPATH_DIGEST


def reference_snn_run(
    fractions: np.ndarray,
    input_trains,
    stdp,
    inhibition: float,
    neuron_threshold: float,
    learning: bool,
    input_amplitude: float = 0.6,
):
    """The original dict-of-synapse-objects event loop, kept as an oracle."""
    from repro.devices.pcm_cell import PCMSynapticCell

    n_inputs, n_outputs = fractions.shape
    neurons = [PhotonicLIFNeuron(threshold=neuron_threshold) for _ in range(n_outputs)]
    synapses = {
        (pre, post): PhotonicSynapse(
            pre=pre,
            post=post,
            cell=PCMSynapticCell(crystalline_fraction=float(fractions[pre, post])),
        )
        for pre in range(n_inputs)
        for post in range(n_outputs)
    }

    import heapq

    events = merge_spike_trains(list(input_trains))
    queue = []
    for order, (time, neuron_index) in enumerate(events):
        heapq.heappush(queue, (time, order, neuron_index))
    output_spikes = [[] for _ in range(n_outputs)]
    while queue:
        time, _, pre = heapq.heappop(queue)
        for post in range(n_outputs):
            synapse = synapses[(pre, post)]
            arrival, amplitude = synapse.transmit(time, input_amplitude)
            if learning and stdp is not None:
                stdp.apply_on_pre_spike(synapse, time)
            fired = neurons[post].receive(amplitude, arrival)
            if fired:
                output_spikes[post].append(arrival)
                if inhibition > 0:
                    for other in range(n_outputs):
                        if other != post:
                            neurons[other].membrane -= inhibition
                if learning and stdp is not None:
                    for input_index in range(n_inputs):
                        stdp.apply_on_post_spike(synapses[(input_index, post)], arrival)
    weights = np.zeros((n_inputs, n_outputs))
    for (pre, post), synapse in synapses.items():
        weights[pre, post] = synapse.weight
    return output_spikes, weights


class TestSNNArrayEquivalence:
    @pytest.mark.parametrize("learning", [False, True])
    def test_run_matches_object_reference(self, learning):
        stdp = STDPRule(a_plus=0.15, a_minus=0.08)
        network = PhotonicSNN(
            6, 3, stdp=stdp, inhibition=0.25, neuron_threshold=0.6, rng=0
        )
        initial_fractions = network.synapse_array.fractions.copy()
        values = np.array([1.0, 1.0, 1.0, 0.0, 0.5, 0.0])
        pattern = rate_encode(values, max_spikes=8)
        result = network.run(pattern, learning=learning)
        ref_spikes, ref_weights = reference_snn_run(
            initial_fractions, pattern, stdp, 0.25, 0.6, learning
        )
        assert [list(times) for times in result.output_spikes] == ref_spikes
        assert np.allclose(network.weight_matrix(), ref_weights, atol=1e-12)

    def test_multi_run_state_persistence_matches_reference(self):
        # Spike-pairing state (last pre/post spike times) persists across
        # run() calls exactly like it did on the synapse objects.
        stdp = STDPRule(a_plus=0.2, a_minus=0.1)
        network = PhotonicSNN(4, 2, stdp=stdp, neuron_threshold=0.5, rng=1)
        initial_fractions = network.synapse_array.fractions.copy()
        pattern = rate_encode(np.ones(4), max_spikes=6)

        # Object-based oracle with persistent synapses across two runs.
        from repro.devices.pcm_cell import PCMSynapticCell
        import heapq

        neurons = [PhotonicLIFNeuron(threshold=0.5) for _ in range(2)]
        synapses = {
            (pre, post): PhotonicSynapse(
                pre=pre,
                post=post,
                cell=PCMSynapticCell(crystalline_fraction=float(initial_fractions[pre, post])),
            )
            for pre in range(4)
            for post in range(2)
        }
        for _ in range(2):
            for neuron in neurons:
                neuron.reset()
            events = merge_spike_trains(list(pattern))
            queue = []
            for order, (time, neuron_index) in enumerate(events):
                heapq.heappush(queue, (time, order, neuron_index))
            while queue:
                time, _, pre = heapq.heappop(queue)
                for post in range(2):
                    synapse = synapses[(pre, post)]
                    arrival, amplitude = synapse.transmit(time, 0.6)
                    stdp.apply_on_pre_spike(synapse, time)
                    if neurons[post].receive(amplitude, arrival):
                        for input_index in range(4):
                            stdp.apply_on_post_spike(synapses[(input_index, post)], arrival)
        expected = np.zeros((4, 2))
        for (pre, post), synapse in synapses.items():
            expected[pre, post] = synapse.weight

        network.run(pattern, learning=True)
        network.run(pattern, learning=True)
        assert np.allclose(network.weight_matrix(), expected, atol=1e-12)

    def test_synapses_view_consistent_with_arrays(self):
        network = PhotonicSNN(3, 2, rng=0)
        view = network.synapses
        assert len(view) == 6
        weights = network.weight_matrix()
        for (pre, post), synapse in view.items():
            assert synapse.weight == pytest.approx(weights[pre, post], abs=1e-12)

    def test_stdp_weight_changes_matches_scalar(self):
        rule = STDPRule(a_plus=0.1, a_minus=0.07, tau_plus=1.5e-9, tau_minus=2.5e-9)
        deltas = np.array([-5e-9, -1e-10, 0.0, 1e-10, 5e-9])
        vectorized = rule.weight_changes(deltas)
        scalars = np.array([rule.weight_change(float(d)) for d in deltas])
        assert np.allclose(vectorized, scalars, atol=0, rtol=0)
