"""Property-based tests (hypothesis) on the core data structures and invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import CalibrationSample, SoCCostModel
from repro.core.quantization import quantize_uniform, quantize_weights
from repro.devices.coupler import DirectionalCoupler
from repro.devices.mzi import ideal_mzi_matrix, physical_mzi_matrix
from repro.mesh.clements import ClementsMesh
from repro.mesh.reck import ReckMesh
from repro.obs.metrics import RELATIVE_ACCURACY, Histogram
from repro.serving import GemmEngine, Replica, ReplicaScheduler
from repro.serving.scheduler import POLICIES
from repro.system.assembler import assemble
from repro.system.memory import to_signed, to_unsigned
from repro.utils.linalg import is_unitary, matrix_fidelity, random_unitary
from repro.utils.units import db_to_linear, linear_to_db

# Keep hypothesis example counts modest: several properties build meshes.
DEFAULT_SETTINGS = settings(max_examples=25, deadline=None)


class TestUnitConversionProperties:
    @DEFAULT_SETTINGS
    @given(st.floats(min_value=-120, max_value=120))
    def test_db_roundtrip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-9)

    @DEFAULT_SETTINGS
    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_linear_roundtrip(self, ratio):
        assert db_to_linear(linear_to_db(ratio)) == pytest.approx(ratio, rel=1e-9)


class TestWordConversionProperties:
    @DEFAULT_SETTINGS
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_signed_unsigned_roundtrip(self, value):
        assert to_signed(to_unsigned(value)) == value

    @DEFAULT_SETTINGS
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unsigned_fixed_point(self, word):
        assert to_unsigned(to_signed(word)) == word


class TestMZIProperties:
    @DEFAULT_SETTINGS
    @given(
        st.floats(min_value=0.0, max_value=np.pi / 2),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    def test_ideal_mzi_always_unitary(self, theta, phi):
        matrix = ideal_mzi_matrix(theta, phi)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-10)

    @DEFAULT_SETTINGS
    @given(
        st.floats(min_value=0.0, max_value=np.pi / 2),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.floats(min_value=0.3, max_value=0.7),
    )
    def test_physical_mzi_conserves_power_without_loss(self, theta, phi, ratio):
        coupler = DirectionalCoupler(power_splitting_ratio=ratio)
        matrix = physical_mzi_matrix(theta, phi, coupler_in=coupler, coupler_out=coupler)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-10)


class TestMeshProperties:
    @DEFAULT_SETTINGS
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_clements_decomposition_roundtrip(self, n, seed):
        target = random_unitary(n, rng=seed)
        mesh = ClementsMesh(n).program(target)
        assert np.allclose(mesh.matrix(), target, atol=1e-8)

    @DEFAULT_SETTINGS
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_reck_decomposition_roundtrip(self, n, seed):
        target = random_unitary(n, rng=seed)
        mesh = ReckMesh(n).program(target)
        assert np.allclose(mesh.matrix(), target, atol=1e-8)

    @DEFAULT_SETTINGS
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_programmed_mesh_matrix_is_unitary(self, n, seed):
        mesh = ClementsMesh(n).program(random_unitary(n, rng=seed))
        assert is_unitary(mesh.matrix(), atol=1e-8)

    @DEFAULT_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fidelity_is_bounded_and_symmetric(self, seed):
        a = random_unitary(4, rng=seed)
        b = random_unitary(4, rng=seed + 1)
        forward = matrix_fidelity(a, b)
        backward = matrix_fidelity(b, a)
        assert 0.0 <= forward <= 1.0 + 1e-12
        assert forward == pytest.approx(backward, abs=1e-12)


class TestQuantizationProperties:
    @DEFAULT_SETTINGS
    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=32),
        st.integers(min_value=1, max_value=12),
    )
    def test_quantize_uniform_error_bound(self, values, bits):
        values = np.asarray(values)
        quantized = quantize_uniform(values, bits)
        step = 2.0 / 2**bits
        assert np.max(np.abs(quantized - values)) <= step / 2 + 1e-12

    @DEFAULT_SETTINGS
    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=36),
        st.integers(min_value=2, max_value=33),
    )
    def test_quantize_weights_never_exceeds_range(self, values, levels):
        weights = np.asarray(values).reshape(-1)
        quantized = quantize_weights(weights, levels)
        assert np.max(np.abs(quantized)) <= np.max(np.abs(weights)) + 1e-12
        assert len(np.unique(quantized)) <= levels

    @DEFAULT_SETTINGS
    @given(st.integers(min_value=1, max_value=10))
    def test_quantizer_is_idempotent(self, bits):
        values = np.linspace(-1, 1, 41)
        once = quantize_uniform(values, bits)
        twice = quantize_uniform(once, bits)
        assert np.allclose(once, twice)


class TestAssemblerProperties:
    @DEFAULT_SETTINGS
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_li_accepts_any_32bit_immediate(self, value):
        program = assemble(f"li a0, {value}\nhalt")
        assert program.instructions[0].imm == value

    @DEFAULT_SETTINGS
    @given(st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=31))
    def test_register_operand_roundtrip(self, rd, rs1):
        program = assemble(f"add x{rd}, x{rs1}, x0\nhalt")
        assert program.instructions[0].rd == rd
        assert program.instructions[0].rs1 == rs1


# --------------------------------------------------------------------- #
# adaptive replanning: refit + drift-flag invariants
# --------------------------------------------------------------------- #
_BASE_COST_MODEL = None


def base_cost_model():
    """One calibrated 2-PE model, shared across examples (calibration is slow)."""
    global _BASE_COST_MODEL
    if _BASE_COST_MODEL is None:
        from repro.system import PhotonicSoC

        soc = PhotonicSoC()
        soc.add_photonic_accelerator()
        soc.add_photonic_accelerator()
        _BASE_COST_MODEL = SoCCostModel.calibrate(soc)
    return _BASE_COST_MODEL


def synthetic_samples(draw_rows):
    """Build CalibrationSamples from drawn (m, k, n, scale) rows."""
    samples = []
    for m, k, n, scale in draw_rows:
        n_tiles = max(1, m // 8)
        dma = float((m * k + k * n + m * n) * scale) / 10.0
        compute = float(m * k * n) * scale / 5.0
        samples.append(
            CalibrationSample(
                shape=(m, k, n),
                dma_cycles=dma,
                compute_cycles=compute,
                serial_cycles=dma + compute + 40.0 * n_tiles,
                pipelined_cycles=max(dma, compute) + 25.0 * n_tiles,
                n_tiles=n_tiles,
            )
        )
    return samples


def refit_coeffs(model):
    return (
        model.dma_coeffs,
        model.host_coeffs,
        {key: model.compute_coeffs[key] for key in sorted(model.compute_coeffs)},
    )


sample_rows = st.lists(
    st.tuples(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=0.5, max_value=4.0),
    ),
    min_size=6,
    max_size=16,
)


class TestRefitProperties:
    @DEFAULT_SETTINGS
    @given(sample_rows, st.randoms(use_true_random=False))
    def test_refit_invariant_to_sample_order(self, rows, shuffler):
        samples = synthetic_samples(rows)
        shuffled = list(samples)
        shuffler.shuffle(shuffled)
        fitted = base_cost_model().refit(samples)
        refitted = base_cost_model().refit(shuffled)
        for lhs, rhs in zip(refit_coeffs(fitted)[:2], refit_coeffs(refitted)[:2]):
            assert np.allclose(lhs, rhs, atol=1e-6)
        for key, coeffs in refit_coeffs(fitted)[2].items():
            assert np.allclose(coeffs, refit_coeffs(refitted)[2][key], atol=1e-6)

    @DEFAULT_SETTINGS
    @given(sample_rows, st.integers(min_value=2, max_value=4))
    def test_refit_invariant_to_uniform_duplication(self, rows, copies):
        # duplicating the whole window k times rescales the least-squares
        # system uniformly: the fitted coefficients must not move
        samples = synthetic_samples(rows)
        fitted = base_cost_model().refit(samples)
        duplicated = base_cost_model().refit(samples * copies)
        assert np.allclose(fitted.dma_coeffs, duplicated.dma_coeffs, atol=1e-6)
        assert np.allclose(fitted.host_coeffs, duplicated.host_coeffs, atol=1e-6)
        for key in fitted.compute_coeffs:
            assert np.allclose(
                fitted.compute_coeffs[key],
                duplicated.compute_coeffs[key],
                atol=1e-6,
            )

    @DEFAULT_SETTINGS
    @given(sample_rows)
    def test_refit_preserves_hardware_identity(self, rows):
        base = base_cost_model()
        fitted = base.refit(synthetic_samples(rows))
        assert fitted is not base
        assert fitted.clock_hz == base.clock_hz
        assert fitted.n_pes == base.n_pes
        assert fitted.words_per_burst == base.words_per_burst


drift_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # key index
        st.floats(min_value=1.0, max_value=1e6),  # predicted
        st.floats(min_value=1.0, max_value=1e6),  # measured
    ),
    min_size=1,
    max_size=40,
)

DRIFT_KEYS = [((4, 4, w), f"pe{w % 2}") for w in (1, 2, 8, 16)]


class TestDriftMonitorProperties:
    @DEFAULT_SETTINGS
    @given(drift_records)
    def test_flags_invariant_to_cross_key_interleaving(self, records):
        from repro.obs.drift import DriftMonitor

        interleaved = DriftMonitor(threshold=0.10, min_samples=2)
        for key_index, predicted, measured in records:
            shape, backend = DRIFT_KEYS[key_index]
            interleaved.record(shape, backend, predicted, measured)

        # same records grouped per key (stable sort preserves within-key
        # order, so every per-key float sum accumulates identically)
        grouped = DriftMonitor(threshold=0.10, min_samples=2)
        for wanted in range(len(DRIFT_KEYS)):
            for key_index, predicted, measured in records:
                if key_index == wanted:
                    shape, backend = DRIFT_KEYS[key_index]
                    grouped.record(shape, backend, predicted, measured)

        assert interleaved.flags() == grouped.flags()
        assert interleaved.summary() == grouped.summary()

    @DEFAULT_SETTINGS
    @given(drift_records)
    def test_min_samples_gates_flags(self, records):
        from repro.obs.drift import DriftMonitor

        monitor = DriftMonitor(threshold=1e-9, min_samples=len(records) + 1)
        for key_index, predicted, measured in records:
            shape, backend = DRIFT_KEYS[key_index]
            monitor.record(shape, backend, predicted, measured)
        assert monitor.flags() == []  # no key can reach min_samples


# --------------------------------------------------------------------- #
# metrics: mergeable relative-accuracy histograms
# --------------------------------------------------------------------- #
_GAMMA = (1 + RELATIVE_ACCURACY) / (1 - RELATIVE_ACCURACY)

sketch_samples = st.lists(
    st.tuples(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e300, allow_subnormal=False),
            # exact bucket edges γ^k, where log rounding decides the bucket
            st.integers(min_value=-2000, max_value=2000).map(lambda k: _GAMMA**k),
        ),
        st.integers(min_value=0, max_value=3),  # which of four workers saw it
    ),
    min_size=1,
    max_size=200,
)


class TestHistogramProperties:
    @DEFAULT_SETTINGS
    @given(sketch_samples)
    def test_merged_quantiles_within_relative_accuracy(self, tagged):
        samples = [value for value, _ in tagged]
        workers = [Histogram("lat") for _ in range(4)]
        whole = Histogram("lat")
        for value, worker in tagged:
            workers[worker].observe(value)
            whole.observe(value)
        merged = Histogram("lat")
        for worker in workers:  # snapshots cross processes as JSON
            merged.merge(json.loads(json.dumps(worker.snapshot())))

        assert merged.buckets == whole.buckets
        assert (merged.zero, merged.count) == (whole.zero, whole.count)
        for q in (0.0, 0.5, 0.9, 0.95, 0.99, 1.0):
            exact = float(np.quantile(samples, q, method="lower"))
            bound = RELATIVE_ACCURACY * (1 + 1e-9) * exact
            assert abs(merged.quantile(q) - exact) <= bound


# --------------------------------------------------------------------- #
# serving: every scheduler policy is a cost under one scored choice
# --------------------------------------------------------------------- #
class _HintEngine(GemmEngine):
    """An engine whose routing hint is a drawn value."""

    def __init__(self, hint):
        super().__init__(backend="ideal-digital")
        self.hint = hint

    def latency_hint_s(self, n_columns):
        return self.hint


def four_branch_select(scheduler, rr_index):
    """The routing rule written as one branch per policy, kept as the reference."""
    replicas = scheduler.replicas
    if scheduler.policy == "round-robin":
        return replicas[rr_index % len(replicas)]
    if scheduler.policy == "least-loaded":
        return min(replicas, key=lambda replica: replica.load)
    if scheduler.policy == "cost-based":
        def cost_score(replica):
            if scheduler.cost_fn is not None:
                cost = max(float(scheduler.cost_fn(replica)), 0.0)
            else:
                cost = max(replica.engine.latency_hint_s(1), 0.0)
            return ((replica.load + 1) * cost, replica.load)

        return min(replicas, key=cost_score)

    def score(replica):
        latency = replica.ewma_latency_s
        if latency is None:
            latency = replica.engine.latency_hint_s(1)
        return ((replica.load + 1) * latency, replica.load)

    return min(replicas, key=score)


# small value sets so ties, zeros and negatives come up often
_times = st.sampled_from([0.0, 0.001, 0.002, 0.5, 1.0])
_costs = st.one_of(
    st.sampled_from([-1.0, -0.001, 0.0, 0.001, 0.002, 1.0]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
replica_states = st.lists(
    st.fixed_dictionaries(
        {
            "load": st.integers(min_value=0, max_value=6),
            "pulled": st.integers(min_value=0, max_value=6),
            "ewma": st.one_of(st.none(), _times),  # None: a cold replica
            "hint": st.one_of(_times, st.sampled_from([-0.5, -0.001])),
            "cost": _costs,
        }
    ),
    min_size=1,
    max_size=5,
)


class TestRoutingRuleProperties:
    @settings(max_examples=150, deadline=None)
    @given(replica_states, st.sampled_from(POLICIES), st.booleans())
    def test_one_scored_choice_picks_what_four_branches_picked(
        self, states, policy, with_cost_fn
    ):
        replicas = []
        for index, state in enumerate(states):
            replica = Replica(f"r{index}", _HintEngine(state["hint"]))
            replica.load = state["load"]
            replica.inflight = min(state["pulled"], state["load"])
            replica.ewma_latency_s = state["ewma"]
            replicas.append(replica)
        costs = {f"r{index}": state["cost"] for index, state in enumerate(states)}
        cost_fn = (lambda replica: costs[replica.name]) if with_cost_fn else None
        scheduler = ReplicaScheduler(replicas, policy=policy, cost_fn=cost_fn)

        for rr_index in range(2 * len(replicas)):
            assert scheduler.select() is four_branch_select(scheduler, rr_index)
