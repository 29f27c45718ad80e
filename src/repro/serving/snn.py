"""Spiking inference engine: serving the photonic SNN behind the batcher.

:class:`SNNEngine` puts the event-driven :class:`~repro.snn.network.PhotonicSNN`
behind the same :class:`~repro.serving.engine.InferenceEngine` contract the
dense GeMM/MLP/SoC engines speak.  A request carries one normalised analog
vector; the engine encodes it into per-channel :class:`~repro.snn.encoding.SpikeTrain`
patterns (rate or latency coding), the micro-batcher fuses queued patterns
into **one** vectorised multi-pattern :meth:`~repro.snn.network.PhotonicSNN.run_patterns`
over the shared :class:`~repro.snn.synapse.SynapseArray` state — one fused
network step per micro-batch, mirroring the "single ``apply_batch`` per
group" invariant of the dense path — and the response column is the
spike-count decode of that pattern's output neurons.

**Online STDP under traffic** (``learning=True``): after each fused batch is
answered, :meth:`~repro.snn.network.PhotonicSNN.apply_stdp_batch` applies
the pulse-quantised PCM weight updates pattern-by-pattern in batch order.
Because the update order is exactly the (deterministic) request order of
the micro-batch and nothing draws randomness, a fixed seed and arrival
trace reproduce the weight trajectory bitwise.

The compiled-weights cache invariant — *a cache hit never re-programs a
mesh* — generalises to mutable weights through the :attr:`learning_hash`:
the engine's cache key is a content hash of the crossbar's crystalline
fractions, recomputed whenever plasticity (or an external fault) mutates
them.  A cache hit therefore proves the crossbar is still in the state the
entry was compiled for; any weight mutation versions the key and forces a
recompile instead of silently serving stale state.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.serving.engine import (
    DEFAULT_MODEL_KEY,
    CompiledModel,
    InferenceEngine,
    weight_hash,
)
from repro.serving.errors import ServingError
from repro.snn.encoding import SpikeTrain, latency_encode, rate_encode
from repro.snn.network import PhotonicSNN

#: Supported spike encodings for request vectors.
SNN_ENCODINGS = ("rate", "latency")


class SNNEngine(InferenceEngine):
    """Serves a bound :class:`~repro.snn.network.PhotonicSNN` network.

    Requests must not carry explicit weights (like
    :class:`~repro.serving.engine.MLPEngine`, the engine serves exactly its
    bound network); the model state lives in the network's PCM crossbar and
    is versioned by :attr:`learning_hash`.

    Attributes:
        network: the served spiking network (shared, mutable crossbar).
        encoding: ``"rate"`` or ``"latency"`` request encoding.
        window: encoding window [s].
        max_spikes: rate-coding spike budget per channel.
        latency_threshold: latency-coding no-spike threshold.
        input_amplitude: optical amplitude of input spikes.
        learning: whether STDP runs between micro-batches.
        spikes_in / spikes_out: input events consumed / output spikes
            emitted across all served batches.
        stdp_updates: plasticity (pulse-programming) events applied.
        spike_energy_j / learning_energy_j: optical / programming energy.
    """

    def __init__(
        self,
        network: PhotonicSNN,
        encoding: str = "rate",
        window: float = 10e-9,
        max_spikes: int = 10,
        latency_threshold: float = 0.05,
        input_amplitude: float = 0.6,
        learning: bool = False,
        name: str = "snn",
        max_models: int = 4,
    ):
        super().__init__(name=name, max_models=max_models)
        if encoding not in SNN_ENCODINGS:
            raise ValueError(f"encoding must be one of {SNN_ENCODINGS}, got {encoding!r}")
        if learning and network.stdp is None:
            raise ServingError(
                f"SNN engine {name!r}: learning=True requires the network "
                f"to carry an STDP rule"
            )
        self.network = network
        self.encoding = encoding
        self.window = float(window)
        self.max_spikes = int(max_spikes)
        self.latency_threshold = float(latency_threshold)
        self.input_amplitude = float(input_amplitude)
        self.learning = bool(learning)
        self.spikes_in = 0
        self.spikes_out = 0
        self.stdp_updates = 0
        self.spike_energy_j = 0.0
        self.learning_energy_j = 0.0
        self._learning_hash = weight_hash(network.synapse_array.fractions)

    # ------------------------------------------------------------------ #
    # weight-state versioning
    # ------------------------------------------------------------------ #
    @property
    def learning_hash(self) -> str:
        """Content hash of the crossbar state the cache key is built from."""
        return self._learning_hash

    def refresh_learning_hash(self) -> str:
        """Re-hash the crossbar after an *external* mutation (e.g. a fault).

        The engine refreshes the hash itself after every learning batch;
        anything else that writes the crossbar (fault injection, manual
        re-programming) must call this so the next batch compiles against
        the mutated state instead of cache-hitting the stale entry.
        """
        self._learning_hash = weight_hash(self.network.synapse_array.fractions)
        return self._learning_hash

    def model_key(self, weights: Optional[np.ndarray]) -> str:
        """The versioned key of the bound network; rejects explicit weights."""
        if weights is not None:
            raise ServingError(
                f"SNN engine {self.name!r} serves its bound network; "
                f"requests must not carry explicit weights"
            )
        return f"snn:{self._learning_hash}"

    def compile(
        self, weights: Optional[np.ndarray] = None, key: Optional[str] = None
    ) -> CompiledModel:
        """Compile against the *current* crossbar state.

        The server stamps weightless requests with the generic
        :data:`~repro.serving.engine.DEFAULT_MODEL_KEY`; remapping it to the
        ``learning_hash``-versioned key here is what generalises the "a
        cache hit never re-programs" invariant to mutable weights — after
        any STDP batch the key changes, so a hit can only occur while the
        crossbar is bitwise-unchanged.
        """
        if key is None or key == DEFAULT_MODEL_KEY:
            key = self.model_key(weights)
        return super().compile(weights, key=key)

    # ------------------------------------------------------------------ #
    # encode -> fused run -> (STDP) -> decode
    # ------------------------------------------------------------------ #
    def encode(self, values: np.ndarray) -> List[SpikeTrain]:
        """Encode one normalised ``(n_inputs,)`` vector into spike trains."""
        if self.encoding == "rate":
            return rate_encode(values, window=self.window, max_spikes=self.max_spikes)
        return latency_encode(
            values, window=self.window, threshold=self.latency_threshold
        )

    def _compile(self, key: str, weights: Optional[np.ndarray]) -> CompiledModel:
        if weights is not None:
            # guard the pre-hashed key path too (mirrors MLPEngine)
            raise ServingError(
                f"SNN engine {self.name!r} serves its bound network; "
                f"requests must not carry explicit weights"
            )
        network = self.network

        def runner(columns: np.ndarray) -> np.ndarray:
            columns = np.asarray(columns, dtype=float)
            patterns = [
                self.encode(columns[:, index]) for index in range(columns.shape[1])
            ]
            batch = network.run_patterns(
                patterns, input_amplitude=self.input_amplitude
            )
            self.spikes_in += batch.total_input_spikes
            self.spikes_out += batch.total_output_spikes
            self.spike_energy_j += batch.energy_j
            if self.learning:
                events, energy = network.apply_stdp_batch(batch)
                self.stdp_updates += events
                self.learning_energy_j += energy
                # plasticity mutated the crossbar: version the cache key so
                # the *next* batch compiles against the new weight state
                self._learning_hash = weight_hash(network.synapse_array.fractions)
            return batch.spike_counts.T.astype(float)

        return CompiledModel(
            key=key,
            n_inputs=network.n_inputs,
            n_outputs=network.n_outputs,
            runner=runner,
        )

    def snapshot(self) -> dict:
        """Spiking counters in plain-JSON form (for telemetry snapshots)."""
        return {
            "spikes_in": self.spikes_in,
            "spikes_out": self.spikes_out,
            "stdp_updates": self.stdp_updates,
            "spike_energy_j": self.spike_energy_j,
            "learning_energy_j": self.learning_energy_j,
            "learning_hash": self._learning_hash,
        }


def run_patterns_serial(
    engine: SNNEngine, columns: np.ndarray
) -> np.ndarray:
    """Per-request serial baseline for the fused datapath.

    Runs every column of an ``(n_inputs, B)`` block through its own
    single-pattern :meth:`~repro.snn.network.PhotonicSNN.run` call (one
    weight-row evaluation per input event, Python event loop per pattern) —
    the reference the batched-vs-serial speedup in ``BENCH_throughput.json``
    is measured against.  Results are bitwise-identical to the fused path.
    """
    columns = np.asarray(columns, dtype=float)
    outputs = np.empty((engine.network.n_outputs, columns.shape[1]))
    for index in range(columns.shape[1]):
        result = engine.network.run(engine.encode(columns[:, index]), learning=False)
        outputs[:, index] = result.spike_counts().astype(float)
    return outputs
