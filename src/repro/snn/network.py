"""Event-driven photonic spiking neural network simulator.

Wires :class:`PhotonicLIFNeuron` neurons and an array-backed crossbar of
PCM synapses (:class:`repro.snn.synapse.SynapseArray`) into a feed-forward
network, simulates it event by event (spike by spike), and optionally
applies the STDP rule online.  This is the substrate for experiment E7:
unsupervised learning of input patterns through STDP on PCM synaptic
weights.

The event loop stays event-driven (spikes are processed in time order),
but all per-event synapse work is vectorised: a presynaptic spike fans out
through one weight-matrix row, and an output spike applies the STDP update
to one weight-matrix column, instead of touching ``n`` Python synapse
objects one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import heapq

import numpy as np

from repro.devices.pcm_cell import PCMSynapticCell
from repro.snn.encoding import SpikeTrain, merge_spike_trains
from repro.snn.neuron import PhotonicLIFNeuron
from repro.snn.stdp import STDPRule
from repro.snn.synapse import PhotonicSynapse, SynapseArray
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class BatchedSNNResult:
    """Outcome of one fused multi-pattern SNN run (:meth:`PhotonicSNN.run_patterns`).

    Attributes:
        spike_counts: (n_patterns, n_outputs) output spike counts — the
            rate-decoded responses, one row per input pattern.
        last_pre: (n_patterns, n_inputs) most recent presynaptic spike time
            per channel within each pattern (NaN = channel never spiked).
        last_post: (n_patterns, n_outputs) most recent output spike time per
            neuron within each pattern (NaN = neuron never fired).
        total_input_spikes: input events processed across the batch.
        total_output_spikes: output spikes emitted across the batch.
        energy_j: optical spike energy consumed across the batch.
    """

    spike_counts: np.ndarray
    last_pre: np.ndarray
    last_post: np.ndarray
    total_input_spikes: int
    total_output_spikes: int
    energy_j: float

    @property
    def n_patterns(self) -> int:
        """Number of patterns served by the fused run."""
        return self.spike_counts.shape[0]


@dataclass
class SNNResult:
    """Outcome of one SNN simulation run.

    Attributes:
        output_spikes: spike times per output neuron.
        total_input_spikes: number of input events processed.
        total_output_spikes: number of output spikes emitted.
        plasticity_events: number of STDP weight updates applied.
        energy_j: optical + programming energy consumed.
    """

    output_spikes: List[np.ndarray]
    total_input_spikes: int
    total_output_spikes: int
    plasticity_events: int
    energy_j: float

    def spike_counts(self) -> np.ndarray:
        """Output spike counts (the rate-decoded responses)."""
        return np.array([len(times) for times in self.output_spikes])


class PhotonicSNN:
    """A single-layer, all-to-all photonic spiking network.

    ``n_inputs`` input channels connect to ``n_outputs`` excitable-laser
    neurons through PCM synapses.  Optional lateral inhibition implements a
    soft winner-take-all so different output neurons specialise to
    different input patterns during STDP learning.

    Attributes:
        n_inputs / n_outputs: layer dimensions.
        neurons: the output LIF neurons.
        synapse_array: array-backed PCM synapse state (weight and
            crystalline-fraction matrices).
        stdp: the plasticity rule applied online (None disables learning).
        inhibition: membrane decrement applied to all other output neurons
            when one fires (lateral inhibition strength).
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        stdp: Optional[STDPRule] = None,
        inhibition: float = 0.0,
        initial_weight_spread: float = 0.2,
        neuron_threshold: float = 1.0,
        rng: RngLike = 0,
    ):
        if n_inputs < 1 or n_outputs < 1:
            raise ValueError("network dimensions must be positive")
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        self.stdp = stdp
        self.inhibition = float(inhibition)
        generator = ensure_rng(rng)
        self.neurons = [
            PhotonicLIFNeuron(threshold=neuron_threshold) for _ in range(self.n_outputs)
        ]
        fractions = np.clip(
            0.5
            + generator.uniform(
                -initial_weight_spread,
                initial_weight_spread,
                size=(self.n_inputs, self.n_outputs),
            ),
            0.0,
            1.0,
        )
        self.synapse_array = SynapseArray(fractions)
        # Most recent pre/post spike times (NaN = none yet); like the cell
        # state these persist across run() calls.
        self._last_pre = np.full(self.n_inputs, np.nan)
        self._last_post = np.full(self.n_outputs, np.nan)

    # ------------------------------------------------------------------ #
    # weights
    # ------------------------------------------------------------------ #
    def weight_matrix(self) -> np.ndarray:
        """Current synaptic weights as an (n_inputs, n_outputs) matrix."""
        return self.synapse_array.weights()

    @property
    def synapses(self) -> Dict[Tuple[int, int], PhotonicSynapse]:
        """Object view of the crossbar, keyed by ``(pre, post)``.

        Built on demand from the array state for inspection and
        compatibility; mutating the returned objects does not write back —
        plasticity acts on :attr:`synapse_array`.
        """
        view: Dict[Tuple[int, int], PhotonicSynapse] = {}
        for pre in range(self.n_inputs):
            for post in range(self.n_outputs):
                cell = PCMSynapticCell(
                    material=self.synapse_array.material,
                    patch_length=self.synapse_array.patch_length,
                    confinement=self.synapse_array.confinement,
                    pulse_crystallization_step=self.synapse_array.pulse_crystallization_step,
                    pulse_amorphization_step=self.synapse_array.pulse_amorphization_step,
                    crystalline_fraction=float(self.synapse_array.fractions[pre, post]),
                )
                synapse = PhotonicSynapse(
                    pre=pre, post=post, cell=cell, delay=self.synapse_array.delay
                )
                if np.isfinite(self._last_pre[pre]):
                    synapse.last_pre_spike = float(self._last_pre[pre])
                if np.isfinite(self._last_post[post]):
                    synapse.last_post_spike = float(self._last_post[post])
                view[(pre, post)] = synapse
        return view

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #
    def run(
        self,
        input_trains: Sequence[SpikeTrain],
        learning: bool = True,
        input_amplitude: float = 0.6,
    ) -> SNNResult:
        """Simulate the network response to a set of input spike trains.

        Events are processed in time order.  Each input spike is fanned out
        through its synapse row; when an output neuron fires, lateral
        inhibition is applied and (if learning) STDP potentiates the
        synapses whose presynaptic spikes preceded the output spike and
        depresses later ones — one column update per output spike.
        """
        if len(input_trains) > self.n_inputs:
            raise ValueError("more input trains than input channels")
        for neuron in self.neurons:
            neuron.reset()

        events = merge_spike_trains(list(input_trains))
        queue: List[Tuple[float, int, int]] = []
        for order, (time, neuron_index) in enumerate(events):
            heapq.heappush(queue, (time, order, neuron_index))

        output_spikes: List[List[float]] = [[] for _ in range(self.n_outputs)]
        plasticity_events = 0
        energy = 0.0
        spike_energy = self.neurons[0].spike_energy if self.neurons else 0.0
        pulse_energy = self.synapse_array.programming_energy_per_pulse()
        delay = self.synapse_array.delay
        plastic = learning and self.stdp is not None
        sequence = len(events)

        while queue:
            time, _, pre = heapq.heappop(queue)
            arrival = time + delay
            row_weights = self.synapse_array.row_weights(pre)
            amplitudes = input_amplitude * row_weights
            self._last_pre[pre] = time
            if plastic:
                # Depress (or potentiate, for acausal orderings) the whole
                # fan-out row against the recorded postsynaptic spike times.
                recorded = np.isfinite(self._last_post)
                if np.any(recorded):
                    delta_t = np.where(recorded, self._last_post - time, 0.0)
                    deltas = self.stdp.bounded_deltas(row_weights, delta_t, valid=recorded)
                    self.synapse_array.adjust_row(pre, deltas, current_weights=row_weights)
            for post in range(self.n_outputs):
                fired = self.neurons[post].receive(amplitudes[post], arrival)
                if fired:
                    output_spikes[post].append(arrival)
                    energy += spike_energy
                    if self.inhibition > 0:
                        for other in range(self.n_outputs):
                            if other != post:
                                self.neurons[other].membrane -= self.inhibition
                    if plastic:
                        self._last_post[post] = arrival
                        seen = np.isfinite(self._last_pre)
                        delta_t = np.where(seen, arrival - self._last_pre, 0.0)
                        column = self.synapse_array.column_weights(post)
                        deltas = self.stdp.bounded_deltas(column, delta_t, valid=seen)
                        self.synapse_array.adjust_column(post, deltas, current_weights=column)
                        plasticity_events += self.n_inputs
                        energy += self.n_inputs * pulse_energy

        return SNNResult(
            output_spikes=[np.asarray(times) for times in output_spikes],
            total_input_spikes=sequence,
            total_output_spikes=int(sum(len(times) for times in output_spikes)),
            plasticity_events=plasticity_events,
            energy_j=energy,
        )

    # ------------------------------------------------------------------ #
    # fused multi-pattern simulation (the serving datapath)
    # ------------------------------------------------------------------ #
    def run_patterns(
        self,
        patterns: Sequence[Sequence[SpikeTrain]],
        input_amplitude: float = 0.6,
    ) -> BatchedSNNResult:
        """Simulate the inference response to a batch of patterns in one pass.

        This is the spiking analogue of ``apply_batch``: the synaptic weight
        matrix is evaluated **once** for the whole batch (serial :meth:`run`
        re-evaluates one weight row per input event) and the event loop is
        vectorised across patterns — step ``i`` advances every pattern's
        ``i``-th event simultaneously, so the Python-level work scales with
        the *longest* pattern instead of the batch's total event count.

        Patterns are independent (each gets fresh neuron state, exactly as
        serial ``run`` resets the neurons), so per-pattern results are
        bitwise-identical to ``run(pattern, learning=False)``, including the
        sequential lateral-inhibition scan within each event fan-out.  The
        network's persistent pre/post spike bookkeeping and synaptic weights
        are left untouched; plasticity is applied explicitly *between* fused
        runs via :meth:`apply_stdp_batch`.
        """
        patterns = list(patterns)
        for pattern in patterns:
            if len(pattern) > self.n_inputs:
                raise ValueError("more input trains than input channels")
        n_patterns = len(patterns)
        n_out = self.n_outputs
        counts = np.zeros((n_patterns, n_out), dtype=int)
        last_pre = np.full((n_patterns, self.n_inputs), np.nan)
        last_post = np.full((n_patterns, n_out), np.nan)
        if n_patterns == 0:
            return BatchedSNNResult(
                spike_counts=counts, last_pre=last_pre, last_post=last_post,
                total_input_spikes=0, total_output_spikes=0, energy_j=0.0,
            )

        events = [merge_spike_trains(list(pattern)) for pattern in patterns]
        total_input_spikes = sum(len(sequence) for sequence in events)
        max_events = max(len(sequence) for sequence in events)
        # Padded event tables: one fused step advances every pattern's i-th
        # event.  Padding times are +inf so masked lanes neither spike nor
        # emit overflow warnings in the leak factor.
        times = np.full((n_patterns, max_events), np.inf)
        channels = np.zeros((n_patterns, max_events), dtype=int)
        valid = np.zeros((n_patterns, max_events), dtype=bool)
        for index, sequence in enumerate(events):
            for order, (time, neuron_index) in enumerate(sequence):
                times[index, order] = time
                channels[index, order] = neuron_index
                valid[index, order] = True

        # one weight-matrix evaluation per fused batch (the serving invariant)
        amplitudes_all = input_amplitude * self.synapse_array.weights()
        delay = self.synapse_array.delay
        thresholds = np.array([neuron.threshold for neuron in self.neurons])
        leak_tau = np.array([neuron.leak_time_constant for neuron in self.neurons])
        refractory = np.array([neuron.refractory_period for neuron in self.neurons])
        spike_energy = self.neurons[0].spike_energy if self.neurons else 0.0

        membrane = np.zeros((n_patterns, n_out))
        last_update = np.zeros((n_patterns, n_out))
        last_spike = np.full((n_patterns, n_out), np.nan)

        for step in range(max_events):
            active = valid[:, step]
            if not np.any(active):
                break
            time = times[:, step]
            arrival = time + delay
            pre = channels[:, step]
            rows = np.flatnonzero(active)
            last_pre[rows, pre[rows]] = time[rows]
            amplitudes = amplitudes_all[pre, :]
            # The fan-out scan stays sequential over output neurons (it is
            # sequential in serial run: a neuron firing mid-scan inhibits
            # neurons processed later in the same event) but vectorises over
            # the batch dimension.
            for post in range(n_out):
                column = membrane[:, post]
                elapsed = arrival - last_update[:, post]
                leaking = active & (elapsed > 0)
                column = np.where(
                    leaking, column * np.exp(-elapsed / leak_tau[post]), column
                )
                last_update[:, post] = np.where(
                    leaking, arrival, last_update[:, post]
                )
                refractory_mask = (
                    active
                    & np.isfinite(last_spike[:, post])
                    & (arrival - last_spike[:, post] < refractory[post])
                )
                receiving = active & ~refractory_mask
                column = np.where(receiving, column + amplitudes[:, post], column)
                fired = receiving & (column >= thresholds[post])
                column = np.where(fired, 0.0, column)
                membrane[:, post] = column
                if np.any(fired):
                    counts[fired, post] += 1
                    last_spike[fired, post] = arrival[fired]
                    last_post[fired, post] = arrival[fired]
                    if self.inhibition > 0:
                        # decrement every *other* neuron of the fired
                        # patterns; (x - i) + i == x restores column post
                        # exactly, so one broadcast subtraction suffices
                        membrane[fired, :] -= self.inhibition
                        membrane[fired, post] += self.inhibition

        total_output_spikes = int(counts.sum())
        return BatchedSNNResult(
            spike_counts=counts,
            last_pre=last_pre,
            last_post=last_post,
            total_input_spikes=total_input_spikes,
            total_output_spikes=total_output_spikes,
            energy_j=total_output_spikes * spike_energy,
        )

    def apply_stdp_batch(self, batch: BatchedSNNResult) -> Tuple[int, float]:
        """Apply STDP updates recorded by a fused run, between micro-batches.

        The online-learning contract of the serving path: responses in a
        micro-batch are computed against the weights as of batch start (one
        fused :meth:`run_patterns` step), then plasticity is applied here —
        pattern by pattern in batch order, so a fixed request order yields a
        bitwise-reproducible weight trajectory.  Per pattern, every output
        neuron that fired contributes one column update (``delta_t`` =
        last post spike − last pre spike per channel, exactly the pairing
        serial :meth:`run` applies on an output spike), and all fired
        columns are applied as **one** vectorised pulse-quantised
        :meth:`~repro.snn.synapse.SynapseArray.adjust` per pattern.

        Returns ``(plasticity_events, programming_energy_j)``.
        """
        if self.stdp is None:
            raise ValueError("apply_stdp_batch requires an STDP rule")
        pulse_energy = self.synapse_array.programming_energy_per_pulse()
        plasticity_events = 0
        energy = 0.0
        for index in range(batch.n_patterns):
            fired = np.isfinite(batch.last_post[index])
            if not np.any(fired):
                continue
            seen = np.isfinite(batch.last_pre[index])
            pairs = seen[:, None] & fired[None, :]
            delta_t = np.where(
                pairs,
                batch.last_post[index][None, :] - batch.last_pre[index][:, None],
                0.0,
            )
            weights = self.synapse_array.weights()
            deltas = self.stdp.bounded_deltas(weights, delta_t, valid=pairs)
            self.synapse_array.adjust(deltas, current_weights=weights)
            n_updates = int(np.count_nonzero(fired)) * self.n_inputs
            plasticity_events += n_updates
            energy += n_updates * pulse_energy
        return plasticity_events, energy

    def train(
        self,
        patterns: Sequence[Sequence[SpikeTrain]],
        epochs: int = 5,
    ) -> List[np.ndarray]:
        """Run several epochs of unsupervised STDP over a pattern set.

        Returns the weight matrix after every epoch so learning progress
        can be inspected.
        """
        if self.stdp is None:
            raise ValueError("training requires an STDP rule")
        history = []
        for _ in range(max(1, epochs)):
            for pattern in patterns:
                self.run(pattern, learning=True)
            history.append(self.weight_matrix())
        return history

    def respond(self, pattern: Sequence[SpikeTrain]) -> np.ndarray:
        """Inference-mode response: output spike counts without learning."""
        result = self.run(pattern, learning=False)
        return result.spike_counts()
