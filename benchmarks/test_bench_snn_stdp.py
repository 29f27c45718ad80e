"""E7: photonic spiking neural network — excitability and STDP viability.

Regenerates the Section 3 claims: the Q-switched laser neuron has a clear
firing threshold with an all-or-nothing response, the PCM-pulse STDP window
has the standard causal/anti-causal shape, and online STDP in a small
network potentiates the synapses that drive output spikes.
"""

import numpy as np

from repro.eval import format_table, make_spike_patterns
from repro.snn import ExcitableLaserNeuron, PhotonicSNN, STDPRule


def _snn_study():
    # 1. excitability threshold of the laser neuron
    neuron = ExcitableLaserNeuron()
    amplitudes = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
    spike_counts = []
    for amplitude in amplitudes:
        response = neuron.stimulate([amplitude], [300.0], duration=1200.0)
        spike_counts.append(len(response["spike_times"]))
    threshold = neuron.firing_threshold(amplitudes)

    # 2. STDP window sampled at a few lags
    rule = STDPRule()
    lags = np.array([-4e-9, -1e-9, 1e-9, 4e-9])
    window = rule.window(lags)

    # 3. online STDP learning in a small network
    patterns = make_spike_patterns(n_inputs=8, n_patterns=2, rng=0)
    network = PhotonicSNN(8, 2, stdp=STDPRule(a_plus=0.12, a_minus=0.06),
                          inhibition=0.4, neuron_threshold=0.8, rng=0)
    initial = network.weight_matrix().copy()
    result = network.run(patterns[0], learning=True)
    final = network.weight_matrix()
    active = [t.neuron for t in patterns[0] if t.times.size > 0]
    inactive = [i for i in range(8) if i not in active]
    potentiation = float(np.mean(final[active] - initial[active]))
    inactive_change = float(np.mean(final[inactive] - initial[inactive]))

    return {
        "amplitudes": amplitudes,
        "spike_counts": spike_counts,
        "threshold": threshold,
        "lags": lags,
        "window": window,
        "output_spikes": result.total_output_spikes,
        "plasticity_events": result.plasticity_events,
        "energy_j": result.energy_j,
        "potentiation_active": potentiation,
        "change_inactive": inactive_change,
    }


def test_bench_snn_stdp():
    data = _snn_study()
    print("\n[E7] excitable laser response")
    print(format_table(
        ["input amplitude", "output spikes"],
        list(zip(data["amplitudes"], data["spike_counts"])),
    ))
    print(f"firing threshold: {data['threshold']:.2f}")
    print("\n[E7] STDP window")
    print(format_table(["delta_t (s)", "delta_w"], list(zip(data["lags"], data["window"]))))
    print("\n[E7] online STDP run: "
          f"{data['output_spikes']} output spikes, {data['plasticity_events']} updates, "
          f"{data['energy_j']:.3e} J, dW(active)={data['potentiation_active']:.3f}, "
          f"dW(inactive)={data['change_inactive']:.3f}")

    # Threshold behaviour: the weakest inputs are sub-threshold, strong ones spike.
    assert data["spike_counts"][0] == 0
    assert data["spike_counts"][-1] >= 1
    assert 0.05 < data["threshold"] <= 0.8
    # STDP window: causal potentiation, anti-causal depression, decaying with lag.
    assert data["window"][2] > 0 > data["window"][1]
    assert abs(data["window"][2]) > abs(data["window"][3])
    # Learning: synapses from the active inputs are potentiated on average,
    # and more strongly than the synapses from silent inputs.
    assert data["output_spikes"] > 0
    assert data["potentiation_active"] > 0
    assert data["potentiation_active"] >= data["change_inactive"]
