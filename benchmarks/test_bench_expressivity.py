"""E2: matrix expressivity (universality) versus programmable resources.

Regenerates the expressivity study: the Fldzhyan parallel-phase-shifter
mesh approaches universality only once it has enough phase-shifter columns,
while the Clements mesh is universal by construction with N(N-1) phases.
"""

from repro.eval import format_table
from repro.mesh import ClementsMesh, FldzhyanMesh, evaluate_expressivity, expressivity_vs_layers


def _expressivity_sweep(n_modes=4, layer_counts=(2, 4, 8), n_targets=3):
    results = expressivity_vs_layers(
        lambda layers: FldzhyanMesh(n_modes, n_layers=layers),
        layer_counts=layer_counts,
        n_targets=n_targets,
        fidelity_threshold=0.99,
        rng=0,
    )
    clements = evaluate_expressivity(lambda: ClementsMesh(n_modes), n_targets=n_targets, rng=1)
    return results, clements


def test_bench_expressivity_vs_layers():
    results, clements = _expressivity_sweep()
    rows = [
        ["fldzhyan", result.n_phase_shifters, result.mean_fidelity, result.coverage]
        for result in results
    ]
    rows.append(["clements", clements.n_phase_shifters, clements.mean_fidelity, clements.coverage])
    print("\n[E2] expressivity vs programmable phase shifters (N=4)")
    print(format_table(["architecture", "phase shifters", "mean fidelity", "coverage@0.99"], rows))
    # Expressivity grows monotonically with the number of phase-shifter columns.
    fidelities = [result.mean_fidelity for result in results]
    assert fidelities[-1] >= fidelities[0]
    # With 2N columns the Fldzhyan design is numerically universal, like Clements.
    assert fidelities[-1] > 0.99
    assert clements.coverage == 1.0
