"""Ablation: calibration iterations vs recovered fidelity.

Mesh programming in this repo relies on analytic decomposition plus an
iterative measure-and-predistort calibration loop to absorb systematic
hardware errors.  This ablation sweeps the number of calibration iterations
for a chip with fixed (seeded) phase and coupler errors and reports how much
fidelity each extra iteration buys — justifying the default of 3 iterations
used elsewhere.
"""

import numpy as np

from repro.core import calibrate_mesh
from repro.eval import format_table
from repro.mesh import ClementsMesh, MeshErrorModel
from repro.utils import random_unitary

MAX_ITERATIONS = 4


def _calibration_sweep(n_modes=6, n_chips=3):
    target = random_unitary(n_modes, rng=17)
    rows = []
    fidelity_by_iteration = np.zeros(MAX_ITERATIONS + 1)
    for chip in range(n_chips):
        error = MeshErrorModel(
            phase_error_std=0.06, coupler_ratio_error_std=0.02, rng=100 + chip
        )
        report = calibrate_mesh(ClementsMesh(n_modes), target, error, n_iterations=MAX_ITERATIONS)
        fidelity_by_iteration += np.asarray(report.fidelities)
    fidelity_by_iteration /= n_chips
    for iteration, fidelity in enumerate(fidelity_by_iteration):
        rows.append([iteration, float(fidelity)])
    return rows


def test_bench_calibration_iterations():
    rows = _calibration_sweep()
    print("\n[ablation] calibration iterations vs mean fidelity (N=6, 3 chips)")
    print(format_table(["iterations", "mean fidelity"], rows))
    fidelities = [row[1] for row in rows]
    # Uncalibrated chips sit well below unit fidelity; each iteration helps,
    # with strongly diminishing returns after the second.
    assert fidelities[0] < 0.999
    assert all(later >= earlier - 1e-9 for earlier, later in zip(fidelities, fidelities[1:]))
    assert fidelities[2] > 0.999
    assert fidelities[-1] - fidelities[2] < 0.01
