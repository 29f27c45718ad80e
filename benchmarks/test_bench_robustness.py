"""E3: robustness of mesh architectures to hardware errors.

Regenerates the robustness comparison: mean programmed-matrix fidelity
under (a) Gaussian phase-programming errors, (b) coupler splitting-ratio
errors, and (c) multilevel PCM phase quantisation, for the Clements and
Reck architectures (the Fldzhyan mesh is covered by its dedicated test
suite; keeping the benchmark to analytic meshes keeps it fast).
"""

from repro.eval import format_table
from repro.mesh import ClementsMesh, ReckMesh, sweep_error_magnitude
from repro.utils import random_unitary

PHASE_SIGMAS = (0.0, 0.05, 0.1, 0.2)
COUPLER_SIGMAS = (0.0, 0.02, 0.05)
QUANT_LEVELS = (8, 16, 64, 256)


def _robustness_tables(n_modes=6, n_trials=5):
    target = random_unitary(n_modes, rng=5)
    tables = {}
    for name, factory in (("clements", lambda: ClementsMesh(n_modes)),
                          ("reck", lambda: ReckMesh(n_modes))):
        tables[name] = {
            "phase": sweep_error_magnitude(factory, target, "phase", PHASE_SIGMAS, n_trials=n_trials, rng=0),
            "coupler": sweep_error_magnitude(factory, target, "coupler", COUPLER_SIGMAS, n_trials=n_trials, rng=1),
            "quantization": sweep_error_magnitude(factory, target, "quantization", QUANT_LEVELS, n_trials=1, rng=2),
        }
    return tables


def test_bench_robustness_sweeps():
    tables = _robustness_tables()
    for error_kind, header in (("phase", "sigma_phase (rad)"),
                               ("coupler", "sigma_split"),
                               ("quantization", "PCM levels")):
        rows = []
        for name, sweeps in tables.items():
            for point in sweeps[error_kind]:
                rows.append([name, point.error_magnitude, point.fidelity_mean, point.fidelity_std])
        print(f"\n[E3] fidelity vs {header} (N=6)")
        print(format_table(["architecture", header, "mean fidelity", "std"], rows))

    clements_phase = [p.fidelity_mean for p in tables["clements"]["phase"]]
    # Fidelity decreases monotonically (on average) with the phase error.
    assert clements_phase[0] > 0.9999
    assert clements_phase[-1] < clements_phase[0]
    # Quantisation: more PCM levels always help.
    quant = [p.fidelity_mean for p in tables["clements"]["quantization"]]
    assert quant[-1] > quant[0]
    assert quant[-1] > 0.999
    # Both analytic architectures use the same MZI count, so their average
    # phase-error sensitivity is comparable (within a few percent).
    reck_phase = [p.fidelity_mean for p in tables["reck"]["phase"]]
    assert abs(reck_phase[-1] - clements_phase[-1]) < 0.2
