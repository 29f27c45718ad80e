"""E1 (Fig. 2b): programming fidelity of the MZI mesh architectures.

Regenerates the architecture-comparison rows of Section 4: for each mesh
architecture (Clements, compact Clements, Reck, Fldzhyan) and size, the
mean fidelity of programming Haar-random target unitaries, plus the
hardware inventory (MZIs, phase shifters, depth).
"""

import numpy as np

from repro.eval import format_table
from repro.mesh import (
    ClementsMesh,
    CompactClementsMesh,
    FldzhyanMesh,
    ReckMesh,
    programming_fidelity,
)
from repro.utils import random_unitary

ARCHITECTURES = {
    "clements": lambda n: ClementsMesh(n),
    "compact-clements": lambda n: CompactClementsMesh(n),
    "reck": lambda n: ReckMesh(n),
    "fldzhyan": lambda n: FldzhyanMesh(n),
}


def _fidelity_table(sizes=(4, 8), n_targets=3):
    rows = []
    for n in sizes:
        targets = [random_unitary(n, rng=100 * n + i) for i in range(n_targets)]
        for name, factory in ARCHITECTURES.items():
            if name == "fldzhyan" and n > 4:
                # Optimisation-programmed mesh: keep the benchmark quick.
                continue
            fidelities = [programming_fidelity(factory(n), target) for target in targets]
            mesh = factory(n)
            counts = mesh.component_count()
            rows.append([
                name, n, counts["mzis"], counts["phase_shifters"], counts["depth"],
                float(np.mean(fidelities)), float(np.min(fidelities)),
            ])
    return rows


def test_bench_mesh_programming_fidelity():
    rows = _fidelity_table()
    print("\n[E1] mesh programming fidelity (Haar-random targets)")
    print(format_table(
        ["architecture", "N", "MZIs", "phase shifters", "depth", "mean fidelity", "min fidelity"],
        rows,
    ))
    by_name = {(row[0], row[1]): row for row in rows}
    # Analytic meshes are universal: fidelity ~ 1 at every size.
    for (name, n), row in by_name.items():
        if name in ("clements", "compact-clements", "reck"):
            assert row[5] > 0.9999
    # Fldzhyan (optimisation-programmed) reaches near-universality at N=4.
    assert by_name[("fldzhyan", 4)][5] > 0.99
    # Clements halves the depth of Reck (N vs 2N-3).
    assert by_name[("clements", 8)][4] < by_name[("reck", 8)][4]
