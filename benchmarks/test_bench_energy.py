"""E4: non-volatile PCM weights vs thermo-optic tuning power.

Regenerates the energy argument of Sections 2-3: the per-inference energy
of a photonic MVM core whose weights are held by thermo-optic heaters
(static power for as long as the weights are resident) versus multilevel
PCM phase shifters (one-off programming energy, zero holding power), as a
function of mesh size and of how many inferences reuse the same weights.
"""

from repro.core import PhotonicCoreEnergyModel, combined_component_count
from repro.eval import format_table
from repro.mesh import ClementsMesh

MESH_SIZES = (8, 16, 32)
REUSE_COUNTS = (100, 10_000, 1_000_000)


def _energy_rows():
    rows = []
    for n in MESH_SIZES:
        counts = combined_component_count(ClementsMesh(n), ClementsMesh(n))
        thermo = PhotonicCoreEnergyModel(n, n, counts, non_volatile=False)
        pcm = PhotonicCoreEnergyModel(n, n, counts, non_volatile=True)
        for reuse in REUSE_COUNTS:
            thermo_energy = thermo.inference_energy_j(reuse) / reuse
            pcm_energy = pcm.inference_energy_j(reuse) / reuse
            rows.append([
                n, reuse,
                thermo.static_mesh_power_w,
                thermo_energy / (n * n),
                pcm_energy / (n * n),
                thermo_energy / pcm_energy,
            ])
    return rows


def test_bench_pcm_vs_thermo_energy():
    rows = _energy_rows()
    print("\n[E4] energy per inference: thermo-optic vs PCM weight storage")
    print(format_table(
        ["N", "inferences", "thermo static power (W)",
         "thermo E/MAC (J)", "PCM E/MAC (J)", "thermo/PCM ratio"],
        rows,
    ))
    ratios = {(row[0], row[1]): row[5] for row in rows}
    # PCM always wins, and the advantage grows with mesh size (more shifters
    # to hold) at fixed reuse.
    assert all(ratio > 1.0 for ratio in ratios.values())
    assert ratios[(32, 10_000)] > ratios[(8, 10_000)]
    # Amortising the one-off programming over more inferences keeps the PCM
    # advantage roughly constant or better (never collapses to parity).
    assert ratios[(16, 1_000_000)] > 2.0
