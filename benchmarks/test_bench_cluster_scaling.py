"""E10: multi-PE accelerator cluster scaling.

Regenerates the cluster claim of the gem5-based platform (Fig. 3, right):
a tiled GeMM distributed over 1, 2 and 4 photonic processing elements
coordinated through their MMR blocks and interrupt lines.  Reports
end-to-end cycles, speedup over one PE, energy and area versus PE count.
"""

import numpy as np

from benchmarks.sections import cluster
from repro.eval import format_table, make_gemm_workload, speedup

PE_COUNTS = (1, 2, 4)


def _cluster_sweep(rows_=16, inner=12, cols=8):
    weights, inputs = make_gemm_workload(rows_, inner, cols, rng=0)
    golden = weights @ inputs
    reports = {}
    for n_pes in PE_COUNTS:
        report = cluster(n_pes).run_tiled_gemm(weights, inputs)
        assert np.array_equal(report.result, golden)
        reports[n_pes] = report
    return reports


def test_bench_cluster_scaling():
    reports = _cluster_sweep()
    base = reports[PE_COUNTS[0]]
    rows = [
        [n_pes, report.cycles, speedup(base.cycles, report.cycles),
         report.energy_j, report.area_mm2]
        for n_pes, report in reports.items()
    ]
    print("\n[E10] tiled GeMM across a photonic PE cluster (16x12x8)")
    print(format_table(["PEs", "cycles", "speedup vs 1 PE", "energy (J)", "area (mm^2)"], rows))
    # More PEs means fewer cycles (parallel tiles), monotonically.
    assert reports[2].cycles < reports[1].cycles
    assert reports[4].cycles <= reports[2].cycles
    # But area grows with the PE count — the classic throughput/area trade.
    assert reports[4].area_mm2 > reports[1].area_mm2
