"""``soc_offload``: pipelined multi-PE tiled GeMM on the full-system model.

For each PE count the whole offload (host MMR configuration, sharded tile
streams, double-buffered DMA/compute pipeline) runs once on a fresh SoC;
the record keeps the simulated end-to-end cycles, the serial DMA + compute
phase sum, the measured overlap and the simulator wall-time.
"""

import time

import numpy as np

from benchmarks.sections import cluster
from repro.eval import make_gemm_workload


def collect(quick: bool = False) -> dict:
    """Per-PE-count cycles, phase sums and wall-time of one offload."""
    shape = (16, 8, 8) if quick else (32, 16, 16)
    weights, inputs = make_gemm_workload(*shape, rng=0)
    golden = weights @ inputs
    section = {}
    for n_pes in (1, 2) if quick else (1, 2, 4):
        soc = cluster(n_pes)
        started = time.perf_counter()
        report = soc.run_tiled_gemm(weights, inputs)
        wall_s = time.perf_counter() - started
        assert np.array_equal(report.result, golden), f"{n_pes}-PE result mismatch"
        pipeline = report.pipeline
        section[f"{n_pes}pe"] = {
            "shape": list(shape),
            "cycles": report.cycles,
            "serial_cycles": pipeline["serial_cycles"],
            "critical_path_serial_cycles": pipeline["critical_path_serial_cycles"],
            "overlap_cycles": pipeline["overlap_cycles"],
            "intra_pe_overlap_cycles": pipeline["intra_pe_overlap_cycles"],
            "n_tiles": pipeline["n_tiles"],
            "wall_s": wall_s,
        }
    return section


def check(result: dict) -> None:
    """The pipeline overlaps DMA with compute at every PE count."""
    for name, point in result.items():
        assert point["cycles"] < point["serial_cycles"], (
            f"{name}: pipelined {point['cycles']} cycles not below the serial "
            f"phase sum {point['serial_cycles']}"
        )
