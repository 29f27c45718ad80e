"""``soc_datapath``: in-place K-shard streaming and branch-fused lowering.

Every figure is simulated cycles, so the contracts hold independent of
machine speed:

* ``k_sharding`` — the same K-sharded GeMM on fresh 2-PE SoCs, once with
  the legacy staged layout (operand slices copied to the staging region)
  and once with descriptor-based in-place reads (strided DMA straight from
  the operand matrices).  In-place must be exact, strictly faster, write
  zero staging words, and move the same per-engine DMA bytes — the whole
  win is the eliminated staging copies, not reduced streaming.
* ``branch_fusion`` — the multi-head graph compiled per cluster size with
  per-branch lowering (``fuse="never"``) and cost-model driven fusion
  (``fuse="auto"``): one stacked offload replaces four head offloads, runs
  strictly fewer cycles at 2 and 4 PEs, stays exact, and the calibrated
  prediction that drove the decision agrees with the outcome.
"""

import numpy as np

from benchmarks.sections import cluster
from repro.compiler import SoCCostModel, compile_for_soc
from repro.eval import make_gemm_workload, make_multi_head_graph

SHAPE = (32, 16, 16)
PE_COUNTS = (2, 4)


def collect_k_sharding() -> dict:
    weights, inputs = make_gemm_workload(*SHAPE, rng=0)
    golden = weights @ inputs
    points = {}
    exact = True
    for mode in ("staged", "in-place"):
        report = cluster(2).run_tiled_gemm(weights, inputs, k_shards=2, k_staging=mode)
        exact &= bool(np.array_equal(report.result, golden))
        points[mode] = {
            "cycles": report.cycles,
            "pipelined_cycles": report.pipeline["pipelined_cycles"],
            "serial_cycles": report.pipeline["serial_cycles"],
            "staging_cycles": report.pipeline["staging_cycles"],
            "staging_words": report.pipeline["staging_words"],
            "dma_bytes_moved": {
                name: stats["bytes_moved"] for name, stats in report.dma.items()
            },
        }
    return {
        "shape": list(SHAPE),
        "k_shards": 2,
        "n_pes": 2,
        "exact": exact,
        "speedup": points["staged"]["cycles"] / points["in-place"]["cycles"],
        **points,
    }


def collect_branch_fusion() -> dict:
    graph = make_multi_head_graph(n_features=12, head_sizes=(3, 3, 3, 3), rng=2)
    columns = np.arange(12 * 2).reshape(12, 2) % 7 - 3
    reference = graph.reference_forward(columns).astype(np.int64)
    points = {}
    exact = True
    for n_pes in PE_COUNTS:
        cost_model = SoCCostModel.calibrate(cluster(n_pes))
        fused, plain = (
            compile_for_soc(
                graph, cluster(n_pes), cost_model=cost_model, n_columns=2,
                fuse=fuse, cache=None,
            )
            for fuse in ("auto", "never")
        )
        exact &= bool(np.array_equal(fused.run(columns), reference))
        exact &= bool(np.array_equal(plain.run(columns), reference))
        fused_steps = [s for s in fused.steps if s.kind == "fused-dense"]
        assert len(fused_steps) == 1, f"{n_pes}-PE: cost model declined fusion"
        step = fused_steps[0]
        points[f"{n_pes}pe"] = {
            "fused_cycles": fused.total_cycles,
            "sequential_cycles": plain.total_cycles,
            "speedup": plain.total_cycles / fused.total_cycles,
            "predicted_fused_cycles": step.predicted_fused_cycles,
            "predicted_serial_cycles": step.predicted_serial_cycles,
            "offloads_fused": len(fused.reports),
            "offloads_sequential": len(plain.reports),
        }
    return {
        "graph": "multi-head (12 features, 4x3 heads)",
        "n_columns": 2,
        "exact": exact,
        **points,
    }


def collect(quick: bool = False) -> dict:
    """Both legs; the quick configuration is the full one (simulated cycles)."""
    return {"k_sharding": collect_k_sharding(), "branch_fusion": collect_branch_fusion()}


def check_in_place_beats_staged(leg: dict) -> None:
    staged, in_place = leg["staged"], leg["in-place"]
    assert leg["exact"], "K-shard result mismatch"
    assert in_place["cycles"] < staged["cycles"], (
        "in-place K-sharding not faster than the staged baseline"
    )
    assert in_place["staging_words"] == 0, "in-place K-sharding wrote staging words"
    assert in_place["staging_cycles"] == 0
    assert staged["staging_words"] > 0


def check_speedup_from_staging(leg: dict) -> None:
    # the tile streams move the same operand words either way, so the whole
    # cycle win is the eliminated host-side staging copies
    staged, in_place = leg["staged"], leg["in-place"]
    assert in_place["dma_bytes_moved"] == staged["dma_bytes_moved"]
    assert staged["staging_cycles"] >= staged["cycles"] - in_place["cycles"]


def check_pipelined_below_serial(leg: dict) -> None:
    for mode in ("staged", "in-place"):
        assert leg[mode]["pipelined_cycles"] < leg[mode]["serial_cycles"], mode


def check_fusion_beats_sequential(leg: dict) -> None:
    assert leg["exact"], "fused or sequential plan diverged from the reference"
    for n_pes in PE_COUNTS:
        point = leg[f"{n_pes}pe"]
        assert point["fused_cycles"] < point["sequential_cycles"], f"{n_pes}pe"
        # the prediction that drove the decision matches the outcome
        assert point["predicted_fused_cycles"] < point["predicted_serial_cycles"]


def check_fusion_collapses_offloads(leg: dict) -> None:
    for n_pes in PE_COUNTS:
        point = leg[f"{n_pes}pe"]
        # trunk + fused heads vs trunk + four heads
        assert (point["offloads_fused"], point["offloads_sequential"]) == (2, 5)


def check(result: dict) -> None:
    """In-place K-sharding and branch fusion both win, exactly."""
    check_in_place_beats_staged(result["k_sharding"])
    check_speedup_from_staging(result["k_sharding"])
    check_pipelined_below_serial(result["k_sharding"])
    check_fusion_beats_sequential(result["branch_fusion"])
    check_fusion_collapses_offloads(result["branch_fusion"])
