"""``compiler_dag``: diamond equivalence, batch-aware sharding, branch dispatch.

Three legs, each on fresh SoCs or a fresh replica pool:

* ``diamond`` — a diamond DAG compiled for both executors (SoC plan and
  replica-pool plan) answers bitwise like direct per-op execution.
* ``batch_aware_sharding`` — for the short-wide layer (M=2, K=16) on a
  calibrated 2-PE cluster the rows-vs-K decision flips between batch 1
  and batch 32 (row sharding avoids the K-shard reduction at batch 1; the
  duplicated input DMA of row sharding dominates at batch 32), and at each
  width the chosen plan is *measured* faster in simulated cycles than the
  plan chosen for the other width.
* ``branch_parallel`` — four parallel dense branches on a 2-replica pool
  whose batchers hold a straggler window: sequential execution pays the
  window once per dense op (5x), level dispatch once per level (2x), so
  level dispatch must win wall-clock while staying bitwise exact.
"""

import asyncio
import time

import numpy as np

from benchmarks.sections import cluster, retry
from repro.compiler import (
    SoCCostModel,
    choose_sharding,
    compile_for_pool,
    compile_for_soc,
)
from repro.compiler.costmodel import ReplicaProfile
from repro.eval import make_diamond_graph, make_fanout_graph
from repro.serving import GemmEngine, InferenceServer, Replica

PROFILES = {
    name: ReplicaProfile(name=name, service_s=1e-4, macs=64) for name in ("r0", "r1")
}
N_BRANCHES = 4
BATCH_WINDOW_S = 0.01


def measured_sharding_cycles(n_pes, weights, inputs, decision) -> int:
    """Simulated cycles of one exact GeMM under a sharding decision."""
    report = cluster(n_pes).run_tiled_gemm(
        weights, inputs,
        k_shards=decision.k_shards if decision.strategy == "k" else None,
    )
    assert np.array_equal(report.result, weights @ inputs)
    return report.cycles


async def timed_pool_plan_run(graph, max_wait_s, column, concurrency) -> float:
    """Wall-time of one exact pool-plan execution on a fresh 2-replica pool."""
    replicas = [
        Replica(name, GemmEngine(name=name), max_wait_s=max_wait_s)
        for name in sorted(PROFILES)
    ]
    plan = compile_for_pool(
        graph, replicas, profiles=PROFILES, strategy="balanced", cache=None
    )
    async with InferenceServer(replicas) as server:
        started = time.perf_counter()
        out = await plan.run(server, column, concurrency=concurrency)
        elapsed = time.perf_counter() - started
    # concurrency never changes results
    assert np.array_equal(out, graph.reference_forward(column)[:, 0])
    return elapsed


def collect_diamond(n_features: int) -> dict:
    graph = make_diamond_graph(n_features, n_outputs=4, rng=0)
    columns = np.random.default_rng(1).integers(-2, 3, size=(n_features, 4))
    soc = cluster(2)
    plan = compile_for_soc(graph, soc, cost_model=SoCCostModel.calibrate(soc), cache=None)
    soc_exact = np.array_equal(
        plan.run(columns), graph.reference_forward(columns).astype(np.int64)
    )
    replicas = [Replica(name, GemmEngine(name=name)) for name in sorted(PROFILES)]
    pool_plan = compile_for_pool(
        graph, replicas, profiles=PROFILES, strategy="balanced", cache=None
    )
    column = np.linspace(-2, 2, n_features)

    async def run_pool():
        async with InferenceServer(replicas) as server:
            return await pool_plan.run(server, column)

    pool_exact = np.array_equal(
        asyncio.run(run_pool()), graph.reference_forward(column)[:, 0]
    )
    return {
        "n_features": n_features,
        "ops": len(graph),
        "levels": pool_plan.n_levels,
        "soc_exact": bool(soc_exact),
        "soc_cycles": plan.total_cycles,
        "pool_exact": bool(pool_exact),
        "pool_placement": dict(pool_plan.placement.assignments),
    }


def collect_batch_aware() -> dict:
    n_rows, n_inner = 2, 16
    cost_model = SoCCostModel.calibrate(cluster(2))
    narrow = choose_sharding(n_rows, n_inner, 1, 2, cost_model=cost_model)
    wide = choose_sharding(n_rows, n_inner, 32, 2, cost_model=cost_model)
    rng = np.random.default_rng(2024)
    weights = rng.integers(-3, 4, size=(n_rows, n_inner))
    points = {}
    for n_cols, chosen, other in ((1, narrow, wide), (32, wide, narrow)):
        inputs = rng.integers(-3, 4, size=(n_inner, n_cols))
        chosen_cycles = measured_sharding_cycles(2, weights, inputs, chosen)
        other_cycles = measured_sharding_cycles(2, weights, inputs, other)
        points[f"batch{n_cols}"] = {
            "chosen": {"strategy": chosen.strategy, "k_shards": chosen.k_shards,
                       "cycles": chosen_cycles},
            "alternative": {"strategy": other.strategy, "k_shards": other.k_shards,
                            "cycles": other_cycles},
            "chosen_faster": bool(chosen_cycles < other_cycles),
        }
    return {
        "shape": [n_rows, n_inner],
        "n_pes": 2,
        "decision_flips": bool(
            (narrow.strategy, narrow.k_shards) != (wide.strategy, wide.k_shards)
        ),
        **points,
    }


def collect_branch_parallel() -> dict:
    graph = make_fanout_graph(8, n_branches=N_BRANCHES, rng=0)
    column = np.linspace(-2, 2, 8)

    def both():
        sequential_s, levels_s = (
            asyncio.run(timed_pool_plan_run(graph, BATCH_WINDOW_S, column, mode))
            for mode in ("sequential", "levels")
        )
        return {
            "n_branches": N_BRANCHES,
            "dense_ops": N_BRANCHES + 1,
            "levels": 3,
            "batch_window_s": BATCH_WINDOW_S,
            "sequential_s": sequential_s,
            "levels_s": levels_s,
            "speedup": sequential_s / levels_s if levels_s > 0 else None,
            "exact": True,  # timed_pool_plan_run asserts every output
        }

    return retry(both, check_branch_parallel, attempts=2)


def collect(quick: bool = False) -> dict:
    """All three DAG legs; ``quick`` shrinks only the diamond."""
    return {
        "diamond": collect_diamond(n_features=8 if quick else 16),
        "batch_aware_sharding": collect_batch_aware(),
        "branch_parallel": collect_branch_parallel(),
    }


def check_diamond(leg: dict) -> None:
    assert leg["soc_exact"], "diamond SoC plan diverged from direct per-op execution"
    assert leg["pool_exact"], "diamond pool plan diverged from direct per-op execution"


def check_batch_aware(leg: dict) -> None:
    assert leg["decision_flips"], (
        "expected the sharding decision to flip between batch 1 and batch 32"
    )
    for width in ("batch1", "batch32"):
        point = leg[width]
        assert point["chosen_faster"], (
            f"{width}: chose {point['chosen']} but {point['alternative']} "
            "measured faster"
        )


def check_branch_parallel(leg: dict) -> None:
    assert leg["levels_s"] < leg["sequential_s"], (
        f"level dispatch ({leg['levels_s'] * 1e3:.1f} ms) should beat sequential "
        f"({leg['sequential_s'] * 1e3:.1f} ms) on independent branches"
    )


def check(result: dict) -> None:
    """Diamond is exact, sharding flips and wins, level dispatch wins."""
    check_diamond(result["diamond"])
    check_batch_aware(result["batch_aware_sharding"])
    check_branch_parallel(result["branch_parallel"])
