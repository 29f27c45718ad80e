"""``compiler``: compiled plans vs naive execution, K-sharding, cost routing.

Three legs, each on fresh SoCs or a fresh replica pool:

* ``plan_vs_naive`` — a compiled 3-layer plan on a calibrated 2-PE cluster
  vs the same model run layer by layer on a single-PE SoC: bitwise equal,
  and strictly fewer cycles.
* ``k_sharding`` — a K-sharded GeMM on 2 PEs: exact, and pipelined below
  the serial DMA + compute phase sum.
* ``routing`` — cost-based vs round-robin routing on a 3-replica pool
  with one deliberately slow replica at a saturating offered load:
  cost-based must win on p99 (round-robin keeps feeding the slow replica
  a third of the traffic).
"""

import asyncio
import time

import numpy as np

from benchmarks.sections import cluster, retry
from repro.compiler import (
    ModelGraph,
    SoCCostModel,
    compile_for_soc,
    profile_replicas,
    replica_cost_fn,
)
from repro.core.backends import IdealDigitalBackend
from repro.eval import make_gemm_workload, make_layer_stack
from repro.serving import (
    GemmEngine,
    InferenceServer,
    Replica,
    make_column_workload,
    poisson_arrival_times,
    run_open_loop,
)

LAYER_SIZES = [24, 32, 24, 16]
K_SHARD_SHAPE = (24, 32, 8)
POOL_SHAPE = (12, 12)
SLOW_DELAY_S = 0.003
OFFERED_HZ = 2000.0  # saturating: far beyond the slow replica


class SlowDigitalBackend(IdealDigitalBackend):
    """Exact digital product with a fixed per-call service delay.

    Stands in for a congested or distant replica: functionally identical,
    physically slower — the case cost-based routing exists for.
    """

    name = "slow-digital"

    def __init__(self, delay_s: float = SLOW_DELAY_S):
        self.delay_s = float(delay_s)

    def matmul(self, weights, inputs):
        time.sleep(self.delay_s)
        return super().matmul(weights, inputs)

    def schedule_latency_s(self, n_columns: int) -> float:
        return self.delay_s


def collect_plan_vs_naive() -> dict:
    mats = make_layer_stack(LAYER_SIZES, rng=0)
    graph = ModelGraph.from_matrices(mats)
    columns = np.random.default_rng(2024).integers(-3, 4, size=(LAYER_SIZES[0], 4))
    soc = cluster(2)
    cost_model = SoCCostModel.calibrate(soc)
    started = time.perf_counter()
    plan = compile_for_soc(graph, soc, cost_model=cost_model, cache=None)
    planned = plan.run(columns)
    wall_s = time.perf_counter() - started
    naive_soc = cluster(1)
    naive = columns.astype(np.int64)
    naive_cycles = 0
    for weights in mats:
        report = naive_soc.run_tiled_gemm(weights, naive, tile_rows=weights.shape[0])
        naive = report.result
        naive_cycles += report.pipeline["serial_cycles"]
    return {
        "layer_sizes": LAYER_SIZES,
        "plan_cycles": plan.total_cycles,
        "predicted_cycles": plan.predicted_cycles,
        "naive_serial_cycles": naive_cycles,
        "speedup": naive_cycles / plan.total_cycles if plan.total_cycles else None,
        "exact": bool(np.array_equal(planned, naive)),
        "wall_s": wall_s,
    }


def collect_k_sharding() -> dict:
    weights, inputs = make_gemm_workload(*K_SHARD_SHAPE, value_range=4, rng=2024)
    report = cluster(2).run_tiled_gemm(weights, inputs, k_shards=2)
    return {
        "shape": list(K_SHARD_SHAPE),
        "k_shards": 2,
        "pipelined_cycles": report.pipeline["pipelined_cycles"],
        "serial_cycles": report.pipeline["serial_cycles"],
        "overlap_cycles": report.pipeline["overlap_cycles"],
        "accumulate_cycles": report.pipeline["accumulate_cycles"],
        "exact": bool(np.array_equal(report.result, weights @ inputs)),
    }


def collect_routing(n_requests: int) -> dict:
    weights = np.random.default_rng(0).normal(size=POOL_SHAPE)

    def make_pool():
        fast = [
            Replica(name, GemmEngine(weights=weights, name=name), max_queue_depth=256)
            for name in ("fast0", "fast1")
        ]
        slow = GemmEngine(backend=SlowDigitalBackend(), weights=weights, name="slow")
        return fast + [Replica("slow", slow, max_queue_depth=256)]

    async def measure(policy):
        replicas = make_pool()
        cost_fn = None
        if policy == "cost-based":
            cost_fn = replica_cost_fn(profile_replicas(replicas, repeats=2))
        async with InferenceServer(replicas, policy=policy, cost_fn=cost_fn) as server:
            trace = poisson_arrival_times(OFFERED_HZ, n_requests, rng=1)
            workload = make_column_workload(POOL_SHAPE[1], n_requests, rng=2)
            report = await run_open_loop(
                server, trace, workload, offered_rate_hz=OFFERED_HZ
            )
        telemetry = report.telemetry
        return {
            "p50_ms": telemetry["latency"]["p50_ms"],
            "p99_ms": telemetry["latency"]["p99_ms"],
            "achieved_hz": report.achieved_hz,
            "per_replica_completed": {
                name: stats["completed"] for name, stats in telemetry["replicas"].items()
            },
        }

    def both():
        round_robin = asyncio.run(measure("round-robin"))
        cost_based = asyncio.run(measure("cost-based"))
        return {
            "cost_based_beats_round_robin": bool(
                cost_based["p99_ms"] < round_robin["p99_ms"]
            ),
            "pool": f"2x ideal-digital + 1x slow-digital ({SLOW_DELAY_S * 1e3:.0f} ms/call)",
            "n_requests": n_requests,
            "offered_hz": OFFERED_HZ,
            "round_robin": round_robin,
            "cost_based": cost_based,
            "p99_speedup": (
                round_robin["p99_ms"] / cost_based["p99_ms"]
                if cost_based["p99_ms"] > 0
                else None
            ),
        }

    return retry(both, check_routing, attempts=2)


def collect(quick: bool = False) -> dict:
    """All three compiler legs; ``quick`` shortens only the routing trace."""
    return {
        "plan_vs_naive": collect_plan_vs_naive(),
        "k_sharding": collect_k_sharding(),
        "routing": collect_routing(n_requests=90 if quick else 120),
    }


def check_plan_vs_naive(leg: dict) -> None:
    assert leg["exact"], "compiled plan diverged from naive execution"
    assert leg["plan_cycles"] < leg["naive_serial_cycles"], (
        f"plan {leg['plan_cycles']} cycles not below naive {leg['naive_serial_cycles']}"
    )


def check_k_sharding(leg: dict) -> None:
    assert leg["exact"], "K-sharded GeMM mismatch"
    assert leg["pipelined_cycles"] < leg["serial_cycles"]


def check_routing(leg: dict) -> None:
    assert leg["cost_based_beats_round_robin"], (
        f"cost-based p99 {leg['cost_based']['p99_ms']:.2f} ms should beat "
        f"round-robin p99 {leg['round_robin']['p99_ms']:.2f} ms"
    )


def check(result: dict) -> None:
    """Plan beats naive, K-shards overlap, cost-based routing beats round-robin."""
    check_plan_vs_naive(result["plan_vs_naive"])
    check_k_sharding(result["k_sharding"])
    check_routing(result["routing"])
