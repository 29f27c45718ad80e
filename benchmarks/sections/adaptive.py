"""``adaptive``: online cost-model refit and flip-point replanning.

Both legs are fully simulated (cycle-accurate, no wall clocks), on fresh
SoCs with a private :class:`PlanCache`:

* ``online_refit`` — a cost model is calibrated at boot, then the bus
  develops arbitration contention (``arbitration_penalty``) no boot
  probe offload saw.  Production offloads stream into the
  :class:`AdaptiveReplanner`; one ``poll`` must refit exactly once, and
  the predicted-cycle relative error after the refit must be below the
  error before it.
* ``flip_point`` — a managed ``M=2, K=16`` plan compiled at batch width 1
  (``rows`` sharding) watches a serving width trace that crosses to 32
  (``k2`` territory).  Exactly one recompile may fire, with a changed
  sharding signature; the new plan must be bitwise identical to the old
  one on the same inputs, and the replan-on p99 latency across the
  crossing must not exceed replan-off (stale plan served forever).
"""

import numpy as np

from benchmarks.sections import cluster
from repro.compiler import (
    AdaptiveReplanner,
    ModelGraph,
    PlanCache,
    RefitEvent,
    ReplanEvent,
    SoCCostModel,
)
from repro.eval import make_gemm_workload

ARBITRATION_PENALTY = 16
WIDE_WIDTH = 32


def collect_online_refit(quick: bool) -> dict:
    traffic_shapes = [
        (4, 8, 2), (8, 8, 4), (6, 12, 2), (12, 8, 6), (8, 16, 4), (16, 8, 2),
    ]
    if not quick:
        traffic_shapes += [
            (10, 12, 8), (12, 16, 4), (6, 8, 8), (16, 16, 2), (8, 12, 6), (14, 8, 4),
        ]
    soc = cluster(2)
    boot_model = SoCCostModel.calibrate(soc)
    # traffic shift: post-calibration bus contention charges every
    # concurrent DMA stream extra arbitration cycles per access
    soc.bus.arbitration_penalty = ARBITRATION_PENALTY
    replanner = AdaptiveReplanner(
        soc, boot_model, refit_threshold=0.15,
        min_samples=len(traffic_shapes) // 2, cache=PlanCache(),
    )
    for index, shape in enumerate(traffic_shapes):
        weights, inputs = make_gemm_workload(*shape, rng=index)
        replanner.observe_offload(shape, soc.run_tiled_gemm(weights, inputs))
    error_before = replanner.window_error(boot_model)
    refits = [event for event in replanner.poll() if isinstance(event, RefitEvent)]
    error_after = replanner.window_error()
    assert all(event.fingerprint == replanner.fingerprint() for event in refits), (
        "refit event did not carry the bumped hardware fingerprint"
    )
    return {
        "n_samples": len(traffic_shapes),
        "arbitration_penalty": ARBITRATION_PENALTY,
        "predicted_cycle_rel_error_before": error_before,
        "predicted_cycle_rel_error_after": error_after,
        "error_reduction": 1.0 - error_after / error_before if error_before > 0 else None,
        "refits": len(refits),
    }


def collect_flip_point(quick: bool) -> dict:
    n_rows, n_inner = 2, 16
    n_warm = 4 if quick else 10
    n_wide = 12 if quick else 40
    flip_soc = cluster(2)
    flip_model = SoCCostModel.calibrate(flip_soc)
    weights = np.random.default_rng(0).integers(-3, 4, size=(n_rows, n_inner))
    graph = ModelGraph.from_matrices([weights], name="adaptive-flip-bench")
    wide_inputs = np.random.default_rng(2).integers(-3, 4, size=(n_inner, WIDE_WIDTH))
    golden = (weights @ wide_inputs).astype(np.int64)

    def latencies(adaptive):
        managed = AdaptiveReplanner(
            flip_soc, flip_model, width_window=n_wide // 2, cache=PlanCache()
        )
        managed.manage(graph, n_columns=1)
        replans, points, exact = [], [], True
        for width in [1] * n_warm + [WIDE_WIDTH] * n_wide:
            if adaptive:
                managed.observe_batch(width)
                replans += [e for e in managed.poll() if isinstance(e, ReplanEvent)]
            plan = managed.active_plan(graph)
            output = plan.run(wide_inputs[:, :width])
            if width == WIDE_WIDTH:
                exact &= bool(np.array_equal(output, golden))
            points.append(plan.total_cycles / flip_model.clock_hz)
        return points, replans, exact

    off_lat, _, off_exact = latencies(adaptive=False)
    on_lat, replans, on_exact = latencies(adaptive=True)
    p99_on = float(np.percentile(on_lat, 99))
    p99_off = float(np.percentile(off_lat, 99))
    signatures = (replans[0].old_signature, replans[0].new_signature) if replans else ((), ())
    return {
        "shape": [n_rows, n_inner],
        "n_pes": 2,
        "width_trace": {"warm": [1, n_warm], "wide": [WIDE_WIDTH, n_wide]},
        "recompiles": len(replans),
        "old_signature": [list(sig) for sig in signatures[0]],
        "new_signature": [list(sig) for sig in signatures[1]],
        "bitwise_identical": off_exact and on_exact,
        "p99_s_replan_on": p99_on,
        "p99_s_replan_off": p99_off,
        "p99_speedup": p99_on and p99_off / p99_on,
        "wide_latency_s_replan_on": on_lat[-1],
        "wide_latency_s_replan_off": off_lat[-1],
    }


def collect(quick: bool = False) -> dict:
    """Both legs; ``quick`` shortens the traffic and width traces."""
    return {
        "online_refit": collect_online_refit(quick),
        "flip_point": collect_flip_point(quick),
    }


def check(result: dict) -> None:
    """One refit that cuts the error; one replan that is exact and no slower."""
    refit, flip = result["online_refit"], result["flip_point"]
    assert refit["refits"] == 1, "shifted traffic did not trigger one refit"
    assert refit["predicted_cycle_rel_error_after"] < refit["predicted_cycle_rel_error_before"], (
        "online refit failed to reduce predicted-cycle error"
    )
    assert flip["recompiles"] == 1, (
        f"width crossing triggered {flip['recompiles']} recompiles, expected 1"
    )
    assert flip["old_signature"] != flip["new_signature"], (
        "replan fired without a sharding-signature change"
    )
    assert flip["bitwise_identical"], "served output diverged across the replan"
    assert flip["p99_s_replan_on"] <= flip["p99_s_replan_off"], (
        "replan-on p99 regressed past replan-off"
    )
