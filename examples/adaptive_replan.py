"""Adaptive replanning — the closed loop from drift to fresh plans.

Walks both halves of the :class:`~repro.compiler.adaptive.AdaptiveReplanner`:

1. calibrate an :class:`SoCCostModel` at boot on a 2-PE cluster,
2. shift the hardware out from under it (post-calibration bus
   arbitration contention) and stream production offloads into the
   replanner's sample window,
3. ``poll()`` — the window error crosses the refit threshold, the model
   is refit from live samples, the hardware fingerprint bumps (so every
   cached plan keyed on the old fingerprint is stale), and the managed
   plan recompiles,
4. watch a serving batch-width trace cross the rows→K sharding flip
   point: exactly one recompile fires, and the swapped-in plan is
   bitwise identical on the same inputs while finishing in fewer cycles.

Run with:  python examples/adaptive_replan.py
"""

import numpy as np

from repro.compiler import (
    AdaptiveReplanner,
    ModelGraph,
    PlanCache,
    RefitEvent,
    ReplanEvent,
    SoCCostModel,
)
from repro.eval import format_dict, make_gemm_workload
from repro.system import PhotonicSoC

TRAFFIC = [(4, 8, 2), (8, 8, 4), (6, 12, 2), (12, 8, 6), (8, 16, 4), (16, 8, 2)]


def cluster(n_pes=2):
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


def refit_demo():
    soc = cluster()
    boot_model = SoCCostModel.calibrate(soc)
    # the hardware drifts after boot: bus arbitration now charges every
    # concurrent DMA stream extra cycles no calibration offload ever saw
    soc.bus.arbitration_penalty = 16

    replanner = AdaptiveReplanner(
        soc, boot_model, refit_threshold=0.15, min_samples=4, cache=PlanCache()
    )
    for index, shape in enumerate(TRAFFIC):
        weights, inputs = make_gemm_workload(*shape, rng=index)
        replanner.observe_offload(shape, soc.run_tiled_gemm(weights, inputs))

    error_before = replanner.window_error(boot_model)
    stale_fingerprint = replanner.fingerprint()
    events = replanner.poll()
    refit = next(event for event in events if isinstance(event, RefitEvent))
    print(
        format_dict(
            "online refit under shifted traffic",
            {
                "samples": refit.n_samples,
                "rel_error_before": f"{error_before:.3f}",
                "rel_error_after": f"{replanner.window_error():.3f}",
                "fingerprint_bumped": replanner.fingerprint() != stale_fingerprint,
                "generation": refit.generation,
            },
        )
    )
    return replanner


def flip_demo():
    soc = cluster()
    replanner = AdaptiveReplanner(
        soc, SoCCostModel.calibrate(soc), width_window=8, cache=PlanCache()
    )
    # M=2, K=16: rows sharding wins at batch 1, K-sharding at batch 32
    weights = np.random.default_rng(0).integers(-3, 4, size=(2, 16))
    graph = ModelGraph.from_matrices([weights], name="flip-demo")
    replanner.manage(graph, n_columns=1)

    wide = np.random.default_rng(2).integers(-3, 4, size=(16, 32))
    old_plan = replanner.active_plan(graph)
    old_output = old_plan.run(wide)
    old_cycles = old_plan.total_cycles

    # serving traffic widens: the observed width window crosses the flip
    # point and one poll swaps in a recompiled plan
    replans = []
    for _ in range(8):
        replanner.observe_batch(32)
        replans.extend(
            event for event in replanner.poll() if isinstance(event, ReplanEvent)
        )
    new_plan = replanner.active_plan(graph)
    new_output = new_plan.run(wide)
    print(
        format_dict(
            "width-flip replanning (M=2, K=16, width 1 -> 32)",
            {
                "recompiles": len(replans),
                "sharding": (
                    f"{replans[0].old_signature[0][0]} -> "
                    f"{replans[0].new_signature[0][0]}{replans[0].new_signature[0][1]}"
                ),
                "bitwise_identical": bool(np.array_equal(old_output, new_output)),
                "cycles_old_plan": old_cycles,
                "cycles_new_plan": new_plan.total_cycles,
            },
        )
    )


def main():
    refit_demo()
    flip_demo()


if __name__ == "__main__":
    main()
