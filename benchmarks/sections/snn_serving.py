"""``snn_serving``: fused spike batching, online STDP, fault degradation.

Four legs, each on fresh networks (campaign telemetry goes to a temporary
directory):

* ``batched_vs_serial`` — one seeded spike workload answered by one fused
  :meth:`~repro.snn.network.PhotonicSNN.run_patterns` call vs per-request
  serial runs: bitwise equal, and faster by a conservative floor because
  the fused path is exact, not approximate.  Also records spikes/s
  through the fused datapath.
* ``served`` — the workload through a real replica, batch1 vs dynamic
  micro-batching, with a bitwise oracle between the modes.
* ``online_stdp`` — learning mode served twice with pre-queued submission
  (deterministic batch composition, so the STDP update order is the
  request order): outputs, crossbar state, update counts and
  ``learning_hash`` must reproduce bitwise, and every learning batch
  re-versions the cache key, so each one compiles and none hits the cache.
* ``fault_campaign`` — a :class:`~repro.serving.resilience.FaultCampaignDriver`
  sweep of stuck-PCM-synapse faults under load: accuracy 1.0 at zero
  faults, no better at the heaviest point, every request accounted for.
"""

import asyncio
import math
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks.sections import retry
from repro.serving import (
    FaultCampaignDriver,
    InferenceServer,
    Replica,
    SNNEngine,
    TelemetryLog,
    run_patterns_serial,
    spike_pattern_workload,
    synapse_fault_armer,
)
from repro.snn import PhotonicSNN, STDPRule

SPEEDUP_FLOOR = 1.2


def collect(quick: bool = False) -> dict:
    """All four spiking-serving legs."""
    n_inputs, n_outputs = (16, 6) if quick else (24, 8)
    n_requests = 48 if quick else 96
    n_learning = 32 if quick else 96
    n_campaign = 16 if quick else 32
    max_batch = 8 if quick else 16
    fault_counts = (0, 4, 32) if quick else (0, 1, 2, 4, 8, 16)

    def make_engine(learning=False):
        network = PhotonicSNN(
            n_inputs, n_outputs, stdp=STDPRule() if learning else None,
            inhibition=0.3, rng=7,
        )
        return SNNEngine(network, learning=learning, max_spikes=6)

    def patterns(count):
        return spike_pattern_workload(n_inputs, count, rng=11)

    async def serve(engine, workload, count, batch):
        replica = Replica(
            "snn", engine, max_batch=batch, max_wait_s=0.0, max_queue_depth=4 * count
        )
        async with InferenceServer([replica]) as server:
            started = time.perf_counter()
            # pre-queued submission pins batch composition
            futures = [server.submit_nowait(workload(index)) for index in range(count)]
            outputs = await asyncio.gather(*futures)
            wall_s = time.perf_counter() - started
            telemetry = server.stats()
        return np.stack(outputs, axis=1), wall_s, telemetry

    # -- fused batched run vs per-request serial runs --------------------- #
    workload = patterns(n_requests)
    columns = np.stack([workload(index) for index in range(n_requests)], axis=1)
    engine = make_engine()
    exact = bool(
        np.array_equal(engine.run_batch(None, columns), run_patterns_serial(engine, columns))
    )

    def timed():
        started = time.perf_counter()
        engine.run_batch(None, columns)
        batched_s = time.perf_counter() - started
        started = time.perf_counter()
        run_patterns_serial(engine, columns)
        serial_s = time.perf_counter() - started
        return {
            "n_requests": n_requests,
            "batched_s": batched_s,
            "serial_s": serial_s,
            "speedup": serial_s / batched_s if batched_s > 0 else 0.0,
            "exact": exact,
        }

    batched_vs_serial = retry(timed, check_batched_vs_serial, attempts=3)
    probe = make_engine()
    probe_batch = probe.network.run_patterns(
        [probe.encode(columns[:, index]) for index in range(n_requests)]
    )
    batched_vs_serial.update(
        spikes_in=probe_batch.total_input_spikes,
        spikes_out=probe_batch.total_output_spikes,
        spikes_per_s=probe_batch.total_input_spikes / batched_vs_serial["batched_s"],
    )

    # -- served through a replica: batch1 vs dynamic micro-batching ------- #
    served, served_outputs = {}, {}
    for mode in ("batch1", "dynamic"):
        served_engine = make_engine()
        served_engine.compile(None)  # compile outside the timed window
        outputs, wall_s, telemetry = asyncio.run(serve(
            served_engine, workload, n_requests, 1 if mode == "batch1" else max_batch
        ))
        served_outputs[mode] = outputs
        served[mode] = {
            "achieved_hz": n_requests / wall_s,
            "p50_ms": telemetry["latency"]["p50_ms"],
            "p99_ms": telemetry["latency"]["p99_ms"],
            "mean_batch": telemetry["replicas"]["snn"]["mean_batch"],
        }
    served["bitwise_identical"] = bool(
        np.array_equal(served_outputs["batch1"], served_outputs["dynamic"])
    )
    served["speedup_dynamic_vs_batch1"] = (
        served["dynamic"]["achieved_hz"] / served["batch1"]["achieved_hz"]
        if served["batch1"]["achieved_hz"] > 0
        else None
    )

    # -- online STDP under traffic: bitwise reproducibility --------------- #
    learning = patterns(n_learning)
    runs = []
    for _ in range(2):
        learner = make_engine(learning=True)
        outputs, wall_s, _ = asyncio.run(serve(learner, learning, n_learning, max_batch))
        runs.append((outputs, learner.network.synapse_array.fractions.copy(), learner, wall_s))
    (out_a, fractions_a, engine_a, wall_a), (out_b, fractions_b, engine_b, _) = runs
    assert engine_a.stats.cache_hits == 0, "a learning batch hit stale compiled weights"
    online_stdp = {
        "n_requests": n_learning,
        "bitwise_reproducible": bool(
            np.array_equal(out_a, out_b)
            and np.array_equal(fractions_a, fractions_b)
            and engine_a.stdp_updates == engine_b.stdp_updates
            and engine_a.learning_hash == engine_b.learning_hash
        ),
        "stdp_updates": engine_a.stdp_updates,
        "stdp_updates_per_s": engine_a.stdp_updates / wall_a if wall_a > 0 else None,
        "recompiles": engine_a.stats.compiles,
        "learning_energy_j": engine_a.learning_energy_j,
    }

    # -- fault campaign under load: joint p99/accuracy degradation -------- #
    with tempfile.TemporaryDirectory() as tmp:
        curve = FaultCampaignDriver(
            engine_factory=make_engine,
            fault_armer=synapse_fault_armer,
            make_request=patterns(n_campaign),
            n_requests=n_campaign,
            fault_counts=fault_counts,
            root_seed=3,
            telemetry_log=TelemetryLog(Path(tmp) / "campaign.jsonl"),
        ).run()
    fault_campaign = {
        "fault_model": "stuck PCM crystalline fractions",
        "n_requests": n_campaign,
        **curve.to_dict(),
    }

    return {
        "n_inputs": n_inputs,
        "n_outputs": n_outputs,
        "max_batch": max_batch,
        "batched_vs_serial": batched_vs_serial,
        "served": served,
        "online_stdp": online_stdp,
        "fault_campaign": fault_campaign,
    }


def check_batched_vs_serial(leg: dict) -> None:
    assert leg["exact"], "fused multi-pattern run diverged from serial per-request runs"
    assert leg["speedup"] >= SPEEDUP_FLOOR, (
        f"fused batching achieved {leg['speedup']:.2f}x serial "
        f"(required >= {SPEEDUP_FLOOR}x)"
    )


def check_served(leg: dict) -> None:
    assert leg["bitwise_identical"], "dynamic micro-batching changed served spike counts"


def check_online_stdp(leg: dict, max_batch: int) -> None:
    assert leg["bitwise_reproducible"], "online STDP is not bitwise reproducible"
    assert leg["stdp_updates"] > 0
    # every learning batch re-versions the cache key, so each one compiles
    assert leg["recompiles"] == math.ceil(leg["n_requests"] / max_batch)


def check_fault_campaign(leg: dict) -> None:
    accuracy = leg["accuracy"]
    assert accuracy[0] == 1.0, "zero-fault campaign point must be golden"
    assert accuracy[-1] <= accuracy[0], (
        "accuracy did not degrade (or held) under the heaviest fault load"
    )
    assert all(p99 >= 0.0 for p99 in leg["p99_ms"])
    assert all(sum(point.values()) == leg["n_requests"] for point in leg["outcomes"])


def check(result: dict) -> None:
    """Fused = serial and faster, served modes agree, STDP replays, faults degrade."""
    check_batched_vs_serial(result["batched_vs_serial"])
    check_served(result["served"])
    check_online_stdp(result["online_stdp"], result["max_batch"])
    check_fault_campaign(result["fault_campaign"])
