"""One benchmark process: set up a workload, measure it, print one JSON line.

``run.py`` launches this script once per set-up sample (``--probe``: set up,
report the set-up time, tear down) and once for the measured run.  The
set-up clock starts before ``repro`` (or NumPy) is imported, so imports,
SoC build, calibration and compile, mesh programming, worker spawn and
warm-up all count.

Host times are speed-corrected (see ``refkernel.py``):

* sequential workloads time the reference after every op, and each op's
  host time is scaled by the reference timings on either side of it;
* serving workloads run closed-loop segments of ``SEGMENT_S`` that end with
  every client stopped and every request resolved; the reference runs
  between segments and scales each segment's latencies and wall time.

Latency percentiles are taken per segment and averaged over the segments
(a sequential run is one segment).  A closed loop of 64 clients over
32-wide batches has a multi-modal latency distribution whose modes shift
between segments; per-segment percentiles repeat from run to run where
pooled ones do not.

A traced run (``--trace 1``) alternates traced and untraced blocks, reports
per-layer metrics from the traced ones and the tracing overhead from the
difference.
"""

import argparse
import asyncio
import json
import os
import resource
import statistics
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

#: serving segment length [s]; every segment ends with no request in flight.
#: Short segments keep each reference timing close to the work it corrects:
#: this machine's speed flickers within a second.
SEGMENT_S = 0.1
#: serving warm-up before the first timed segment [s]
WARMUP_S = 0.4
#: ops per traced/untraced block of a sequential traced run
TRACE_BLOCK = 4
#: reference calls timed after set-up
SETUP_REF_REPEATS = 5


def parse_args(argv=None):
    """Parse the command line of one benchmark process."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, report, tear down")
    return parser.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    """Everything one measured run accumulates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.latencies = array("d")      # corrected op latencies [s] (sequential)
        self.raw_latencies = array("d")  # uncorrected
        self.percentiles = []            # (p50, p90) per segment [s], corrected
        self.raw_percentiles = []        # uncorrected
        self.busy_s = 0.0         # corrected host seconds of the untraced part
        self.raw_busy_s = 0.0
        self.completed = 0        # ops completed in the untraced part
        self.refs = []
        # traced part
        self.traced_completed = 0
        self.traced_busy_s = 0.0
        self.traced_raw_busy_s = 0.0
        self.traced_raw_latency_s = 0.0
        self.traced_factors = []
        self.counters = {}
        self.windows = []

    def fail(self, kind: str, n: int = 1) -> None:
        """Count ``n`` failed ops of one kind."""
        self.failed += n
        self.errors[kind] = self.errors.get(kind, 0) + n

    def add_counters(self, before: dict, after: dict) -> None:
        """Add the counter deltas of one traced block."""
        for key, value in after.items():
            self.counters[key] = self.counters.get(key, 0) + value - before.get(key, 0)


# ---------------------------------------------------------------------- #
# measurement loops
# ---------------------------------------------------------------------- #
def measure_sequential(workload, seconds, tracer):
    """Run ops back to back for ``seconds``, timing the reference after each."""
    from perfbench.refkernel import correction, time_reference

    clock = time.perf_counter
    run = Run()
    ref_before = time_reference()
    run.refs.append(ref_before)
    deadline = clock() + seconds
    index = block = 0
    while clock() < deadline:
        traced = tracer is not None and block % 2 == 1
        if traced:
            counters_before = workload.counters()
            tracer.install()
        for _ in range(TRACE_BLOCK):
            run.attempted += 1
            started = clock()
            try:
                output = workload.op(index)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                output, error = None, type(exc).__name__
            else:
                error = None
            elapsed = clock() - started
            if error is None and not workload.finish(index, output):
                error = "output-mismatch"
            index += 1
            ref_after = time_reference()
            run.refs.append(ref_after)
            factor = correction(ref_before, ref_after)
            ref_before = ref_after
            if error is not None:
                run.fail(error)
                continue
            if traced:
                run.traced_completed += 1
                run.traced_busy_s += elapsed * factor
                run.traced_raw_busy_s += elapsed
                run.traced_factors.append(factor)
            else:
                run.completed += 1
                run.latencies.append(elapsed * factor)
                run.raw_latencies.append(elapsed)
                run.busy_s += elapsed * factor
                run.raw_busy_s += elapsed
        if traced:
            tracer.uninstall()
            run.add_counters(counters_before, workload.counters())
        block += 1
    for latencies, percentiles in ((run.latencies, run.percentiles),
                                   (run.raw_latencies, run.raw_percentiles)):
        percentiles.append((percentile(latencies, 50), percentile(latencies, 90)))
    return run


async def measure_serving(workload, seconds, tracer):
    """Run closed-loop segments for ``seconds``, timing the reference between them."""
    from perfbench.refkernel import correction, time_reference

    clock = time.perf_counter
    run = Run()
    ref_before = time_reference(all_cpus=workload.all_cpus)
    run.refs.append(ref_before)
    deadline = clock() + seconds
    block = 0
    while clock() < deadline:
        traced = tracer is not None and block % 2 == 1
        block += 1
        if traced:
            pipes_before = workload.pipe_counters()
            tracer.install()
            window_start = clock()
        segment = await workload.segment(clock() + SEGMENT_S)
        if traced:
            run.windows.append((window_start, clock()))
            tracer.uninstall()
            run.add_counters(pipes_before, workload.pipe_counters())
        ref_after = time_reference(all_cpus=workload.all_cpus)
        run.refs.append(ref_after)
        factor = correction(ref_before, ref_after)
        ref_before = ref_after
        run.attempted += len(segment.outputs) + segment.failed
        for kind, n in segment.errors.items():
            run.fail(kind, n)
        mismatched = workload.check(segment)
        if mismatched:
            run.fail("output-mismatch", mismatched)
        n_done = len(segment.outputs)
        if traced:
            run.traced_completed += n_done
            run.traced_busy_s += segment.wall_s * factor
            run.traced_raw_busy_s += segment.wall_s
            run.traced_raw_latency_s += sum(segment.latencies)
            run.traced_factors.append(factor)
        else:
            run.completed += n_done
            raw = (percentile(segment.latencies, 50), percentile(segment.latencies, 90))
            run.raw_percentiles.append(raw)
            run.percentiles.append((raw[0] * factor, raw[1] * factor))
            run.busy_s += segment.wall_s * factor
            run.raw_busy_s += segment.wall_s
    return run


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def end_to_end(run):
    """Corrected end-to-end metrics plus their uncorrected twins."""
    def figures(percentiles, busy_s):
        p50, p90 = (statistics.fmean(column) * 1e3 for column in zip(*percentiles))
        return {
            "ops_per_s": run.completed / busy_s if busy_s else 0.0,
            "p50_ms": p50,
            "p90_ms": p90,
        }

    return figures(run.percentiles, run.busy_s), figures(run.raw_percentiles, run.raw_busy_s)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (joined) child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def print_sim_note(workload):
    """Print the simulated per-op figures with their caveat."""
    if workload.sim_cycles_per_op:
        print(
            f"simulated: {workload.sim_cycles_per_op:.1f} cycles/op, "
            f"{workload.sim_energy_nj_per_op:.6f} nJ/op (simulated clock; exact for a "
            f"given seed; not validated against hardware)"
        )


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    """Set up, measure and report one workload; returns the exit code."""
    args = parse_args(argv)
    setup_started = time.perf_counter()
    from perfbench.refkernel import NOMINAL_REF_S, time_reference
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace_dir = os.path.join(ROOT, ".perfbench")
    tracer = None
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        tracer = Tracer()
    workload_cls = WORKLOADS[args.workload]

    def finish_setup():
        # the reference needs NumPy, so it is timed after set-up only: the
        # set-up window then covers every import, NumPy's included
        setup_raw = time.perf_counter() - setup_started
        ref = time_reference(SETUP_REF_REPEATS, all_cpus=workload_cls.all_cpus)
        return setup_raw, setup_raw * NOMINAL_REF_S / ref

    def report(run, workload, setup):
        setup_raw, setup_s = setup
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "errors": run.errors,
            "setup_s": setup_s,
            "setup_raw_s": setup_raw,
            "ref_ms": statistics.median(run.refs) * 1e3,
            "nominal_ref_ms": NOMINAL_REF_S * 1e3,
            "sim_cycles_per_op": workload.sim_cycles_per_op,
            "sim_energy_nj_per_op": workload.sim_energy_nj_per_op,
        }
        if tracer is None:
            corrected, raw = end_to_end(run)
            corrected["peak_rss_mb"] = peak_rss_mb()
            result["metrics"] = corrected
            result["uncorrected"] = raw
        else:
            result["metrics"] = layers.layer_metrics(workload, tracer, run)
            name = f"{workload.name}-seed{workload.seed}-spans.npz"
            tracer.write(os.path.join(trace_dir, name))
        print_sim_note(workload)
        print(json.dumps(result))

    if workload_cls.kind == "sequential":
        workload = workload_cls(args.seed)
        workload.setup()
        if tracer is not None:
            workload.trace_hooks(tracer)
        setup = finish_setup()
        if args.probe:
            print(json.dumps({"setup_s": setup[1], "setup_raw_s": setup[0]}))
            return 0
        run = measure_sequential(workload, args.seconds, tracer)
        workload.teardown()
        report(run, workload, setup)
        return 0

    async def serve() -> int:
        workload = workload_cls(args.seed, trace_dir=trace_dir)
        await workload.setup(tracer)
        try:
            warm = await workload.segment(time.perf_counter() + WARMUP_S)
            if warm.failed or workload.check(warm):
                raise RuntimeError(f"{workload.name}: warm-up requests failed {warm.errors}")
            if tracer is not None:
                workload.trace_hooks(tracer)
            setup = finish_setup()
            if args.probe:
                print(json.dumps({"setup_s": setup[1], "setup_raw_s": setup[0]}))
                return 0
            run = await measure_serving(workload, args.seconds, tracer)
        finally:
            await workload.teardown()
        report(run, workload, setup)
        return 0

    return asyncio.run(serve())


if __name__ == "__main__":
    sys.exit(main())
