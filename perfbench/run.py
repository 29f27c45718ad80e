"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload soc_plan --seed 1 --seconds 20 --trace 0

Workloads: ``soc_plan``, ``riscv_offload``, ``serve_inproc``, ``serve_fabric``
(see ``perfbench/NOTES.md``).  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Every host time is speed-corrected against a reference kernel
timed in the same process; the lines before the result print the
uncorrected values and the reference timings beside the corrected ones.

Each set-up sample is a fresh process (imports count), so a run sets up
``SETUP_SAMPLES`` times and reports the median; the last set-up is the one
that goes on to be measured.  The script exits non-zero without a result
when the program sources are missing or any process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("soc_plan", "riscv_offload", "serve_inproc", "serve_fabric")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: set-up samples per untraced run (the last one is measured)
SETUP_SAMPLES = 3
#: wall-clock budget of one whole run [s]
RUN_BUDGET_S = 170.0
#: one thread per process for BLAS/OpenMP, so the process count is the load;
#: a fixed hash seed keeps dict/set layout identical from run to run
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    """A benchmark process failed; no result may be printed."""


def parse_args(argv=None):
    """Parse the driver-facing command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(args, probe: bool, deadline: float) -> dict:
    """Run one benchmark process; relay its text lines, return its JSON."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        command.append("--probe")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("run budget exhausted before the measured process")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env={**os.environ, **CHILD_ENV},
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"benchmark process exceeded {timeout:.0f} s") from None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"benchmark process exited with code {completed.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    """Run the set-up samples and the measured process; print the result."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: program sources (src/repro) not found", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, probe=True, deadline=deadline))
        result = run_child(args, probe=False, deadline=deadline)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append({"setup_s": result["setup_s"], "setup_raw_s": result["setup_raw_s"]})

    print(f"workload {args.workload}  seed {args.seed}  "
          f"ref_ms {result['ref_ms']:.4f} (nominal {result['nominal_ref_ms']:.4f})")
    if setups[:-1]:
        print("setup_s samples: " + " ".join(f"{sample['setup_s']:.4f}" for sample in setups))
    if result["errors"]:
        print(f"failed ops by kind: {result['errors']}")
    if args.trace:
        metrics = result["metrics"]
        for name, metric in metrics.items():
            print(f"  {name:46s} {metric['value']:14.4f} {metric['unit']}")
    else:
        corrected = dict(result["metrics"])
        corrected["setup_s"] = statistics.median(sample["setup_s"] for sample in setups)
        uncorrected = dict(result["uncorrected"])
        uncorrected["setup_s"] = statistics.median(sample["setup_raw_s"] for sample in setups)
        uncorrected["peak_rss_mb"] = corrected["peak_rss_mb"]
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": corrected[name], "unit": unit}
            print(f"  {name:12s} {corrected[name]:14.4f} {unit:4s}"
                  f"  (uncorrected {uncorrected[name]:.4f})")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
