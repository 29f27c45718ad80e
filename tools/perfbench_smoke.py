#!/usr/bin/env python
"""Smoke-run every perfbench workload and fail on any failed op.

``perfbench/run.py`` exits 0 even when ops fail their output checks; it
reports them in the JSON object on its last output line (``correct``,
``failed``).  This gate runs each workload declared in ``BENCHMARK.json``
for a short, seeded window and exits non-zero unless every run ended with
``"correct": true`` and ``"failed": 0``.  Timings are not judged here.

At seed 1 it also compares each SoC workload's ``simulated:`` line (cycles
and energy per op, exact for a given seed) with the figures pinned in
``PINNED_SIMULATED``, so a change that moves the simulated model fails
even when every output stays correct.  Workloads without a pinned entry
are skipped and named in the output.

Usage::

    python tools/perfbench_smoke.py                 # seed 1, 2 s per workload
    python tools/perfbench_smoke.py --seed 3 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Seed at which ``PINNED_SIMULATED`` holds.
PINNED_SEED = 1
#: ``(cycles/op, nJ/op)`` as ``perfbench`` prints them at ``PINNED_SEED``.
PINNED_SIMULATED = {
    "soc_plan": ("7218.0", "121.437920"),
    "riscv_offload": ("14026.0", "28.571773"),
}
SIMULATED_LINE = re.compile(r"^simulated: (\S+) cycles/op, (\S+) nJ/op", re.MULTILINE)


def check_simulated(name: str, output: str) -> str:
    """Compare a workload's ``simulated:`` line with its pinned figures.

    Returns ``""`` when they match or no figures are pinned for ``name``,
    else the reason.
    """
    expected = PINNED_SIMULATED.get(name)
    if expected is None:
        print(f"perfbench smoke: {name} has no pinned simulated figures, simulated check skipped",
              flush=True)
        return ""
    match = SIMULATED_LINE.search(output)
    if match is None:
        return "no simulated: line in the output"
    if match.groups() != expected:
        return (f"simulated {match.group(1)} cycles/op, {match.group(2)} nJ/op; "
                f"pinned {expected[0]} cycles/op, {expected[1]} nJ/op")
    return ""


def workloads() -> list:
    """Workload names, in the order ``BENCHMARK.json`` declares them."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


def run_workload(name: str, seed: int, seconds: float) -> str:
    """Run one workload; return ``""`` when it passed, else the reason."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    print(completed.stdout, end="", flush=True)
    if completed.returncode != 0 or not lines:
        return f"exited with code {completed.returncode}"
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last output line is not JSON: {lines[-1]!r}"
    if summary.get("correct") is not True or summary.get("failed") != 0:
        return (f"correct={summary.get('correct')} failed={summary.get('failed')} "
                f"of {summary.get('attempted')} ops")
    if seed == PINNED_SEED:
        return check_simulated(name, completed.stdout)
    return ""


def main(argv=None) -> int:
    """Run every workload; exit 1 if any failed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    if args.seed != PINNED_SEED:
        print(f"perfbench smoke: simulated figures are pinned at seed {PINNED_SEED} only, "
              f"not checked at seed {args.seed}", flush=True)
    failures = 0
    for name in workloads():
        problem = run_workload(name, args.seed, args.seconds)
        print(f"perfbench smoke: {name} {'ok' if not problem else 'FAILED: ' + problem}",
              flush=True)
        failures += bool(problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
