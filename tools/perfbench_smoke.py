#!/usr/bin/env python
"""Smoke-run every perfbench workload and fail on any failed op.

``perfbench/run.py`` exits 0 even when ops fail their output checks; it
reports them in the JSON object on its last output line (``correct``,
``failed``).  This gate runs each workload declared in ``BENCHMARK.json``
for a short, seeded window and exits non-zero unless every run ended with
``"correct": true`` and ``"failed": 0``.  Timings are not judged here.

Usage::

    python tools/perfbench_smoke.py                 # seed 1, 2 s per workload
    python tools/perfbench_smoke.py --seed 3 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


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
    return ""


def main(argv=None) -> int:
    """Run every workload; exit 1 if any failed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    failures = 0
    for name in workloads():
        problem = run_workload(name, args.seed, args.seconds)
        print(f"perfbench smoke: {name} {'ok' if not problem else 'FAILED: ' + problem}",
              flush=True)
        failures += bool(problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
