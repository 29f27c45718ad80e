#!/usr/bin/env python
"""Run the benchmark sections and persist a trajectory file.

Executes ``benchmarks/test_bench_throughput.py`` under pytest-benchmark,
condenses the raw report into one record per benchmark (mean/min seconds
and ops/s), then runs every section of the registry in
``benchmarks/sections/`` — ``collect`` to measure it, ``check`` to assert
its contracts — and writes/extends ``BENCH_throughput.json`` at the
repository root:

.. code-block:: json

    {
      "latest": {"<bench name>": {"mean_s": ..., "min_s": ..., "ops_per_s": ...}},
      "<section>": {...},
      "history": [{"machine": ..., "commit": ..., "timestamp": ...,
                   "cpu_count": ..., "results": {...}, "<section>": {...}}, ...]
    }

Each section module documents its own record.  These are simulator and
contract figures; end-to-end speed is measured by ``perfbench/`` (see
``perfbench/NOTES.md``).

Usage::

    python benchmarks/run_bench.py [--output BENCH_throughput.json] [--quick]

``--quick`` runs the CI-smoke variant: each section's small configuration
(the one the tier-1 contract tests gate on), no pytest-benchmark suite,
and nothing written to the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = [Path(__file__).resolve().parent / "test_bench_throughput.py"]
MAX_HISTORY = 50


def run_benchmarks(raw_json: Path) -> int:
    """Run the throughput suite with pytest-benchmark; returns the exit code."""
    command = [
        sys.executable, "-m", "pytest", *(str(path) for path in BENCH_FILES),
        "-q", f"--benchmark-json={raw_json}",
    ]
    return subprocess.call(command, cwd=str(REPO_ROOT))


def condense(raw_json: Path) -> dict:
    """Reduce the pytest-benchmark report to {name: {mean_s, min_s, ops_per_s}}."""
    report = json.loads(raw_json.read_text())
    results = {}
    for bench in report.get("benchmarks", []):
        stats = bench.get("stats", {})
        mean = stats.get("mean")
        results[bench["name"]] = {
            "mean_s": mean,
            "min_s": stats.get("min"),
            "ops_per_s": (1.0 / mean) if mean else None,
        }
    return results


def git_commit() -> str | None:
    """The checked-out commit, or ``None`` outside a git checkout.

    A working tree with uncommitted changes is stamped ``<commit>-dirty``:
    the record measured those changes, not the commit itself.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{commit}-dirty" if dirty else commit


def update_trajectory(output: Path, results: dict, sections: dict) -> dict:
    """Write ``{latest, <section>..., history}``, appending to any history.

    ``results`` is the condensed pytest-benchmark report and ``sections``
    maps each section name to its collected record.  Each history record
    is stamped with the commit, a UTC timestamp and the CPU count.
    """
    record = {
        "machine": platform.node() or "unknown",
        "python": platform.python_version(),
        "commit": git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "results": results,
        **sections,
    }
    history = []
    if output.exists():
        try:
            history = list(json.loads(output.read_text()).get("history", []))
        except (json.JSONDecodeError, OSError):
            pass
    payload = {
        "latest": results,
        **sections,
        "history": (history + [record])[-MAX_HISTORY:],
    }
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def leaves(record: dict, prefix: str = ""):
    """Yield ``(path, value)`` for every non-dict leaf of a nested record."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}/")
        else:
            yield f"{prefix}{key}", value


def show(value) -> str:
    """Compact one-line rendering of a record leaf."""
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(show(item) for item in value) + "]"
    return str(value)


def main() -> int:
    """Parse arguments, run the suite and every section, write the trajectory."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_throughput.json",
        help="trajectory file to write (default: BENCH_throughput.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: tier-1 section configurations, skip the pytest-benchmark suite, "
        "and do not write or append to the trajectory file",
    )
    args = parser.parse_args()

    src = str(REPO_ROOT / "src")
    sys.path[:0] = [str(REPO_ROOT), src]
    # the pytest subprocess and spawned fabric workers import repro through
    # the environment, not through this interpreter's sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    from benchmarks.sections import SECTIONS

    exit_code = 0
    results = {}
    if not args.quick:
        with tempfile.TemporaryDirectory() as tmp:
            raw_json = Path(tmp) / "benchmark_raw.json"
            exit_code = run_benchmarks(raw_json)
            if not raw_json.exists():
                print("benchmark run produced no JSON report", file=sys.stderr)
                return exit_code or 1
            results = condense(raw_json)

    sections = {}
    for name, section in SECTIONS.items():
        sections[name] = section.collect(quick=args.quick)
        section.check(sections[name])

    if args.quick:
        print("quick mode: trajectory file not updated")
    else:
        update_trajectory(args.output, results, sections)
        print(f"wrote {args.output} ({len(results)} benchmarks)")
    for path, value in leaves({"latest": results, **sections}):
        print(f"  {path}: {show(value)}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
