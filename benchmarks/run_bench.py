#!/usr/bin/env python
"""Run the benchmark sections and persist a trajectory file.

Runs every section of the registry in ``benchmarks/sections/`` —
``collect`` to measure it, ``check`` to assert its contracts — and
writes/extends ``BENCH_throughput.json`` at the repository root:

.. code-block:: json

    {
      "<section>": {...},
      "history": [{"machine": ..., "python": ..., "commit": ...,
                   "timestamp": ..., "cpu_count": ..., "<section>": {...}}, ...]
    }

Each section module documents its own record.  These are simulator and
contract figures; end-to-end speed is measured by ``perfbench/`` (see
``perfbench/NOTES.md``).  An output file that cannot be read as a
trajectory is never overwritten: the run exits non-zero and names it.

Usage::

    python benchmarks/run_bench.py [--output BENCH_throughput.json] [--quick]

``--quick`` runs the CI-smoke variant: each section's small configuration
(the one the tier-1 contract tests gate on), and nothing written to the
trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MAX_HISTORY = 50


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


def read_history(output: Path) -> list:
    """The ``history`` of the trajectory file ``output``; ``[]`` if it is absent.

    A file that cannot be read as a trajectory exits the run non-zero:
    rewriting it would erase every record it holds.
    """
    if not output.exists():
        return []
    try:
        payload = json.loads(output.read_text())
    except (OSError, ValueError) as error:
        raise SystemExit(f"{output} is not a readable trajectory file ({error}); not overwriting it")
    history = payload.get("history", []) if isinstance(payload, dict) else None
    if not isinstance(history, list):
        raise SystemExit(f"{output} holds no list of history records; not overwriting it")
    return history


def update_trajectory(output: Path, sections: dict) -> dict:
    """Write ``{<section>..., history}``, appending one record to the history.

    ``sections`` maps each section name to its collected record.  The
    history record holds every section, stamped with the machine, Python
    version, commit, a UTC timestamp and the CPU count.
    """
    record = {
        "machine": platform.node() or "unknown",
        "python": platform.python_version(),
        "commit": git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        **sections,
    }
    history = read_history(output)
    payload = {**sections, "history": (history + [record])[-MAX_HISTORY:]}
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
    """Parse arguments, run every section, write the trajectory."""
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
        help="CI smoke mode: tier-1 section configurations, "
        "and do not write or append to the trajectory file",
    )
    args = parser.parse_args()

    sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]
    from benchmarks.sections import SECTIONS

    if not args.quick:
        read_history(args.output)  # refuse an unreadable file before the long run
    sections = {}
    for name, section in SECTIONS.items():
        sections[name] = section.collect(quick=args.quick)
        section.check(sections[name])

    if args.quick:
        print("quick mode: trajectory file not updated")
    else:
        update_trajectory(args.output, sections)
        print(f"wrote {args.output} ({len(sections)} sections)")
    for path, value in leaves(sections):
        print(f"  {path}: {show(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
