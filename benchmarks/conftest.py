"""Shared fixtures for the benchmark harness.

Each paper-experiment benchmark regenerates one experiment of the source
paper: it prints the paper-style table/series (visible with ``pytest -s``)
and asserts the qualitative shape of the result (who wins, what degrades),
so a benchmark run doubles as a reproduction check.  The contract tests of
the ``BENCH_throughput.json`` sections check the records of
:mod:`benchmarks.sections` instead.  Wall-clock speed is measured by
``perfbench/``.
"""

from functools import lru_cache

import pytest

from benchmarks.sections import SECTIONS


@pytest.fixture(scope="session")
def section_result():
    """``name -> SECTIONS[name].collect(quick=True)``, collected once per session."""
    return lru_cache(maxsize=None)(lambda name: SECTIONS[name].collect(quick=True))
