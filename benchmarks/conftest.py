"""Shared fixtures and helpers for the benchmark harness.

Each paper-experiment benchmark regenerates one experiment of the source
paper: it prints the paper-style table/series (visible with ``pytest -s``)
and asserts the qualitative shape of the result (who wins, what degrades),
so a benchmark run doubles as a reproduction check.  Timings come from
pytest-benchmark.  The contract tests of the ``BENCH_throughput.json``
sections check the records of :mod:`benchmarks.sections` instead.
"""

from functools import lru_cache

import pytest

from benchmarks.sections import SECTIONS


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark a heavyweight function with a single round.

    The experiments are deterministic simulations (not microbenchmarks), so
    one round is enough for the timing column and keeps the full harness
    fast.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def section_result():
    """``name -> SECTIONS[name].collect(quick=True)``, collected once per session."""
    return lru_cache(maxsize=None)(lambda name: SECTIONS[name].collect(quick=True))
