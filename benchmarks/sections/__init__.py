"""Benchmark section registry: one definition per benchmark scenario.

Every section of ``BENCH_throughput.json`` is one module here exposing

* ``collect(quick) -> dict`` — build the scenario (its SoCs, engines,
  graphs and traffic), measure it and return the JSON record; ``quick``
  selects the small configuration that tier-1 and the CI smoke run, and
* ``check(result)`` — assert the section's contracts on that record.

``run_bench.py`` iterates :data:`SECTIONS`, and the tier-1 contract tests
run ``check`` on ``collect(quick=True)``, so a scenario and its bounds are
written once.  ``collect`` asserts only what its record cannot show
(bitwise goldens of intermediate results, trace structure); every bound
on a recorded figure lives in ``check``.  Wall-clock legs re-measure
through :func:`retry` before ``check`` sees them.
"""

from __future__ import annotations

import importlib

from repro.system import PhotonicSoC


def cluster(n_pes: int) -> PhotonicSoC:
    """A fresh SoC with ``n_pes`` photonic accelerators.

    Event-scheduler clocks are absolute per SoC, so every measurement runs
    on its own cluster and reports never mix.
    """
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


def retry(measure, check, attempts: int):
    """Run ``measure()`` until ``check`` accepts it, at most ``attempts`` times.

    For wall-clock legs on a possibly noisy machine: the last measurement
    is returned either way, and the section's ``check`` rejects it later
    if it still misses its bound.
    """
    for _ in range(attempts):
        result = measure()
        try:
            check(result)
        except AssertionError:
            continue
        break
    return result


NAMES = (
    "soc_offload",
    "serving",
    "compiler",
    "compiler_dag",
    "soc_datapath",
    "serving_fabric",
    "snn_serving",
    "observability",
    "adaptive",
)
SECTIONS = {name: importlib.import_module(f"{__name__}.{name}") for name in NAMES}
