"""Tier-1 contracts of the ``observability`` section.

See ``benchmarks/sections/observability.py`` for the scenario and bounds.
"""

from benchmarks.sections import observability


def test_bench_tracing_overhead(section_result):
    observability.check_overhead(section_result("observability"))


def test_bench_tracing_bitwise_parity(section_result):
    observability.check_parity(section_result("observability"))


def test_bench_drift_monitor_flags_miscalibration(section_result):
    observability.check_drift(section_result("observability"))
