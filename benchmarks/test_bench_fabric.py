"""Tier-1 contracts of the ``serving_fabric`` section.

See ``benchmarks/sections/serving_fabric.py`` for the scenario and bounds.
"""

from benchmarks.sections import serving_fabric


def test_bench_fabric_bitwise_equivalence(section_result):
    serving_fabric.check_bitwise_equivalence(section_result("serving_fabric"))


def test_bench_fabric_beats_single_process(section_result):
    serving_fabric.check_beats_single_process(section_result("serving_fabric"))
