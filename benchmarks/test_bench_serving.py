"""Tier-1 contract of the ``serving`` section (see ``benchmarks/sections/serving.py``)."""

from benchmarks.sections import serving


def test_bench_serving_dynamic_batching(section_result):
    serving.check(section_result("serving"))
