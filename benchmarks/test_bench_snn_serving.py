"""Tier-1 contracts of the ``snn_serving`` section.

See ``benchmarks/sections/snn_serving.py`` for the scenario and bounds.
"""

from benchmarks.sections import snn_serving


def test_bench_fused_patterns_beat_serial(section_result):
    snn_serving.check_batched_vs_serial(section_result("snn_serving")["batched_vs_serial"])


def test_bench_online_stdp_reproducible(section_result):
    result = section_result("snn_serving")
    snn_serving.check_online_stdp(result["online_stdp"], result["max_batch"])


def test_bench_fault_campaign_degrades_monotonically(section_result):
    snn_serving.check_fault_campaign(section_result("snn_serving")["fault_campaign"])
