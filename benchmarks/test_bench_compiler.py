"""Tier-1 contracts of the ``compiler`` and ``compiler_dag`` sections.

See ``benchmarks/sections/compiler.py`` and ``compiler_dag.py`` for the
scenarios and bounds.
"""

from benchmarks.sections import compiler, compiler_dag


def test_bench_k_sharded_plan_beats_naive_serial(section_result):
    compiler.check_plan_vs_naive(section_result("compiler")["plan_vs_naive"])


def test_bench_k_sharding_overlap_contract(section_result):
    compiler.check_k_sharding(section_result("compiler")["k_sharding"])


def test_bench_cost_based_routing_beats_round_robin(section_result):
    compiler.check_routing(section_result("compiler")["routing"])


def test_bench_batch_aware_sharding_flips_and_wins(section_result):
    compiler_dag.check_batch_aware(section_result("compiler_dag")["batch_aware_sharding"])


def test_bench_branch_parallel_dispatch_beats_sequential(section_result):
    compiler_dag.check_branch_parallel(section_result("compiler_dag")["branch_parallel"])
