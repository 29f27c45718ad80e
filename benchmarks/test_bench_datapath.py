"""Tier-1 contracts of the ``soc_datapath`` section.

See ``benchmarks/sections/soc_datapath.py`` for the scenario and bounds.
"""

import pytest

from benchmarks.sections import soc_datapath


@pytest.fixture
def datapath(section_result):
    return section_result("soc_datapath")


class TestInPlaceKSharding:
    def test_in_place_beats_staged_with_zero_staging_writes(self, datapath):
        soc_datapath.check_in_place_beats_staged(datapath["k_sharding"])

    def test_speedup_comes_from_staging_not_streaming(self, datapath):
        soc_datapath.check_speedup_from_staging(datapath["k_sharding"])

    def test_both_modes_pipeline_below_serial(self, datapath):
        soc_datapath.check_pipelined_below_serial(datapath["k_sharding"])


class TestBranchFusedLowering:
    def test_fused_plan_beats_sequential_and_model_agrees(self, datapath):
        soc_datapath.check_fusion_beats_sequential(datapath["branch_fusion"])

    def test_fusion_collapses_offload_count(self, datapath):
        soc_datapath.check_fusion_collapses_offloads(datapath["branch_fusion"])
