"""Every registered benchmark section passes its own ``check`` in quick mode.

This is the gate ``run_bench.py --quick`` applies in CI, run in tier-1 on
the session-cached quick records; the per-contract tests in the other
``test_bench_*`` files check the same records leg by leg.
"""

import pytest

from benchmarks.sections import NAMES, SECTIONS


@pytest.mark.parametrize("name", NAMES)
def test_section_contract(name, section_result):
    SECTIONS[name].check(section_result(name))
