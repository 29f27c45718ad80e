"""Tests for the simulated-figure check of ``tools/perfbench_smoke.py``."""

import importlib.util
from pathlib import Path

import pytest

SMOKE_PATH = Path(__file__).resolve().parent.parent / "tools" / "perfbench_smoke.py"


@pytest.fixture(scope="module")
def smoke():
    spec = importlib.util.spec_from_file_location("perfbench_smoke", SMOKE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(cycles, energy):
    return (
        "warm-up done\n"
        f"simulated: {cycles} cycles/op, {energy} nJ/op (simulated clock; exact for a "
        "given seed; not validated against hardware)\n"
        '{"correct": true, "failed": 0}\n'
    )


def test_pinned_figures_pass(smoke):
    assert smoke.check_simulated("soc_plan", _output("7218.0", "121.437920")) == ""
    assert smoke.check_simulated("riscv_offload", _output("14026.0", "28.571773")) == ""


@pytest.mark.parametrize("cycles, energy", [("7219.0", "121.437920"),
                                            ("7218.0", "121.437921")])
def test_moved_figures_fail(smoke, cycles, energy):
    problem = smoke.check_simulated("soc_plan", _output(cycles, energy))
    assert "pinned 7218.0 cycles/op, 121.437920 nJ/op" in problem


def test_missing_line_fails(smoke):
    assert smoke.check_simulated("soc_plan", '{"correct": true}\n') != ""


def test_unpinned_workload_is_skipped_and_named(smoke, capsys):
    assert smoke.check_simulated("serve_inproc", "") == ""
    assert "serve_inproc" in capsys.readouterr().out
