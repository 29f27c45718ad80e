"""Tests for the trajectory file written by ``benchmarks/run_bench.py``."""

import json

import pytest

from benchmarks import run_bench

STAMP = {"machine", "python", "commit", "timestamp", "cpu_count"}


@pytest.fixture
def output(tmp_path, monkeypatch):
    monkeypatch.setattr(run_bench, "git_commit", lambda: "abc123")
    return tmp_path / "BENCH_throughput.json"


def _sections(run):
    return {"soc_offload": {"cycles": 100 + run}, "serving": {"p99_s": 0.5}}


def test_a_run_appends_one_record(output):
    run_bench.update_trajectory(output, _sections(0))
    payload = run_bench.update_trajectory(output, _sections(1))
    assert payload == json.loads(output.read_text())
    assert [record["soc_offload"]["cycles"] for record in payload["history"]] == [100, 101]
    assert payload["soc_offload"] == {"cycles": 101}


def test_history_is_capped(output, monkeypatch):
    monkeypatch.setattr(run_bench, "MAX_HISTORY", 3)
    for run in range(5):
        payload = run_bench.update_trajectory(output, _sections(run))
    assert [record["soc_offload"]["cycles"] for record in payload["history"]] == [102, 103, 104]


def test_records_hold_sections_and_the_stamp_only(output):
    payload = run_bench.update_trajectory(output, _sections(0))
    assert set(payload) == {"soc_offload", "serving", "history"}
    (record,) = payload["history"]
    assert set(record) == STAMP | {"soc_offload", "serving"}
    assert record["commit"] == "abc123"
    assert record["serving"] == {"p99_s": 0.5}


@pytest.mark.parametrize(
    "content",
    ["{not json", "[1, 2]", '{"history": 3}', "\udcff"],
    ids=["syntax", "list", "history", "bytes"],
)
def test_an_unreadable_file_is_refused_and_kept(output, content):
    raw = content.encode("utf-8", "surrogateescape")
    output.write_bytes(raw)
    with pytest.raises(SystemExit, match="not overwriting it") as refused:
        run_bench.update_trajectory(output, _sections(0))
    assert str(output) in str(refused.value)
    assert output.read_bytes() == raw
