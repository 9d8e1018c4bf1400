"""Tests of the benchmark itself, on the seconds-long ``--small`` size.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}


def result_of(capsys, *argv: str) -> dict:
    assert run.main(["--small", "--seconds", "0", *argv]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == workloads.NAMES
    assert PER_LAYER == tracing.LAYER_METRICS


@pytest.mark.parametrize("name", workloads.NAMES)
def test_plain_run_reports_every_end_to_end_metric(capsys, name):
    res = result_of(capsys, "--workload", name, "--seed", "3")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(capsys, name):
    first, second = (
        result_of(capsys, "--workload", name, "--seed", "3", "--trace", "1")
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        k: unit for k, (unit, _) in PER_LAYER.items()
    }
    for key, (unit, _) in PER_LAYER.items():
        if unit in tracing.EXACT_UNITS:
            assert first["metrics"][key] == second["metrics"][key], key


def failures(wl: workloads.Workload) -> int:
    runner = run.Runner(wl)
    runner.round()
    return runner.failed


def test_traced_census_counts_agree_with_the_census():
    wl = workloads.census(0, small=True)
    tracer = tracing.Tracer()
    original = workloads.rk.enumeration.canon_raw
    with tracer.installed():
        assert failures(wl) == 0
    m = tracer.metrics()
    counts = [count for _, count, _ in workloads.PAPER_ROWS[:8]]
    calls = [m[f"canon.canon_raw.calls.n{k}"] for k in range(1, 9)]
    assert m["canon.canon_raw.calls"] == sum(calls)
    for k in range(2, 9):
        # orders below the top are labelled once more as parents
        parents = counts[k - 1] if k < 8 else 0
        assert m[f"enumeration.duplicates.n{k}"] == calls[k - 1] - parents - counts[k - 1]
    assert workloads.rk.enumeration.canon_raw is original


def test_wrong_census_rows_fail(monkeypatch):
    rows = list(workloads.PAPER_ROWS)
    rows[6] = (7, 104, "2-12")
    monkeypatch.setattr(workloads, "PAPER_ROWS", rows)
    assert failures(workloads.census(0, small=True)) == 1


def test_wrong_split_verdict_fails(monkeypatch):
    real = workloads.sample_hosts
    flipped = lambda *args: [(t, not v) for t, v in real(*args)]  # noqa: E731
    monkeypatch.setattr(workloads, "sample_hosts", flipped)
    assert failures(workloads.split(0, small=True)) == 4


def test_wrong_anneal_energy_fails(monkeypatch):
    real = workloads.load_anneal_records
    shifted = lambda: {s: e + 1 for s, e in real().items()}  # noqa: E731
    monkeypatch.setattr(workloads, "load_anneal_records", shifted)
    assert failures(workloads.anneal(0, small=True)) == 1


def test_inputs_follow_the_seed():
    split, unsplit = workloads.SPLIT_PER_ROUND, workloads.UNSPLIT_PER_ROUND
    picked = workloads.sample_hosts(5, split, unsplit)
    assert picked == workloads.sample_hosts(5, split, unsplit)
    assert picked != workloads.sample_hosts(6, split, unsplit)
    assert len({t for t, _ in picked}) == split + unsplit
    assert sum(verdict for _, verdict in picked) == split


def test_host_codec_matches_ramseykit():
    for text, _ in workloads.sample_hosts(0, 2, 8):
        n, adj = workloads.hosts.adjacency(text)
        g = workloads.rk.parse_graph6(text)
        assert (n, tuple(adj)) == (g.n, g.adj)
        assert workloads.hosts.graph6(n, adj) == workloads.rk.emit_graph6(g)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_runs_stop_at_the_round_end_nearest_the_time():
    assert run.another_round([], 30, 1)
    assert run.another_round([10, 10], 30, 1)  # 30 s is nearer than 20 s
    assert not run.another_round([10, 10, 10], 30, 1)
    assert not run.another_round([26], 30, 1)  # 26 s is nearer than 52 s
    assert run.another_round([40], 30, 2)
