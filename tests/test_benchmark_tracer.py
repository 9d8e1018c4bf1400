"""The benchmark's tracer wraps package names by attribute; entering it
fails as soon as one of those names disappears from the package. Short
traced anneal and split runs check the benchmark's own output check and
the per-layer counts of each workload's hooks."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import ramseykit.anneal
import ramseykit.split

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    solve, copies = ramseykit.split.sat_solve, ramseykit.anneal.list_copies
    with tracing.Tracer().installed():
        assert ramseykit.split.sat_solve is not solve
        assert ramseykit.anneal.list_copies is not copies
    assert ramseykit.split.sat_solve is solve
    assert ramseykit.anneal.list_copies is copies


def test_anneal_benchmark_smoke_run():
    run = [sys.executable, str(PERFBENCH / "run.py"), "--workload", "anneal", "--seed", "1"]
    done = subprocess.run(
        run + ["--small", "--seconds", "1", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, check=True, timeout=300,
    )
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    # one run of 3 temperatures x 190 edges, each move counts on 2 colors
    assert record["record"]["moves_per_run"] == 570
    m = result["metrics"]
    calls = [m[f"anneal.count_copies_with_edge.calls.{t}"]["value"] for t in ("J4", "K3")]
    assert sum(calls) == 2 * 570


def test_split_benchmark_smoke_run():
    # about 1.3 s on 2 cores: one host that splits and three that do not,
    # each through one SAT call, in each of at least two traced rounds
    run = [sys.executable, str(PERFBENCH / "run.py"), "--workload", "split", "--seed", "1"]
    done = subprocess.run(
        run + ["--small", "--seconds", "1", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, check=True, timeout=300,
    )
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert record["record"]["hosts"] == 4 and record["record"]["splittable_recorded"] == 1
    m = result["metrics"]
    assert m["sat.sat_solve.calls"]["value"] == 4
    assert m["split.splittable"]["value"] == 1
