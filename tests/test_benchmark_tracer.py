"""The benchmark's tracer wraps package names by attribute; entering it
fails as soon as one of those names disappears from the package. A short
traced anneal run checks the benchmark's own output check and its
per-layer counts."""

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
