"""The benchmark's tracer wraps package names by attribute; entering it
fails as soon as one of those names disappears from the package."""

import importlib
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
