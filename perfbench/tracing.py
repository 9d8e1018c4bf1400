"""Per-layer tracing from outside the program.

Each traced function is wrapped at the name its *calling* module looks it
up under (``ramseykit.enumeration.canon_raw``, ``ramseykit.split.sat_solve``,
and the package names the benchmark itself calls), and restored afterwards.
Recursive helpers are never wrapped at their own module, so recursion is
not counted. Counts are totals over one round; times are seconds per round.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import ramseykit as rk
import ramseykit.anneal
import ramseykit.enumeration
import ramseykit.split

CANON_ORDERS = range(1, 11)
DUP_ORDERS = range(2, 11)

# name -> (unit, better); every traced run reports all of them, 0 where a
# workload does not reach the layer.
LAYER_METRICS = {
    "canon.canon_raw.calls": ("count", "lower"),
    **{f"canon.canon_raw.calls.n{k}": ("count", "lower") for k in CANON_ORDERS},
    "canon.canon_raw.s": ("s", "lower"),
    "canon.relabel_canonical.s": ("s", "lower"),
    **{f"enumeration.duplicates.n{k}": ("count", "lower") for k in DUP_ORDERS},
    "enumeration.classes_per_canon_call": ("ratio", "higher"),
    "enumeration.self_s": ("s", "lower"),
    "graph6.parse_graph6.s": ("s", "lower"),
    "detect.list_copies.calls": ("count", "lower"),
    "detect.list_copies.s": ("s", "lower"),
    "split.encode_split_cnf.s": ("s", "lower"),
    "sat.cnf_vars": ("count", "lower"),
    "sat.cnf_clauses": ("count", "lower"),
    "sat.sat_solve.calls": ("count", "lower"),
    "sat.sat_solve.s": ("s", "lower"),
    "sat.sat_solve.s_unsat": ("s", "lower"),
    "sat.sat_solve.ms_p90": ("ms", "lower"),
    # fixed by the inputs; the run checks every verdict against its record
    "split.splittable": ("count", "higher"),
    "split.compose_coloring.s": ("s", "lower"),
    "detect.coloring_is_valid.s": ("s", "lower"),
    "anneal.count_copies_with_edge.calls.J4": ("count", "lower"),
    "anneal.count_copies_with_edge.calls.K3": ("count", "lower"),
    "anneal.count_copies_with_edge.s.J4": ("s", "lower"),
    "anneal.count_copies_with_edge.s.K3": ("s", "lower"),
    "anneal.self_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}

EXACT_UNITS = ("count", "ratio")


class Tracer:
    """Call counts and busy time per wrapped function, for one round."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.sat_ms: list[float] = []
        self.parents: dict[int, int] = defaultdict(int)  # order -> classes extended
        self.classes: dict[int, set] = defaultdict(set)  # order -> classes found

    def _wrap(self, module, attr: str, span: str, tag=None, after=None):
        orig = getattr(module, attr)
        calls, secs, clock = self.calls, self.secs, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = orig(*args, **kwargs)
            dt = clock() - t0
            calls[span] += 1
            secs[span] += dt
            if tag is not None:
                key = f"{span}.{tag(args)}"
                calls[key] += 1
                secs[key] += dt
            if after is not None:
                after(args, result, dt)
            return result

        setattr(module, attr, wrapper)
        return module, attr, orig

    def _after_sat(self, args, model, dt) -> None:
        f = args[0]
        self.calls["sat.cnf_vars"] += f.var_count
        self.calls["sat.cnf_clauses"] += len(f.clauses)
        self.sat_ms.append(dt * 1000)
        if model is None:
            self.secs["sat.sat_solve.unsat"] += dt

    def _after_split(self, args, result, dt) -> None:
        self.calls["split.splittable"] += bool(result[0])

    def _after_extend(self, args, out, dt) -> None:
        for g in args[0]:
            self.parents[g.n] += 1
        for g in out:
            self.classes[g.n].add(g.adj)

    @contextmanager
    def installed(self):
        enum, split, anneal = rk.enumeration, rk.split, rk.anneal
        saved = [
            self._wrap(rk, "extend_level", "enumeration", after=self._after_extend),
            self._wrap(enum, "canon_raw", "canon.canon_raw", tag=lambda a: f"n{a[0]}"),
            self._wrap(enum, "relabel_canonical", "canon.relabel_canonical"),
            self._wrap(rk, "parse_graph6", "graph6.parse_graph6"),
            self._wrap(rk, "is_splittable", "split.is_splittable", after=self._after_split),
            self._wrap(split, "encode_split_cnf", "split.encode_split_cnf"),
            self._wrap(split, "list_copies", "detect.list_copies"),
            self._wrap(split, "sat_solve", "sat.sat_solve", after=self._after_sat),
            self._wrap(rk, "compose_coloring", "split.compose_coloring"),
            self._wrap(rk, "coloring_is_valid", "detect.coloring_is_valid"),
            self._wrap(rk, "anneal_search", "anneal"),
            self._wrap(
                anneal,
                "count_copies_with_edge",
                "anneal.count_copies_with_edge",
                tag=lambda a: a[2].token,
            ),
            self._wrap(anneal, "list_copies", "detect.list_copies"),
        ]
        try:
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def metrics(self) -> dict[str, float]:
        c, s = self.calls, self.secs
        out: dict[str, float] = {
            "canon.canon_raw.calls": c["canon.canon_raw"],
            "canon.canon_raw.s": s["canon.canon_raw"],
            "canon.relabel_canonical.s": s["canon.relabel_canonical"],
            "graph6.parse_graph6.s": s["graph6.parse_graph6"],
            "detect.list_copies.calls": c["detect.list_copies"],
            "detect.list_copies.s": s["detect.list_copies"],
            "split.encode_split_cnf.s": s["split.encode_split_cnf"],
            "sat.cnf_vars": c["sat.cnf_vars"],
            "sat.cnf_clauses": c["sat.cnf_clauses"],
            "sat.sat_solve.calls": c["sat.sat_solve"],
            "sat.sat_solve.s": s["sat.sat_solve"],
            "sat.sat_solve.s_unsat": s["sat.sat_solve.unsat"],
            "sat.sat_solve.ms_p90": percentile(self.sat_ms, 90) if self.sat_ms else 0.0,
            "split.splittable": c["split.splittable"],
            "split.compose_coloring.s": s["split.compose_coloring"],
            "detect.coloring_is_valid.s": s["detect.coloring_is_valid"],
        }
        for k in CANON_ORDERS:
            out[f"canon.canon_raw.calls.n{k}"] = c[f"canon.canon_raw.n{k}"]
        # extend_level labels each parent once, then each new graph; a
        # duplicate is a new graph whose class was already found
        grown_calls = grown = 0
        for k in DUP_ORDERS:
            calls = c[f"canon.canon_raw.n{k}"] - self.parents[k]
            out[f"enumeration.duplicates.n{k}"] = calls - len(self.classes[k])
            grown_calls += calls
            grown += len(self.classes[k])
        out["enumeration.classes_per_canon_call"] = grown / grown_calls if grown_calls else 0.0
        out["enumeration.self_s"] = (
            s["enumeration"] - s["canon.canon_raw"] - s["canon.relabel_canonical"]
            if c["enumeration"]
            else 0.0
        )
        for token in ("J4", "K3"):
            span = f"anneal.count_copies_with_edge.{token}"
            out[f"anneal.count_copies_with_edge.calls.{token}"] = c[span]
            out[f"anneal.count_copies_with_edge.s.{token}"] = s[span]
        # list_copies is reached from split and anneal alike, but an anneal
        # round makes no split calls, so all of it lies inside anneal_search.
        out["anneal.self_s"] = (
            s["anneal"] - s["anneal.count_copies_with_edge"] - s["detect.list_copies"]
            if c["anneal"]
            else 0.0
        )
        return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def combine(rounds: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median time and the common count over traced rounds.

    Returns the metrics and the names of counts that differed between
    rounds, which would mean the workload is not deterministic.
    """
    merged: dict[str, float] = {}
    unstable = []
    for name, (unit, _) in LAYER_METRICS.items():
        if name == "trace_overhead_s":
            continue
        values = [r[name] for r in rounds]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                unstable.append(name)
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    return merged, unstable
