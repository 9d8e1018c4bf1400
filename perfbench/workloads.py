"""The benchmark's workloads: inputs made from a seed, operations, output checks.

A workload is one round of operations. The runner repeats the round, so
every round of a run does exactly the same work and any count taken over a
round repeats exactly at the same seed. ramseykit receives only the
generated inputs: graph6 strings, the census levels it built earlier in
the round, targets and annealing parameters.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import ramseykit as rk

import hosts

DATA = Path(__file__).resolve().parent / "data"
HOSTS_FILE = DATA / "hosts16.tsv"
ANNEAL_FILE = DATA / "anneal.json"

K3, J4, J7 = rk.clique(3), rk.clique_minus_edge(4), rk.clique_minus_edge(7)

# Level counts and edge ranges of the (K3, J7)-good census, orders 1-10,
# as printed in the paper.
PAPER_ROWS = [
    (1, 1, "0"),
    (2, 2, "0-1"),
    (3, 3, "0-2"),
    (4, 7, "0-4"),
    (5, 14, "0-6"),
    (6, 38, "0-9"),
    (7, 105, "2-12"),
    (8, 392, "3-16"),
    (9, 1697, "4-20"),
    (10, 9430, "5-25"),
]

CENSUS_CHUNK = 32  # parents per extend_level call

HOST_ORDER = 16
HOST_STRATUM = 2  # pool hosts per stratum; each seed takes one of each
# A round's hosts by verdict: 4 of 54 split (7.4%), as 11,813 of the
# paper's 158,459 order-16/17 hosts (7.5%) do.
SPLIT_PER_ROUND = 4
UNSPLIT_PER_ROUND = 50
ANNEALS_PER_ROUND = 8

# A short fixed schedule, one restart: three temperatures of one sweep
# over K20's 190 edges. (K3, J4, J4) on K20 stays far from zero energy, so
# every run makes the same number of moves.
ANNEAL_N = 20
ANNEAL_TARGETS = (K3, J4, J4)
ANNEAL_PARAMS = rk.AnnealParams(2.0, 0.4, 1, 1, 0, 0.3)


@dataclass
class Op:
    """One timed call into ramseykit plus the check of its output."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # a failure message, or None
    work: int


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one round
    work_unit: str
    setup_code: str  # run in a fresh interpreter to time set-up
    detail: dict


def census(seed: int, small: bool) -> Workload:
    """The (K3, J7) census, built level by level in chunks of parents.

    Each operation is ``extend_level`` on one chunk of a level's classes,
    as the program's own parallel path splits it; the classes found by a
    level's chunks, merged, are the next level, which the next operations
    extend. The merge and the check of each finished level against the
    paper's row run between operations, untimed. The work of the chunk
    that completes a level is that level's class count. The input is
    fixed, so ``seed`` is unused.
    """
    max_n = 8 if small else 10
    rows = {order: (count, edges) for order, count, edges in PAPER_ROWS[:max_n]}
    levels = {1: [rk.Graph(1, (0,))]}  # order -> its classes, once complete
    found: dict[int, dict] = {}  # order -> classes found so far this round

    def extend(order: int, start: int):
        return rk.extend_level(levels[order][start : start + CENSUS_CHUNK], K3, J7)

    def merge(out, order: int, start: int) -> str | None:
        if start == 0:
            found[order + 1] = {}
        classes = found[order + 1]
        for g in out:
            classes.setdefault(g.adj, g)
        if start + CENSUS_CHUNK < rows[order][0]:
            return None
        level = levels[order + 1] = [classes[adj] for adj in sorted(classes)]
        edges = [sum(row.bit_count() for row in g.adj) // 2 for g in level]
        got = (len(level), f"{min(edges)}-{max(edges)}" if level else "-")
        want = rows[order + 1]
        return None if got == want else f"census order {order + 1}: {got} != paper {want}"

    ops = []
    for order in range(1, max_n):
        count = rows[order][0]
        for start in range(0, count, CENSUS_CHUNK):
            ops.append(
                Op(
                    f"census-n{order}-{start}",
                    lambda order=order, start=start: extend(order, start),
                    lambda out, order=order, start=start: merge(out, order, start),
                    rows[order + 1][0] if start + CENSUS_CHUNK >= count else 0,
                )
            )
    setup = "import ramseykit as rk; rk.clique(3); rk.clique_minus_edge(7)"
    detail = {"max_n": max_n, "chunk": CENSUS_CHUNK}
    return Workload("census", ops, "classes", setup, detail)


def load_host_pool() -> list[tuple[str, bool, float]]:
    """(graph6, recorded verdict, recorded cost in ms) per pool host."""
    pool = []
    for line in HOSTS_FILE.read_text(encoding="ascii").splitlines():
        text, verdict, cost = line.split("\t")
        pool.append((text, verdict == "1", float(cost)))
    return pool


def sample_hosts(seed: int, split_count: int, unsplit_count: int) -> list[tuple[str, bool]]:
    """Hosts of each verdict, one from each cost stratum, in a seeded order.

    The pool is divided by recorded verdict, and each part, sorted by
    recorded cost, is cut into strata of consecutive hosts. Every seed
    draws a different set of hosts with nearly the same cost profile and
    the same share of splittable hosts, heavy tail included.
    """
    rng = random.Random(seed)
    picks = []
    for verdict, count in ((True, split_count), (False, unsplit_count)):
        pool = sorted((row for row in load_host_pool() if row[1] == verdict), key=lambda r: r[2])
        strata = [pool[i : i + HOST_STRATUM] for i in range(0, len(pool), HOST_STRATUM)]
        picks += [rng.choice(stratum)[:2] for stratum in strata[:count]]
    rng.shuffle(picks)
    return picks


def split_host(text: str):
    """The paper's pipeline for one host: parse, complement, split, compose."""
    f = rk.parse_graph6(text)
    ok, witness = rk.is_splittable(rk.complement(f), [K3, J4], engine="sat")
    if not ok:
        return False, None
    return True, rk.coloring_is_valid(rk.compose_coloring(f, witness), [K3, K3, J4])


def split(seed: int, small: bool) -> Workload:
    if small:
        picked = sample_hosts(seed, 1, 3)
    else:
        picked = sample_hosts(seed, SPLIT_PER_ROUND, UNSPLIT_PER_ROUND)
    ops = []
    for i, (text, recorded) in enumerate(picked):
        # Input checks, outside the timed calls: the generator's own
        # good-graph test must agree with ramseykit's on every host.
        n, adj = hosts.adjacency(text)
        own = hosts.is_k3_j7_good(n, adj)
        theirs = rk.is_good(rk.parse_graph6(text), K3, J7)
        precheck = None
        if not own or not theirs:
            precheck = f"good-graph check: own {own}, ramseykit {theirs}"

        def check(out, recorded=recorded, precheck=precheck, text=text):
            ok, verdict = out
            if precheck:
                return f"{text}: {precheck}"
            if ok != recorded:
                return f"{text}: splittable {ok}, recorded {recorded}"
            if ok and not (verdict.valid and verdict.assignment == (0, 1, 2)):
                return f"{text}: witness is not a (K3, K3, J4)-coloring"
            return None

        ops.append(Op(f"host{i}", lambda text=text: split_host(text), check, 1))
    setup = "import ramseykit as rk; rk.clique(3); rk.clique_minus_edge(4)"
    detail = {
        "hosts": len(picked),
        "splittable_recorded": sum(rec for _, rec in picked),
    }
    return Workload("split", ops, "hosts", setup, detail)


def anneal_moves(n: int, params: rk.AnnealParams) -> int:
    """Moves of one restart under the fixed schedule (no early stop)."""
    temps = 0
    temp = params.initial_temperature
    while temp >= params.min_temperature:
        temps += 1
        temp *= params.cooling
    return temps * params.sweeps_per_temperature * (n * (n - 1) // 2)


def load_anneal_records() -> dict[int, int]:
    data = json.loads(ANNEAL_FILE.read_text(encoding="ascii"))
    return {int(s): e for s, e in data.items()}


def anneal(seed: int, small: bool) -> Workload:
    records = load_anneal_records()
    rng = random.Random(seed)
    run_seeds = rng.sample(sorted(records), 1 if small else ANNEALS_PER_ROUND)
    moves = anneal_moves(ANNEAL_N, ANNEAL_PARAMS)
    ops = []
    for s in run_seeds:

        def check(res, s=s) -> str | None:
            if res.success or res.best_energy != records[s]:
                return (
                    f"anneal seed {s}: best energy {res.best_energy}, "
                    f"recorded {records[s]}"
                )
            return None

        p = replace(ANNEAL_PARAMS, seed=s)
        call = lambda p=p: rk.anneal_search(ANNEAL_N, list(ANNEAL_TARGETS), p)  # noqa: E731
        ops.append(Op(f"seed{s}", call, check, moves))
    tokens = ",".join(t.token for t in ANNEAL_TARGETS)
    setup = (
        "import ramseykit as rk; "
        f"[rk.parse_target(t) for t in {tokens!r}.split(',')]; rk.AnnealParams()"
    )
    detail = {"n": ANNEAL_N, "targets": tokens, "seeds": run_seeds, "moves_per_run": moves}
    return Workload("anneal", ops, "moves", setup, detail)


BUILDERS = {"census": census, "split": split, "anneal": anneal}
NAMES = list(BUILDERS)


def build(name: str, seed: int, small: bool) -> Workload:
    return BUILDERS[name](seed, small)
