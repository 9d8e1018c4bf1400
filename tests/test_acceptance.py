"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line. Everything asserts exact values; no tolerances apply
anywhere in this suite."""

import hashlib
import os
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

from oracles import brute_splittable_2
from ramseykit import split, targets
from ramseykit.anneal import anneal_search
from ramseykit.canon import canonical_form
from ramseykit.coloring import EdgeColoring
from ramseykit.constructions import (
    clone_vertex,
    is_strongly_regular,
    schlafli,
)
from ramseykit.detect import coloring_is_valid, contains, is_good, list_copies
from ramseykit.enumeration import enumerate_good, extend_level
from ramseykit.graph6 import parse_graph6
from ramseykit.graphs import Graph, complement
from ramseykit.sat import sat_solve, write_dimacs
from ramseykit.split import (
    compose_coloring,
    encode_split_cnf,
    is_splittable,
    witness_matrix,
)
from ramseykit.verify import (
    verify_figure,
    verify_j7_arrow,
    verify_lemma_hex,
    verify_split_pipeline,
)

K3 = targets.clique(3)
K4 = targets.clique(4)
J4 = targets.clique_minus_edge(4)
J7 = targets.clique_minus_edge(7)
K3E = targets.triangle_plus_pendant()

JOBS = min(4, os.cpu_count() or 1)
# order-16 (K3, J7)-good hosts with recorded (K3, J4) split verdicts
HOSTS16 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "hosts16.tsv"
# sha256 of the (K3, J4) DIMACS text of the 108 pool hosts' complements, in
# file order, and of the witness matrices of the 8 that split
POOL_DIMACS_SHA256 = "aad7f310723853ac07fd149cac26dbae8ccab38e04034753b183613bd3348c31"
POOL_WITNESSES_SHA256 = "2b5e616b09c0f63dae5a33b618c68fdad1b8f4e356f0eeda2bae0eeb6b5f68cc"

TABLE_ROWS_1_TO_11 = [
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
    (11, 58522, "8-30"),
]


def report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_table_reproduction():
    stats = enumerate_good(K3, J7, 11, jobs=JOBS)
    rows = [(r.order, r.count, r.edge_range) for r in stats.levels]
    report(1, "triangle/J7 level counts and edge ranges, orders 1-11",
           rows == TABLE_ROWS_1_TO_11)


def test_criterion_2_lemma_hex():
    rep = verify_lemma_hex()
    report(2, "every (K3e,J4;6)-good class has a C6 or equals 2K3", rep.passed)


def test_criterion_3_j7_arrowing():
    rep = verify_j7_arrow()
    text = str(rep)
    ok = (
        rep.passed
        and "colorings examined: 1048576" in text
        and "R(K3e,J4) = 7 by enumeration: ok" in text
    )
    report(3, "J7 arrows (K3e,J4) over all 2^20 colorings; R(K3e,J4)=7", ok)


@pytest.mark.parametrize("t1", [K3E, K3], ids=["K3e", "K3"])
def test_criterion_3_j7_refutations_are_proof_checked(checked_split, t1):
    # J7 arrows (K3e, J4), hence (K3, J4) too: the SAT engine's refutations
    # of both splits, checked against the solver's DRUP log
    ok, broken = checked_split(J7.pattern(), t1, J4)
    assert not ok and broken == 11


def test_criterion_4_figures():
    ok = verify_figure("figure3").passed and verify_figure("figure4").passed
    report(4, "embedded figures are (K3,J4,J4;20)- and (J4,J4,K4;32)-colorings", ok)


def test_criterion_5_schlafli_suite():
    g = schlafli()
    ok = g.n == 27
    ok = ok and is_strongly_regular(g, 10, 1, 5)
    ok = ok and is_good(g, J4, J7)
    split_ok, witness = is_splittable(g, [J4, J4])
    ok = ok and split_ok and witness is not None
    ok = ok and not any(contains(half, J4) for half in witness)
    # the graph itself has no J4, so its (J4, J4) split alone is vacuous
    ok = ok and len(list_copies(g, J4)) == 0
    comp_j4, comp_witness = is_splittable(complement(g), [J4, J4])
    ok = ok and comp_j4 and comp_witness is not None
    verdict = coloring_is_valid(compose_coloring(g, comp_witness), [J4, J4, J4])
    ok = ok and verdict.valid and verdict.assignment == (0, 1, 2)
    comp_split, _ = is_splittable(complement(g), [K3, J4])
    ok = ok and not comp_split
    report(5, "Schlafli graph: SRG(27,10,1,5), (J4,J7)-good, J4|J4-splittable, "
              "complement J4|J4-splittable into a (J4,J4,J4;27)-coloring, "
              "complement unsplittable for K3|J4", ok)


PAIRS_6 = [(K3, K3), (K3, J4), (K3E, J4), (J4, J4), (K3, K4), (K4, J4)]


def criterion_6_instances():
    """(host, t1, t2) for the good graphs up to order 6 with 1 to 15 edges."""
    pool: list[Graph] = []
    for t1, t2 in [(K3, J7), (K3E, J4)]:
        level = [Graph.empty(1)]
        pool.extend(level)
        for _ in range(5):
            level = extend_level(level, t1, t2)
            pool.extend(level)
    return [(g, t1, t2) for g in pool if 0 < g.edge_count <= 15 for t1, t2 in PAIRS_6]


@cache
def near_complete_instances(n: int, most: int) -> list:
    """(host, t1, t2) for K_n less up to ``most`` edges, one host per class."""
    hosts = {}
    pairs = list(combinations(range(n), 2))
    for r in range(most + 1):
        for gone in combinations(pairs, r):
            g = Graph.from_edges(n, [e for e in pairs if e not in gone])
            hosts.setdefault(canonical_form(g), g)
    return [(g, t1, t2) for g in hosts.values() for t1, t2 in PAIRS_6]


def test_criterion_5_complement_refutation_is_proof_checked(checked_split):
    ok, broken = checked_split(complement(schlafli()), K3, J4)
    assert not ok and broken > 0


def test_criterion_6_engine_cross_agreement():
    # the pool splits everywhere, so the near-complete 7-vertex hosts (at
    # most 21 edges, within the brute force's reach) bring the arrowing
    # verdicts; they add about 1.3 s to tier-1
    checked = arrowing = 0
    agreed = True
    for g, t1, t2 in criterion_6_instances() + near_complete_instances(7, 4):
        expect = brute_splittable_2(g, t1, t2)
        got_sat, _ = is_splittable(g, [t1, t2], engine="sat")
        got_rec, _ = is_splittable(g, [t1, t2], engine="recurse")
        agreed = agreed and got_sat == expect and got_rec == expect
        checked += 1
        arrowing += not expect
    report(6, f"SAT = recursion = brute force on {checked} instances from levels "
              f"up to order 6 and near-complete 7-vertex hosts, {arrowing} arrowing",
           agreed and checked >= 520 and arrowing >= 9)


def test_criterion_6_refutations_are_proof_checked(checked_split):
    # the pool splits everywhere, so near-complete hosts on 7 and 8 vertices
    # (up to 4 and 3 edges missing, one per class) bring the UNSAT verdicts
    instances = criterion_6_instances()
    instances += near_complete_instances(7, 4) + near_complete_instances(8, 3)
    refuted = broken = 0
    for g, t1, t2 in instances:
        ok, gens = checked_split(g, t1, t2)
        refuted += not ok
        broken += not ok and gens > 0
    assert refuted == broken == 33


def test_criterion_7_annealing():
    r5 = anneal_search(5, [K3, K3])
    ok = r5.success and coloring_is_valid(r5.coloring, [K3, K3]).valid
    r14 = anneal_search(14, [K3, K3, K3])
    ok = ok and r14.success and coloring_is_valid(r14.coloring, [K3, K3, K3]).valid
    r6 = anneal_search(6, [K3, K3])
    ok = ok and not r6.success and r6.best_energy >= 1
    again = anneal_search(5, [K3, K3])
    ok = ok and again.coloring == r5.coloring
    report(7, "annealing: zero energy at n=5 and n=14(3 colors), NONE at n=6, "
              "deterministic under the default seed", ok)


def test_criterion_8_clone_vertex():
    # toy: on K3 with fan colors equal at the third vertex, cloning with the
    # link color closes a monochromatic triangle on {x, y, z}
    c = EdgeColoring.from_function(3, 2, lambda u, v: 1 if (u, v) == (0, 1) else 0)
    grown = clone_vertex(c, 0, 1, 1)
    triangle = [grown.color_of(0, 1), grown.color_of(0, 3), grown.color_of(1, 3)]
    ok = grown.n == 4 and triangle == [1, 1, 1]
    ok = ok and grown.color_of(2, 3) == c.color_of(0, 2)
    ok = ok and grown.m == c.m
    ok = ok and all(
        grown.color_of(u, v) == c.color_of(u, v) for v in range(3) for u in range(v)
    )
    report(8, "clone_vertex toy example and round-trip", ok)


@pytest.mark.extended
@pytest.mark.skipif(
    not os.environ.get("RAMSEYKIT_EXTENDED"),
    reason="extended gate (hours of runtime): set RAMSEYKIT_EXTENDED=1",
)
def test_criterion_9_extended_split_census(tmp_path):
    stats = enumerate_good(K3, J7, 17, emit_dir=str(tmp_path), jobs=JOBS)
    counts = {r.order: r.count for r in stats.levels}
    assert counts[16] == 158459 and counts[17] == 4853
    rep16 = verify_split_pipeline(16, archive_dir=str(tmp_path))
    assert "splittable under (K3, J4): 11813" in str(rep16)
    rep17 = verify_split_pipeline(17, archive_dir=str(tmp_path))
    assert "splittable under (K3, J4): 0" in str(rep17)
    report(9, "extended: 11813 splittable at order 16, none at 17", True)


@pytest.mark.extended
@pytest.mark.skipif(
    not os.environ.get("RAMSEYKIT_EXTENDED"),
    reason="extended gate (minutes of runtime): set RAMSEYKIT_EXTENDED=1",
)
def test_symmetry_breaking_keeps_the_pool_verdicts(checked_split, monkeypatch, tmp_path):
    rows = [line.split("\t") for line in HOSTS16.read_text(encoding="ascii").splitlines()]
    assert len(rows) == 108
    refuted = 0
    # the encoder's text and the splittable hosts' witnesses, byte for byte
    dimacs, witnesses = hashlib.sha256(), hashlib.sha256()
    for text, recorded, _ in rows:
        g = complement(parse_graph6(text))
        ok, _ = checked_split(g, K3, J4)  # proof-checks each refutation
        f = encode_split_cnf(g, K3, J4)
        dimacs.update(write_dimacs(f).encode())
        unbroken = sat_solve(f) is not None
        assert ok == unbroken == (recorded == "1"), text
        refuted += not ok
        if ok:
            witness = is_splittable(g, [K3, J4], engine="sat")[1]
            assert sorted(e for h in witness for e in h.edges()) == g.edges(), text
            assert not contains(witness[0], K3) and not contains(witness[1], J4), text
            composed = compose_coloring(parse_graph6(text), witness)
            assert coloring_is_valid(composed, [K3, K3, J4]).valid, text
            witnesses.update(witness_matrix(witness).encode())
    assert refuted == 100
    assert dimacs.hexdigest() == POOL_DIMACS_SHA256
    assert witnesses.hexdigest() == POOL_WITNESSES_SHA256
    enumerate_good(K3, J7, 10, emit_dir=str(tmp_path), jobs=JOBS)
    with_chains = str(verify_split_pipeline(10, archive_dir=str(tmp_path)))
    monkeypatch.setattr(split, "lex_leader_cnf", lambda f, perms: f)
    assert str(verify_split_pipeline(10, archive_dir=str(tmp_path))) == with_chains
