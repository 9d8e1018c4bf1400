import hashlib
import random

import pytest

from oracles import (
    brute_models,
    brute_splittable_2,
    brute_splittable_m,
    naive_copies,
    permutes_clauses,
    random_graph,
    satisfies,
)
from ramseykit import targets
from ramseykit.canon import canonical_form
from ramseykit.coloring import color_class
from ramseykit.constructions import schlafli
from ramseykit.detect import coloring_is_valid, contains, list_copies
from ramseykit.enumeration import extend_level
from ramseykit.graph6 import parse_graph6
from ramseykit.graphs import Graph, complement, iter_bits, relabel_rows
from ramseykit.sat import BudgetExceededError, CnfFormula, sat_solve
from ramseykit.split import (
    CHAIN_LENGTH,
    compose_coloring,
    degree_order,
    edge_automorphisms,
    encode_split_cnf,
    is_splittable,
    lex_leader_cnf,
    recursive_split,
)
from test_sat import SPLIT_HOST, UNSPLIT_HOST

K3 = targets.clique(3)
K4 = targets.clique(4)
J4 = targets.clique_minus_edge(4)
J7 = targets.clique_minus_edge(7)
K3E = targets.triangle_plus_pendant()
C4 = targets.cycle(4)
MISMATCH = "witness does not match the complement: "


def j7_graph():
    return J7.pattern()


def assert_partition(g, witness):
    """The classes are graphs on g's vertices whose edge sets partition g's."""
    assert all(h.n == g.n for h in witness)
    edges = [e for h in witness for e in h.edges()]
    assert sorted(edges) == g.edges()


def test_encode_counts_for_k4():
    f = encode_split_cnf(Graph.complete(4), K3, J4)
    assert f.var_count == 6
    assert len(f.clauses) == 4 + 6
    positive = [c for c in f.clauses if all(l > 0 for l in c)]
    negative = [c for c in f.clauses if all(l < 0 for l in c)]
    assert len(positive) == 4 and len(negative) == 6


def test_encode_clause_count_equals_copy_counts():
    rng = random.Random(77)
    for _ in range(20):
        g = random_graph(rng, 7, 0.6)
        if g.edge_count == 0:
            continue
        f = encode_split_cnf(g, K3, J4)
        expect = len(list_copies(g, K3)) + len(list_copies(g, J4))
        assert len(f.clauses) == expect


def test_encode_clauses_match_oracle_order():
    # variable v is g.edges()[v-1]; t1 copies come first as positive
    # clauses, then t2 copies negated, each in lexicographic edge order
    rng = random.Random(2024)
    pairs = [(K3, J4), (K3E, J4), (targets.cycle(4), K3), (J4, targets.cycle(5))]
    checked = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 7), rng.random())
        if g.edge_count == 0:
            continue
        var = {e: i + 1 for i, e in enumerate(g.edges())}
        for t1, t2 in pairs:
            expect = [tuple(var[e] for e in cp) for cp in sorted(naive_copies(g, t1))]
            expect += [tuple(-var[e] for e in cp) for cp in sorted(naive_copies(g, t2))]
            f = encode_split_cnf(g, t1, t2)
            assert f.clauses == expect, (g.adj, t1, t2)
            assert f.edges == tuple(g.edges())
            checked += len(expect)
    assert checked > 0


def test_encode_triangle_is_satisfiable_two_clauses():
    f = encode_split_cnf(Graph.complete(3), K3, K3)
    assert f.var_count == 3 and len(f.clauses) == 2
    assert sat_solve(f) is not None


def test_encode_rejects_edgeless_graph():
    with pytest.raises(ValueError):
        encode_split_cnf(Graph.empty(4), K3, K3)


def test_k5_splits_for_triangles_but_k6_does_not():
    assert sat_solve(encode_split_cnf(Graph.complete(5), K3, K3)) is not None
    assert sat_solve(encode_split_cnf(Graph.complete(6), K3, K3)) is None


def test_j7_arrows_k3e_j4_by_sat():
    assert sat_solve(encode_split_cnf(j7_graph(), K3E, J4)) is None


def test_recursive_split_finds_triangle_free_split_of_k5():
    witness = recursive_split(Graph.complete(5), [K3, K3])
    assert witness is not None and len(witness) == 2
    assert_partition(Graph.complete(5), witness)
    for half in witness:
        assert not contains(half, K3)


def test_recursive_split_detects_arrowing():
    assert recursive_split(j7_graph(), [K3E, J4]) is None
    assert recursive_split(Graph.complete(6), [K3, K3]) is None


def test_recursive_split_three_colors():
    witness = recursive_split(Graph.complete(10), [K3, K3, K3])
    assert witness is not None and len(witness) == 3
    assert_partition(Graph.complete(10), witness)
    for h in witness:
        assert not contains(h, K3)


def test_recursive_split_search_path_is_pinned():
    # sha256 of a text of every result: pins the colorer's edge order, color
    # order and first-use rule, so witnesses stay the same byte for byte.
    # The text spells each witness as its host edges in order, each with its
    # class, in the form the digest was first taken over, so the pin holds.
    pool: list[Graph] = []
    for t1, t2 in [(K3, J7), (K3E, J4)]:
        level = [Graph.empty(1)]
        pool.extend(level)
        for _ in range(5):
            level = extend_level(level, t1, t2)
            pool.extend(level)
    pairs = [(K3, K3), (K3, J4), (K3E, J4), (J4, J4), (K3, K4), (K4, J4)]
    cases = [(g, [t1, t2]) for g in pool if 0 < g.edge_count <= 15 for t1, t2 in pairs]
    cases += [
        (Graph.complete(10), [K3, K3, K3]),
        (Graph.complete(13), [K3, K3, K3]),
        (j7_graph(), [K3E, J4]),
        (complement(Graph.cycle(5)), [K3, K3]),
        (Graph.complete(8), [C4, C4, K3, K3]),
    ]
    results = [recursive_split(g, ts) for g, ts in cases]
    assert len(results) == 485 and results[482] is None

    def text(w):
        if w is None:
            return "None"
        colors = tuple(sorted((e, i) for i, h in enumerate(w) for e in h.edges()))
        return f"SplitWitness(n={w[0].n}, m={len(w)}, colors={colors!r})"

    for (g, _), w in zip(cases, results):
        if w is not None:
            assert_partition(g, w)
    digest = hashlib.sha256(f"[{', '.join(map(text, results))}]".encode()).hexdigest()
    assert digest == "f6f81b0b0fe04bc958c0375b37702f93334150888ab8dddec199a40c4d5fd52b"


def test_recursive_split_handles_over_a_thousand_edges():
    # one stack frame per colored edge: K_{32,32} has 1,024 edges, past
    # what one Python call per edge allows
    host = Graph.from_edges(64, [(a, b) for a in range(32) for b in range(32, 64)])
    ok, witness = is_splittable(host, [K3, K3, K3])
    assert ok
    assert_partition(host, witness)
    # the complement, two disjoint K32, holds no K33
    composed = compose_coloring(complement(host), witness)
    assert coloring_is_valid(composed, [targets.clique(33), K3, K3, K3]).valid


def test_recursive_split_rejects_bad_target_count():
    with pytest.raises(ValueError):
        recursive_split(Graph.complete(3), [])


def test_is_splittable_engines_agree_with_oracle():
    rng = random.Random(13)
    pairs = [(K3, J4), (K3, K3), (K3E, J4), (J4, J4)]
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 8), 0.45)
        if g.edge_count == 0 or g.edge_count > 15:
            continue
        for t1, t2 in pairs:
            expect = brute_splittable_2(g, t1, t2)
            got_sat, w_sat = is_splittable(g, [t1, t2], engine="sat")
            got_rec, w_rec = is_splittable(g, [t1, t2], engine="recurse")
            assert got_sat == got_rec == expect
            for w in (w_sat, w_rec):
                if w is not None:
                    assert_partition(g, w)
                    assert not contains(w[0], t1)
                    assert not contains(w[1], t2)


def test_is_splittable_multicolor_matches_oracle():
    # three and four colors, both verdicts, and every witness checked
    rng = random.Random(3)
    menu = [targets.clique(2), K3, C4, K3E, J4]
    seen = set()
    for _ in range(120):
        m = rng.choice((3, 4))
        g = random_graph(rng, rng.randint(4, 6), 0.75)
        if g.edge_count == 0 or g.edge_count > (8 if m == 3 else 7):
            continue
        ts = [rng.choice(menu) for _ in range(m)]
        got, witness = is_splittable(g, ts)
        assert got == brute_splittable_m(g, ts), (g.adj, ts)
        assert (witness is not None) == got
        if witness is not None:
            assert len(witness) == m
            assert_partition(g, witness)
            for h, t in zip(witness, ts):
                assert not contains(h, t)
        seen.add((m, got))
    assert seen == {(3, True), (3, False), (4, True), (4, False)}


def test_engine_both_cross_checks():
    ok, witness = is_splittable(Graph.complete(5), [K3, K3], engine="both")
    assert ok and witness is not None
    ok, witness = is_splittable(j7_graph(), [K3E, J4], engine="both")
    assert not ok and witness is None


def test_recursive_split_counts_each_backtrack_as_a_conflict():
    # refuting K6 -> (K3, K3) backtracks out of an edge 36 times, the last
    # time at the root; one fewer conflict is an overrun, as in sat_solve
    with pytest.raises(BudgetExceededError, match="^conflict budget 35 exhausted$"):
        recursive_split(Graph.complete(6), [K3, K3], max_conflicts=35)
    assert recursive_split(Graph.complete(6), [K3, K3], max_conflicts=36) is None


@pytest.mark.parametrize("engine", ["auto", "sat", "recurse", "both"])
def test_budget_overrun_is_unknown_for_every_engine(engine):
    assert is_splittable(j7_graph(), [K3E, J4], engine, max_conflicts=1) == (None, None)
    # a budget the engine meets gives the verdict and witness of no budget
    for g, ts in [(j7_graph(), [K3E, J4]), (Graph.complete(5), [K3, K3]), (schlafli(), [J4, J4])]:
        assert is_splittable(g, ts, engine, max_conflicts=10**6) == is_splittable(g, ts, engine)


def test_edgeless_graph_is_trivially_splittable():
    ok, witness = is_splittable(Graph.empty(3), [K3, K3])
    assert ok and witness == (Graph.empty(3), Graph.empty(3))


def test_arrows_examples():
    # g arrows the targets exactly when it is not splittable
    assert not is_splittable(Graph.complete(6), [K3, K3])[0]
    assert not is_splittable(j7_graph(), [K3, J4])[0]
    assert not is_splittable(j7_graph(), [K3E, J4])[0]
    assert is_splittable(Graph.complete(5), [K3, K3])[0]
    # too few vertices to hold any target
    assert is_splittable(Graph.complete(2), [K3, K3])[0]


def test_compose_coloring_from_c5():
    red = Graph.cycle(5)
    witness = recursive_split(complement(red), [K3, K3])
    assert witness is not None
    c = compose_coloring(red, witness)
    assert c.m == 3
    assert color_class(c, 0) == red
    assert coloring_is_valid(c, [K3, K3, K3]).valid


def test_compose_coloring_rejects_domain_mismatch():
    red = Graph.cycle(5)
    # a red edge in a class, and the complement's pairs uncovered
    bad = (Graph.from_edges(5, [(0, 1)]), Graph.empty(5))
    with pytest.raises(ValueError, match=MISMATCH + "two classes share a pair"):
        compose_coloring(red, bad)
    # one complement pair left out of the classes
    good = recursive_split(complement(red), [K3, K3])
    with pytest.raises(ValueError, match=MISMATCH + "a pair lies in no class"):
        compose_coloring(red, (Graph.from_edges(5, good[0].edges()[1:]), good[1]))
    # the right classes on one vertex too many
    wide = tuple(Graph(6, h.adj + (0,)) for h in good)
    with pytest.raises(ValueError, match=MISMATCH + "a class on 6 vertices, not 5"):
        compose_coloring(red, wide)


def test_compose_coloring_rejects_overlapping_classes():
    # every complement pair is covered, but one lies in both classes
    red = Graph.cycle(5)
    good = recursive_split(complement(red), [K3, K3])
    u, v = good[0].edges()[0]
    both = Graph.from_edges(5, good[1].edges() + [(u, v)])
    with pytest.raises(ValueError, match=MISMATCH + "two classes share a pair"):
        compose_coloring(red, (good[0], both))


def test_fig3_sources_from_the_20_vertex_good_graph():
    # color 1 of the embedded 20-vertex matrix is the complement of a
    # (J7,K3;20)-good graph; the other two colors witness its (J4,J4) split
    from ramseykit.constructions import figure_coloring
    from ramseykit.detect import is_good

    fig3 = figure_coloring("FIG3")
    red = color_class(fig3, 0)
    host = complement(red)
    assert is_good(host, J7, K3)
    ok, witness = is_splittable(host, [J4, J4])
    assert ok and witness is not None
    composed = compose_coloring(red, witness)
    assert coloring_is_valid(composed, [K3, J4, J4]).valid


def test_witness_matrix_of_complete_host_is_a_coloring():
    from ramseykit.coloring import parse_coloring_matrix
    from ramseykit.split import witness_matrix

    witness = recursive_split(Graph.complete(5), [K3, K3])
    text = witness_matrix(witness)
    c = parse_coloring_matrix(text)
    assert c.n == 5 and c.m == 2


def test_witness_matrix_marks_non_edges():
    from ramseykit.split import witness_matrix

    witness = recursive_split(Graph.cycle(4), [K3, K3])
    rows = witness_matrix(witness).splitlines()
    # the two diagonals of C4 are non-edges
    assert rows[0].split()[2] == "0"
    assert rows[1].split()[3] == "0"


def test_split_pipeline_toy_level():
    # split each 5-vertex good graph's complement and recompose
    level = [Graph.empty(1)]
    for _ in range(4):
        level = extend_level(level, K3, J7)
    assert len(level) == 14
    for f in level:
        g = complement(f)
        ok, witness = is_splittable(g, [K3, J4])
        assert ok  # everything splits this far below the threshold
        c = compose_coloring(f, witness)
        assert coloring_is_valid(c, [K3, K3, J4]).valid


def test_edge_automorphisms_map_the_copy_clauses_onto_themselves():
    rng = random.Random("edge-automorphisms")
    pairs = [(K3, J4), (K3, K3), (C4, K3E)]
    hosts = [(complement(schlafli()), pairs[:1]), (Graph.complete(5), pairs), (j7_graph(), pairs)]
    hosts += [(random_graph(rng, rng.randint(4, 8), rng.random()), pairs) for _ in range(30)]
    broken = 0
    for g, host_pairs in hosts:
        if g.edge_count == 0:
            continue
        for t1, t2 in host_pairs:
            f = encode_split_cnf(g, t1, t2)
            perms = edge_automorphisms(g, f.edges)
            assert permutes_clauses(f.clauses, perms), (g.adj, t1, t2)
            broken += len(perms)
    assert broken > 100


def test_permutes_clauses_rejects_a_non_automorphism():
    g = complement(schlafli())
    f = encode_split_cnf(g, K3, J4)
    real = edge_automorphisms(g, f.edges)[0]
    assert permutes_clauses(f.clauses, [real])
    swap = list(range(f.var_count))
    swap[0], swap[1] = 1, 0  # two edges of the first triangle; no automorphism
    assert not permutes_clauses(f.clauses, [tuple(swap)])
    assert not permutes_clauses(f.clauses, [real, tuple(real[i] for i in swap)])
    assert not permutes_clauses(f.clauses, [(0,) * f.var_count])


def test_lex_leader_chains_admit_exactly_the_lex_leaders():
    # projected onto the first n variables, the models of the chains are the
    # x with x <= x o perm on the first CHAIN_LENGTH moved positions, for
    # every perm; f's own clauses stay first and untouched
    rng = random.Random("lex-leader")
    base = [(1, 2), (-2, -3)]
    for _ in range(60):
        n = rng.randint(3, 8)
        perms = []
        for _ in range(rng.randint(1, 2)):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(tuple(perm))
        broken = lex_leader_cnf(CnfFormula(n, base), perms)
        assert broken.clauses[:2] == base and not broken.edges
        got = {int(x) & ((1 << n) - 1) for x in brute_models(broken.var_count, broken.clauses)}
        expect = set()
        for x in range(1 << n):
            bit = [x >> i & 1 for i in range(n)]
            if not (bit[0] or bit[1]) or (bit[1] and bit[2]):
                continue
            if all(
                [bit[i] for i in moved] <= [bit[p[i]] for i in moved]
                for p in perms
                for moved in [[i for i in range(n) if p[i] != i][:CHAIN_LENGTH]]
            ):
                expect.add(x)
        assert got == expect, perms


def test_lex_leader_rejects_a_permutation_index_outside_the_edges():
    f = CnfFormula(6, [(1, 2), (-2, -3)])
    lex_leader_cnf(f, [(1, 0, 3, 2, 5, 4)])
    # far out, into the range of the chain's own variables, negative, and
    # one position short or long
    for perm in [
        (99, 0, 3, 2, 5, 4),
        (1, 0, 3, 2, 40, 5),
        (0, 1, 2, 3, 4, 40),
        (7, 0, 3, 2, 5, 4),
        (-2, 0, 3, 2, 5, 4),
        (1, 0, 3, 2, 4),
        (1, 0, 3, 2, 5, 4, 6),
    ]:
        with pytest.raises(ValueError):
            lex_leader_cnf(f, [perm])


def test_breaking_leaves_witnesses_models_of_the_unbroken_formula():
    for g, ts in [(Graph.complete(5), [K3, K3]), (complement(schlafli()), [J4, J4])]:
        f = encode_split_cnf(g, *ts)
        assert edge_automorphisms(g, f.edges)
        ok, witness = is_splittable(g, ts, engine="sat")
        assert ok
        assert_partition(g, witness)
        assert satisfies([witness[1].has_edge(*e) for e in f.edges], f.clauses)


def test_degree_order_renumbers_by_descending_degree_keys():
    rng = random.Random("degree-order")
    hosts = [complement(parse_graph6(SPLIT_HOST)), complement(schlafli()), j7_graph()]
    hosts += [Graph.empty(0), Graph.empty(3), Graph.cycle(5)]
    hosts += [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(40)]
    for g in hosts:
        order, h = degree_order(g)
        assert sorted(order) == list(range(g.n))
        assert Graph(h.n, h.adj) == h  # the rows pass the full check
        assert h.edge_count == g.edge_count
        assert all(g.has_edge(order[a], order[b]) for a, b in h.edges())
        assert canonical_form(h) == canonical_form(g)
        keys = [(h.degree(v), sum(h.degree(u) for u in iter_bits(h.adj[v]))) for v in range(h.n)]
        assert keys == sorted(keys, reverse=True), g.adj
        # ties keep the caller's label order
        assert all(order[i] < order[i + 1] for i in range(g.n - 1) if keys[i] == keys[i + 1])


@pytest.mark.parametrize("seed", range(3))
def test_sat_witnesses_stay_in_the_callers_labels(seed):
    rng = random.Random(f"relabeled-hosts-{seed}")
    for text, splits in ((SPLIT_HOST, True), (UNSPLIT_HOST, False)):
        red = parse_graph6(text)
        perm = list(range(red.n))
        rng.shuffle(perm)
        red = Graph(red.n, relabel_rows(red.n, red.adj, perm))
        g = complement(red)
        ok, witness = is_splittable(g, [K3, J4], engine="sat")
        assert ok == splits, (text, perm)
        if ok:
            assert_partition(g, witness)
            assert not contains(witness[0], K3) and not contains(witness[1], J4)
            assert coloring_is_valid(compose_coloring(red, witness), [K3, K3, J4]).valid
        else:
            assert witness is None
