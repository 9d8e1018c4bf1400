import hashlib
import random

import pytest

from oracles import naive_copies, random_graph, with_vertex
from ramseykit import anneal, targets
from ramseykit.anneal import (
    AnnealParams,
    AnnealResult,
    anneal_search,
    count_copies_with_edge,
)
from ramseykit.coloring import EdgeColoring, color_class, emit_coloring_matrix
from ramseykit.constructions import figure_coloring
from ramseykit.detect import coloring_is_valid
from ramseykit.graphs import Graph

K3 = targets.clique(3)
K4 = targets.clique(4)
J4 = targets.clique_minus_edge(4)
J5 = targets.clique_minus_edge(5)
J6 = targets.clique_minus_edge(6)
J7 = targets.clique_minus_edge(7)
K5 = targets.clique(5)


def test_params_validation():
    with pytest.raises(ValueError):
        AnnealParams(initial_temperature=0.0)
    with pytest.raises(ValueError):
        AnnealParams(cooling=1.0)


@pytest.mark.parametrize("field", ["restarts", "sweeps_per_temperature"])
def test_params_reject_no_restarts_or_sweeps(field):
    with pytest.raises(ValueError):
        AnnealParams(**{field: 0})
    with pytest.raises(ValueError):
        AnnealParams(**{field: -1})
    assert getattr(AnnealParams(**{field: 1}), field) == 1


def energy(c, ts):
    """Copies of target i in color class i, summed over i, by brute force."""
    assert len(ts) == c.m
    return sum(len(naive_copies(color_class(c, i), t)) for i, t in enumerate(ts))


def test_energy_of_figure4_is_zero():
    c = figure_coloring("FIG4")
    assert energy(c, [J4, J4, K4]) == 0


def test_energy_of_monochromatic_triangle():
    assert energy(EdgeColoring(3, 1, bytes(3)), [K3]) == 1


def test_every_two_coloring_of_k6_has_energy():
    rng = random.Random(4)
    for _ in range(30):
        vals = bytes(rng.randrange(2) for _ in range(15))
        c = EdgeColoring(6, 2, vals)
        assert energy(c, [K3, K3]) >= 1


def count_with_edge_oracle(c, i, t, u, v):
    g = color_class(c, i)
    e = (u, v) if u < v else (v, u)
    return sum(1 for copy in naive_copies(g, t) if e in copy)


@pytest.mark.parametrize(
    "t",
    [
        K3,
        K4,
        J4,
        targets.triangle_plus_pendant(),
        targets.clique_minus_p3(5),
        targets.cycle(5),
        targets.clique_minus_edge(5),
        targets.clique_minus_edge(6),
        targets.clique_minus_p3(4),
        targets.clique_minus_p3(6),
        targets.cycle(3),
        targets.cycle(4),
        targets.cycle(6),
    ],
)
def test_edge_copy_counts_match_naive_recount(t):
    rng = random.Random(hash(t.token) & 0xFFFF)
    for _ in range(8):
        n = rng.randint(max(4, t.order), 8)
        m = 2
        vals = bytes(rng.randrange(m) for _ in range(n * (n - 1) // 2))
        c = EdgeColoring(n, m, vals)
        for i in range(m):
            g = color_class(c, i)
            for u, v in g.edges():
                got = count_copies_with_edge(list(g.adj), n, t, u, v)
                assert got == count_with_edge_oracle(c, i, t, u, v)


def edge_counts_match_naive(g, t):
    copies = naive_copies(g, t)
    for u, v in g.edges():
        expect = sum(1 for copy in copies if (u, v) in copy)
        assert count_copies_with_edge(list(g.adj), g.n, t, u, v) == expect, (g.adj, t, u, v)
    return len(copies)


@pytest.mark.parametrize("t", [K3, J4, J5, J6, J7, K5])
def test_edge_copy_counts_on_empty_full_and_deep_walks(t):
    # C empty: every edge of a complete bipartite graph, and a pendant edge
    # next to a clique
    bipartite = Graph.from_edges(7, [(u, v) for u in range(3) for v in range(3, 7)])
    assert edge_counts_match_naive(bipartite, t) == 0
    edge_counts_match_naive(with_vertex(Graph.complete(7), 0b1), t)
    # a complete color class: C is every other vertex
    assert edge_counts_match_naive(Graph.complete(8), t) > 0
    # dense random hosts, where the J5, J6 and J7 walks go below one loop
    # over C (J7 holds three frames on the stack); at this density a J7
    # needs 10 vertices or more to be there at all
    rng = random.Random(t.k)
    for n in (10, 11) if t == J7 else (9, 10, 11):
        assert edge_counts_match_naive(random_graph(rng, n, 0.8), t) > 0


def test_energy_delta_matches_recount_after_recolor():
    # move an edge between classes and compare incremental vs full energy
    rng = random.Random(55)
    tgt = [K3, J4, K3]
    for _ in range(12):
        n = rng.randint(5, 12)
        vals = bytearray(rng.randrange(3) for _ in range(n * (n - 1) // 2))
        c = EdgeColoring(n, 3, bytes(vals))
        before = energy(c, tgt)
        idx = rng.randrange(len(vals))
        pairs = [(u, v) for v in range(n) for u in range(v)]
        u, v = pairs[idx]
        old = vals[idx]
        new = (old + 1 + rng.randrange(2)) % 3
        g_old = color_class(c, old)
        delta = -count_copies_with_edge(list(g_old.adj), n, tgt[old], u, v)
        vals[idx] = new
        c2 = EdgeColoring(n, 3, bytes(vals))
        g_new = color_class(c2, new)
        delta += count_copies_with_edge(list(g_new.adj), n, tgt[new], u, v)
        assert energy(c2, tgt) == before + delta


def test_anneal_finds_the_c5_split():
    result = anneal_search(5, [K3, K3])
    assert result.success and result.best_energy == 0
    assert coloring_is_valid(result.coloring, [K3, K3]).valid


def test_anneal_returns_none_on_k6():
    result = anneal_search(6, [K3, K3])
    assert not result.success
    assert result.coloring is None
    assert result.best_energy >= 1


def test_anneal_three_triangle_colors_at_14():
    result = anneal_search(14, [K3, K3, K3])
    assert result.success
    assert coloring_is_valid(result.coloring, [K3, K3, K3]).valid


def test_same_seed_same_output_bytes():
    a = anneal_search(5, [K3, K3], AnnealParams(seed=42))
    b = anneal_search(5, [K3, K3], AnnealParams(seed=42))
    assert a.coloring == b.coloring
    assert emit_coloring_matrix(a.coloring) == emit_coloring_matrix(b.coloring)


def test_different_seeds_allowed_to_differ():
    a = anneal_search(5, [K3, K3], AnnealParams(seed=1))
    b = anneal_search(5, [K3, K3], AnnealParams(seed=2))
    assert a.success and b.success  # both must still validate


def test_trivial_host_succeeds_immediately():
    result = anneal_search(1, [K3])
    assert result.success and result.best_energy == 0


Twin = random.Random


@pytest.fixture
def made(monkeypatch):
    """Every generator the search makes, kept so that a test can compare
    its state with a twin's: ``random.Random`` is patched to record them."""
    made = []

    class Kept(Twin):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Kept)
    return made


def test_one_color_search_makes_no_moves(monkeypatch, made):
    scored = []
    monkeypatch.setattr(anneal, "count_copies_with_edge", lambda *a: scored.append(a))
    result = anneal_search(20, [K3], AnnealParams(restarts=5))
    assert result == AnnealResult(None, 1140, 5)  # C(20, 3) triangles
    # one restart's coloring, 190 draws below 1, and no move
    twin = Twin(anneal._restart_seed(0, 0))
    for _ in range(190):
        twin.randrange(1)
    assert len(made) == 1 and made[0].getstate() == twin.getstate()
    assert scored == []
    result = anneal_search(2, [K3], AnnealParams(restarts=5))
    assert result.success and result.restarts_used == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_initial_colors_follow_randrange(monkeypatch, made, m):
    """Each restart's initial coloring is what ``Random.randrange(m)`` gives
    on a twin generator, edge by edge, and the draws leave the generator in
    the twin's state."""

    class Drawn(Exception):
        pass

    counted = []

    def count(masks, size, t):
        counted.append(list(masks))
        if len(counted) == m:  # every color's mask is in: stop before a move
            raise Drawn
        return 1

    monkeypatch.setattr(anneal, "count_copies", count)
    n = 20
    pairs = [(u, v) for v in range(n) for u in range(v)]  # the search's edge order
    for seed in (0, 1, 7, 2024):
        made.clear()
        counted.clear()
        with pytest.raises(Drawn):
            anneal_search(n, [K3] * m, AnnealParams(restarts=1, seed=seed))
        twin = Twin(anneal._restart_seed(seed, 0))
        expect = [twin.randrange(m) for _ in pairs]
        got = [next(c for c in range(m) if counted[c][v] >> u & 1) for u, v in pairs]
        assert got == expect
        assert len(made) == 1 and made[0].getstate() == twin.getstate()


# Edge bounds 1, 3, 190, 435 and 2016 (n = 2, 3, 20, 30, 64) and color
# bounds 1, 2 and 3 (m = 2, 3, 4)
DRAW_CASES = [(2, 2), (3, 3), (20, 4), (30, 2), (64, 3), (64, 4)]


@pytest.mark.parametrize("n, m", DRAW_CASES)
def test_move_draws_follow_randrange(monkeypatch, made, n, m):
    """Each move's edge and new color are what ``Random.randrange`` gives on
    a twin generator, and the search leaves its generator in the twin's
    state."""
    moves = []

    def scored(masks, size, t, u, v):
        moves.append((t, u, v))
        return 0  # every move is taken, without a Metropolis draw

    monkeypatch.setattr(anneal, "count_copies_with_edge", scored)
    # every edge is a copy of K2, so the energy stays positive; distinct
    # target objects tell the colors apart
    tgts = [targets.clique(2) for _ in range(m)]
    color = {id(t): i for i, t in enumerate(tgts)}
    edges = [(u, v) for v in range(n) for u in range(v)]  # the search's edge order
    index = {e: i for i, e in enumerate(edges)}
    for seed in (0, 1, 7, 2024):
        made.clear()
        moves.clear()
        one_sweep = AnnealParams(1.0, cooling=0.5, restarts=1, seed=seed, min_temperature=0.6)
        anneal_search(n, tgts, one_sweep)
        twin = Twin(anneal._restart_seed(seed, 0))
        colors = [twin.randrange(m) for _ in edges]
        assert len(moves) == 2 * len(edges)
        for (t_old, u, v), (t_new, *edge) in zip(moves[::2], moves[1::2]):
            ei = index[u, v]
            assert edge == [u, v] and ei == twin.randrange(len(edges))
            old, new = color[id(t_old)], color[id(t_new)]
            assert old == colors[ei] and new - (new > old) == twin.randrange(m - 1)
            colors[ei] = new
        assert len(made) == 1 and made[0].getstate() == twin.getstate()


# Seeded runs pinned by digest: per case, sha256 over the five seeds of
# repr((best_energy, restarts_used, coloring bytes or b"")). Any change to
# the RNG call sequence, the Metropolis arithmetic or a move count shows here.
PIN_SEEDS = (0, 3, 11, 17, 29)
PIN_CASES = [
    (2, "K3", dict(restarts=2), "0fec00d817a8dde2"),
    (5, "K3", dict(restarts=3), "ec7b07cb5c838dda"),
    (6, "C4", dict(restarts=2), "e3fd241f6443317d"),
    (5, "K3,K3", dict(restarts=4, cooling=0.9), "db3464a843bab34b"),
    (6, "K3,K3", dict(restarts=3, cooling=0.9), "2ac4629fc6d8577d"),
    (8, "K3,J4", dict(restarts=3, cooling=0.6), "b6814749e7b92d13"),
    (9, "J4,J4", dict(restarts=4, cooling=0.8), "1d8150fd81d36f88"),
    (10, "J4,J4", dict(restarts=2, cooling=0.9), "a882869cc1369fa5"),
    (8, "K3e,J4", dict(restarts=3, cooling=0.6), "7d097acf0501f296"),
    (10, "C6,C6", dict(restarts=3, cooling=0.6), "c2799594b5aa4ac3"),
    (10, "C4,C4,C4", dict(restarts=4, cooling=0.8), "18bf293cfae79502"),
    (11, "K3,C4,C4", dict(restarts=4, cooling=0.8), "234b11359961df4c"),
    (12, "K3e,K3,C5", dict(restarts=3, cooling=0.6), "80a65c07d535618c"),
    (14, "K3,K3,K3", dict(restarts=5, cooling=0.9), "d5be2db9dd38efdb"),
    (16, "K3,J4,C4,K3e", dict(restarts=3, cooling=0.8), "179deb1c041e6373"),
    (10, "K4,J5,K3,C6", dict(restarts=2, cooling=0.9), "d837a6022aad6ec1"),
    (
        24,
        "K3,K3,K3,K3",
        dict(restarts=3, cooling=0.5, initial_temperature=1.0, min_temperature=0.2),
        "1ae2f2e3dbf74daa",
    ),
    (8, "K3,K3", dict(restarts=2, cooling=0.7, sweeps_per_temperature=3), "08b8d5e4a9850356"),
]


@pytest.mark.parametrize("n, tokens, kw, digest", PIN_CASES)
def test_seeded_search_path_is_pinned(n, tokens, kw, digest):
    tgts = targets.parse_target_list(tokens)
    h = hashlib.sha256()
    for seed in PIN_SEEDS:
        r = anneal_search(n, tgts, AnnealParams(seed=seed, **kw))
        colors = r.coloring.colors if r.coloring is not None else b""
        h.update(repr((r.best_energy, r.restarts_used, colors)).encode())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("colors", [1, 2, 3])
def test_tiny_hosts_succeed_at_restart_zero(n, colors):
    result = anneal_search(n, [K3] * colors, AnnealParams(seed=5))
    assert (result.success, result.best_energy, result.restarts_used) == (True, 0, 1)
