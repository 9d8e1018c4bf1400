import random

import pytest

from oracles import naive_copies
from ramseykit import targets
from ramseykit.anneal import (
    AnnealParams,
    anneal_search,
    count_copies_with_edge,
    energy,
)
from ramseykit.coloring import EdgeColoring, color_class, emit_coloring_matrix
from ramseykit.constructions import figure_coloring
from ramseykit.detect import coloring_is_valid

K3 = targets.clique(3)
K4 = targets.clique(4)
J4 = targets.clique_minus_edge(4)


def test_params_validation():
    with pytest.raises(ValueError):
        AnnealParams(initial_temperature=0.0)
    with pytest.raises(ValueError):
        AnnealParams(cooling=1.0)


def test_energy_of_figure4_is_zero():
    c = figure_coloring("FIG4")
    assert energy(c, [J4, J4, K4]) == 0


def test_energy_of_monochromatic_triangle():
    assert energy(EdgeColoring.constant(3), [K3]) == 1


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
