import hashlib
import random
from importlib import resources

import pytest

from ramseykit import targets
from ramseykit.canon import are_isomorphic
from ramseykit.coloring import EdgeColoring
from ramseykit.constructions import (
    clone_vertex,
    figure_coloring,
    is_strongly_regular,
    named_graph,
    schlafli,
    two_k3,
    verify_c51,
)
from ramseykit.detect import coloring_is_valid, contains, is_good
from ramseykit.graphs import Graph, complement

J4 = targets.clique_minus_edge(4)
J7 = targets.clique_minus_edge(7)
K3 = targets.clique(3)

ASSET_SHA256 = {
    "fig3.coloring": "eeb0c66c53d97d293487840779dbb9f5b86367f3e3c9b208dd2f19602fd6a66d",
    "fig4.coloring": "3f73b8206e25a2c6ae076dbfe1b789477c1c5c87e5516becb08d8adda31cd62d",
}


def test_figure_assets_are_unchanged():
    for name, digest in ASSET_SHA256.items():
        data = resources.files("ramseykit").joinpath("data", name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_schlafli_is_srg_27_10_1_5():
    g = schlafli()
    assert g.n == 27
    assert all(g.degree(v) == 10 for v in range(27))
    assert is_strongly_regular(g, 10, 1, 5)
    # derived oracle, spelled out: common neighborhoods of all pairs
    for u in range(27):
        for v in range(u + 1, 27):
            common = (g.adj[u] & g.adj[v]).bit_count()
            assert common == (1 if g.has_edge(u, v) else 5)


def test_schlafli_is_the_j4_j7_good_graph():
    g = schlafli()
    assert not contains(g, J4)
    assert not contains(complement(g), J7)
    assert is_good(g, J4, J7)


def test_figure_colorings_load_and_validate():
    fig3 = figure_coloring("FIG3")
    assert (fig3.n, fig3.m) == (20, 3)
    assert coloring_is_valid(fig3, [K3, J4, J4]).valid
    fig4 = figure_coloring("FIG4")
    assert (fig4.n, fig4.m) == (32, 3)
    assert coloring_is_valid(fig4, [J4, J4, targets.clique(4)]).valid


def test_figure_matrices_are_symmetric_with_zero_diagonal():
    # parsing enforces this; loading without error is the assertion
    for which in ("FIG3", "FIG4"):
        figure_coloring(which)
    with pytest.raises(ValueError):
        figure_coloring("FIG5")


def kite_coloring():
    """K3 coloring where vertices 0 and 1 agree everywhere else."""
    # colors: {0,1}=1, {0,2}={1,2}=0
    return EdgeColoring.from_function(3, 2, lambda u, v: 1 if (u, v) == (0, 1) else 0)


def test_clone_vertex_toy_example():
    c = kite_coloring()
    out = clone_vertex(c, 0, 1, 1)
    assert out.n == 4 and out.m == 2
    # the link color forms a triangle on {0, 1, z}
    assert out.color_of(0, 3) == 1
    assert out.color_of(1, 3) == 1
    assert out.color_of(0, 1) == 1
    assert out.color_of(2, 3) == c.color_of(0, 2)


def test_clone_then_delete_restores_original():
    rng = random.Random(2)
    n, m = 6, 3
    vals = [rng.randrange(m) for _ in range(n * (n - 1) // 2)]
    base = EdgeColoring(n, m, bytes(vals))

    # rewrite vertex 4's fan to copy vertex 1's so the pair is cloneable
    def fixed(u, v):
        if 4 in (u, v) and 1 not in (u, v):
            other = u if v == 4 else v
            return base.color_of(1, other)
        return base.color_of(u, v)

    c = EdgeColoring.from_function(n, m, fixed)
    grown = clone_vertex(c, 1, 4, 2)
    assert grown.n == n + 1
    assert grown.m == c.m
    assert all(grown.color_of(u, v) == c.color_of(u, v) for v in range(n) for u in range(v))


def test_clone_vertex_names_first_differing_vertex():
    c = EdgeColoring.from_function(
        3, 2, lambda u, v: 1 if (u, v) == (0, 2) else 0
    )
    with pytest.raises(ValueError, match="at vertex 2"):
        clone_vertex(c, 0, 1, 0)


def test_clone_vertex_validates_link_color():
    with pytest.raises(ValueError, match="link color"):
        clone_vertex(kite_coloring(), 0, 1, 2)


def test_verify_c51_flags_pendant_in_last_color():
    # a yellow triangle with a yellow pendant edge must fail
    n = 6
    def fn(u, v):
        if (u, v) in ((0, 1), (0, 2), (1, 2), (2, 3)):
            return 3
        return (u + v) % 3

    c = EdgeColoring.from_function(n, 4, fn)
    report = verify_c51(c)
    assert not report.valid and report.bad_color == 3


def test_verify_c51_small_analog_agrees_with_detect():
    from ramseykit.coloring import color_class

    rng = random.Random(8)
    tgt = [K3, K3, K3, targets.triangle_plus_pendant()]
    for _ in range(40):
        vals = bytes(rng.randrange(4) for _ in range(15))
        c = EdgeColoring(6, 4, vals)
        report = verify_c51(c)
        identity_ok = all(
            not contains(color_class(c, i), tgt[i]) for i in range(4)
        )
        assert report.valid == identity_ok


def test_verify_c51_reports_isolated_yellow_triangle():
    # (u+v) mod 3 has no monochromatic triangle on 6 vertices; overlay one
    # isolated triangle in the fourth color
    def fn(u, v):
        if (u, v) in ((0, 1), (0, 2), (1, 2)):
            return 3
        return (u + v) % 3

    c = EdgeColoring.from_function(6, 4, fn)
    report = verify_c51(c)
    assert report.valid
    assert report.last_color_triangles == (((0, 1, 2), True),)


def test_verify_c51_requires_four_colors():
    with pytest.raises(ValueError, match="4-coloring"):
        verify_c51(EdgeColoring(5, 2, bytes(10)))


def twin_pair_four_coloring():
    """6 vertices; 0 and 1 agree everywhere, first three colors K3-free."""

    def fn(u, v):
        if (u, v) == (0, 1):
            return 3
        if u in (0, 1):
            return v % 3
        return (u + v) % 3

    return EdgeColoring.from_function(6, 4, fn)


def test_find_clone_pair():
    from ramseykit.constructions import find_clone_pair

    assert find_clone_pair(twin_pair_four_coloring()) == (0, 1)
    fig3 = figure_coloring("FIG3")
    assert find_clone_pair(fig3) is None


def test_extend_by_clone_pipeline():
    from ramseykit.constructions import extend_by_clone

    grown, report = extend_by_clone(twin_pair_four_coloring(), link_color=3)
    assert grown.n == 7
    assert report.valid
    assert report.last_color_triangles == (((0, 1, 6), True),)


def test_extend_by_clone_needs_a_pair():
    from ramseykit.constructions import extend_by_clone

    with pytest.raises(ValueError, match="matching color fans"):
        extend_by_clone(
            EdgeColoring.from_function(4, 4, lambda u, v: (u + 2 * v) % 4)
        )


def test_named_graph_resolution():
    assert named_graph("SCHLAFLI").n == 27
    assert are_isomorphic(named_graph("2K3"), two_k3())
    assert named_graph("K5") == Graph.complete(5)
    assert named_graph("C6") == Graph.cycle(6)
    assert named_graph("J7").edge_count == 20
    with pytest.raises(ValueError):
        named_graph("Q17")
