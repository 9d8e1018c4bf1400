"""Named graphs and coloring transformations: the Schläfli graph, vertex
cloning for 4-color triangle colorings, and the embedded figure data.

The Schläfli graph is built from the classical incidence pattern of the
27 lines on a cubic surface (a double six a1..a6, b1..b6 plus the lines
c_ij): a_i meets b_j for i != j, a_i and b_i meet c_jk when i is in
{j, k}, and two c-lines meet when their index pairs are disjoint. The
meeting relation is itself the 10-regular side; its strong regularity is
enforced by tests rather than trusted from the transcription.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations

from .coloring import EdgeColoring, color_class, parse_coloring_matrix
from .detect import coloring_is_valid, list_copies
from .graphs import Graph
from .targets import clique, parse_target, triangle_plus_pendant

FIG3 = "FIG3"
FIG4 = "FIG4"


def schlafli() -> Graph:
    """The strongly regular graph on the 27 lines, 10-regular with
    lambda=1 and mu=5."""
    labels: list[tuple] = [("a", i) for i in range(6)] + [("b", i) for i in range(6)]
    labels += [("c", i, j) for i, j in combinations(range(6), 2)]

    def meets(x: tuple, y: tuple) -> bool:
        if x[0] == "a" and y[0] == "a":
            return False
        if x[0] == "b" and y[0] == "b":
            return False
        if {x[0], y[0]} == {"a", "b"}:
            return x[1] != y[1]
        if x[0] in "ab" and y[0] == "c":
            return x[1] in y[1:]
        if y[0] in "ab" and x[0] == "c":
            return y[1] in x[1:]
        return not (set(x[1:]) & set(y[1:]))

    edges = [
        (i, j)
        for i, j in combinations(range(27), 2)
        if meets(labels[i], labels[j])
    ]
    return Graph.from_edges(27, edges)


def is_strongly_regular(g: Graph, k: int, lam: int, mu: int) -> bool:
    """Check degree k plus common-neighbor counts lambda/mu for all pairs."""
    if any(g.degree(v) != k for v in range(g.n)):
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = (g.adj[u] & g.adj[v]).bit_count()
            if common != (lam if g.has_edge(u, v) else mu):
                return False
    return True


def _first_difference(c: EdgeColoring, x: int, y: int) -> int | None:
    """The first vertex other than x and y that they see in different colors."""
    for v in range(c.n):
        if v != x and v != y and c.color_of(x, v) != c.color_of(y, v):
            return v
    return None


def clone_vertex(c: EdgeColoring, x: int, y: int, link_color: int) -> EdgeColoring:
    """Add a vertex z wired like the twins x and y, linked to both in
    ``link_color``.

    Requires x and y to see every other vertex in identical colors; the
    clone z then copies that fan, and the edges {x,z} and {y,z} take
    ``link_color``.
    """
    if x == y or not (0 <= x < c.n and 0 <= y < c.n):
        raise ValueError("x and y must be distinct existing vertices")
    if not 0 <= link_color < c.m:
        raise ValueError(f"link color {link_color} outside 0..{c.m - 1}")
    v = _first_difference(c, x, y)
    if v is not None:
        raise ValueError(
            f"vertices {x} and {y} disagree at vertex {v}: "
            f"{c.color_of(x, v)} vs {c.color_of(y, v)}"
        )
    z = c.n

    def fn(u: int, v: int) -> int:
        if v == z:
            u, v = v, u
        if u == z:
            return link_color if v in (x, y) else c.color_of(x, v)
        return c.color_of(u, v)

    return EdgeColoring.from_function(c.n + 1, c.m, fn)


@dataclass(frozen=True)
class TriangleReport:
    """Validation of a (K3,K3,K3,K3+e)-style coloring.

    ``last_color_triangles`` lists every monochromatic triangle in the last
    color with a flag telling whether it is isolated there (no fourth
    vertex attached to it by an edge of that color).
    """

    valid: bool
    n: int
    bad_color: int | None
    last_color_triangles: tuple[tuple[tuple[int, int, int], bool], ...]


def verify_c51(c: EdgeColoring) -> TriangleReport:
    """Validate a 4-coloring as a (K3,K3,K3,K3+e)-coloring, color i against
    target i: colors 0-2 must avoid K3 and the last color K3+e. When
    colors 0-2 pass, the report lists the last color's triangles."""
    if c.m != 4:
        raise ValueError(f"expected a 4-coloring, got m={c.m}")
    tri = clique(3)
    verdict = coloring_is_valid(c, [tri, tri, tri, triangle_plus_pendant()])
    bad = verdict.witness_color
    if bad is not None and bad < 3:
        return TriangleReport(False, c.n, bad, ())
    last = color_class(c, 3)
    triangles = []
    found = list_copies(last, tri)
    for copy in found.copies:
        verts = tuple(sorted({v for e in found.copy_edges(copy) for v in e}))
        pend = any(
            last.adj[v] & ~sum(1 << w for w in verts) for v in verts
        )
        triangles.append((verts, not pend))
    return TriangleReport(verdict.valid, c.n, bad, tuple(triangles))


def find_clone_pair(c: EdgeColoring) -> tuple[int, int] | None:
    """First vertex pair whose color fans agree at every other vertex."""
    for x in range(c.n):
        for y in range(x + 1, c.n):
            if _first_difference(c, x, y) is None:
                return x, y
    return None


def extend_by_clone(
    c: EdgeColoring,
    x: int | None = None,
    y: int | None = None,
    link_color: int = 3,
) -> tuple[EdgeColoring, TriangleReport]:
    """Clone a twin pair of a 4-coloring and validate the grown coloring.

    Intended for growing a 50-vertex coloring whose first three colors
    avoid K3 into a 51-vertex one whose last color tolerates only isolated
    triangles. Without explicit x and y the first cloneable pair is used.
    """
    if (x is None) != (y is None):
        raise ValueError("x and y must be given together")
    if x is None:
        pair = find_clone_pair(c)
        if pair is None:
            raise ValueError("no vertex pair with matching color fans")
        x, y = pair
    grown = clone_vertex(c, x, y, link_color)
    return grown, verify_c51(grown)


def figure_coloring(which: str) -> EdgeColoring:
    """The embedded 20-vertex (FIG3) or 32-vertex (FIG4) matrix."""
    names = {FIG3: "fig3.coloring", FIG4: "fig4.coloring"}
    if which not in names:
        raise ValueError(f"unknown figure id {which!r}")
    text = resources.files("ramseykit").joinpath("data", names[which]).read_text()
    return parse_coloring_matrix(text)


def two_k3() -> Graph:
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def named_graph(token: str) -> Graph:
    """Resolve SCHLAFLI, 2K3, or any target token to a concrete graph."""
    name = token.strip().upper()
    if name == "SCHLAFLI":
        return schlafli()
    if name == "2K3":
        return two_k3()
    return parse_target(token.strip()).pattern()
