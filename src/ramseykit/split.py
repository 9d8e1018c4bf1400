"""Splittability and arrowing decisions, plus coloring composition.

A graph is splittable with respect to a target list when its edges can be
partitioned so color i avoids target i; it arrows the targets otherwise.
Two independent engines decide the two-color case: a reduction to CNF
(one Boolean variable per edge, one clause per forbidden copy) solved by
the embedded SAT procedure, and a recursive edge colorer that extends a
partial coloring one edge at a time. More than two colors always use the
recursive engine. Both take copies as :mod:`detect` gives them: edge-index
bitmasks over ``g.edges()``, whose bit i is SAT variable i + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coloring import EdgeColoring
from .detect import list_copies
from .graphs import Graph, complement, iter_bits
from .sat import CnfFormula, sat_solve
from .targets import Target

Edge = tuple[int, int]


@dataclass(frozen=True)
class SplitWitness:
    """Total assignment of a host's edges to colors 0..m-1."""

    n: int
    m: int
    colors: tuple[tuple[Edge, int], ...]

    def as_dict(self) -> dict[Edge, int]:
        return dict(self.colors)

    def color_graph(self, i: int) -> Graph:
        return Graph.from_edges(self.n, [e for e, c in self.colors if c == i])


def encode_split_cnf(g: Graph, t_false: Target, t_true: Target) -> CnfFormula:
    """CNF satisfiable exactly when ``g`` splits into (t_false, t_true).

    Edges are variables, variable v being ``g.edges()[v-1]``; False plays
    color 1 and True color 2. Each copy of ``t_false`` contributes an
    all-positive clause (some edge must leave color 1) and each copy of
    ``t_true`` an all-negative one.
    """
    if g.edge_count == 0:
        raise ValueError("cannot encode an edgeless graph")
    found = list_copies(g, t_false)
    clauses = [tuple(i + 1 for i in iter_bits(cp)) for cp in found.copies]
    for cp in list_copies(g, t_true).copies:
        clauses.append(tuple(-1 - i for i in iter_bits(cp)))
    return CnfFormula(len(found.edges), clauses, found.edges)


def _witness_from_model(g: Graph, model: Sequence[bool], f: CnfFormula) -> SplitWitness:
    return SplitWitness(g.n, 2, tuple((e, int(x)) for e, x in zip(f.edges, model)))


def recursive_split(g: Graph, targets: Sequence[Target]) -> SplitWitness | None:
    """Backtracking edge colorer; None exactly when ``g`` arrows the targets.

    Copies of each target are precomputed with per-copy counters, so
    coloring an edge only touches the copies through it. A copy that is one
    edge short of completion forbids its color on that last edge (forward
    checking); the search always colors the edge with the fewest surviving
    colors next, ties by index, and breaks the color symmetry of repeated
    targets by first use.
    """
    if not 1 <= len(targets) <= 4:
        raise ValueError("between 1 and 4 targets required")
    edges = g.edges()
    m = len(targets)
    if not edges:
        return SplitWitness(g.n, m, ())
    ecount = len(edges)

    copies = [[list(iter_bits(cp)) for cp in list_copies(g, t).copies] for t in targets]
    sizes = [[len(cp) for cp in cs] for cs in copies]
    same = [[0] * len(cs) for cs in copies]
    dead = [[0] * len(cs) for cs in copies]
    by_edge: list[list[list[int]]] = [
        [[] for _ in range(ecount)] for _ in range(m)
    ]
    for c in range(m):
        for ci, cp in enumerate(copies[c]):
            for e in cp:
                by_edge[c][e].append(ci)

    assigned = [-1] * ecount
    # forbid[e][c]: live copies of target c needing only edge e to complete
    forbid = [[0] * m for _ in range(ecount)]
    used = [0] * m  # edges currently carrying each color
    same_target_as_prev = [
        c > 0 and targets[c] == targets[c - 1] for c in range(m)
    ]

    def last_open_edge(c: int, ci: int) -> int:
        for e in copies[c][ci]:
            if assigned[e] < 0:
                return e
        raise AssertionError("no open edge in a nearly complete copy")

    def place(e: int, color: int) -> bool:
        assigned[e] = color
        used[color] += 1
        ok = True
        for ci in by_edge[color][e]:
            same[color][ci] += 1
            if dead[color][ci] == 0:
                filled = same[color][ci]
                if filled == sizes[color][ci]:
                    ok = False
                elif filled == sizes[color][ci] - 1:
                    forbid[last_open_edge(color, ci)][color] += 1
        for c in range(m):
            if c != color:
                for ci in by_edge[c][e]:
                    if dead[c][ci] == 0 and same[c][ci] == sizes[c][ci] - 1:
                        forbid[e][c] -= 1  # this copy was watching e
                    dead[c][ci] += 1
        return ok

    def unplace(e: int, color: int) -> None:
        for c in range(m):
            if c != color:
                for ci in by_edge[c][e]:
                    dead[c][ci] -= 1
                    if dead[c][ci] == 0 and same[c][ci] == sizes[c][ci] - 1:
                        forbid[e][c] += 1
        for ci in by_edge[color][e]:
            if dead[color][ci] == 0 and same[color][ci] == sizes[color][ci] - 1:
                forbid[last_open_edge(color, ci)][color] -= 1
            same[color][ci] -= 1
        assigned[e] = -1
        used[color] -= 1

    def rec(colored: int) -> bool:
        if colored == ecount:
            return True
        pick = -1
        pick_domain = m + 1
        for e in range(ecount):
            if assigned[e] >= 0:
                continue
            width = sum(1 for c in range(m) if forbid[e][c] == 0)
            if width == 0:
                return False
            if width < pick_domain:
                pick, pick_domain = e, width
                if width == 1:
                    break
        for color in range(m):
            if forbid[pick][color]:
                continue
            if same_target_as_prev[color] and used[color - 1] == 0:
                continue  # identical targets: use colors in first-use order
            if place(pick, color):
                if rec(colored + 1):
                    return True
            unplace(pick, color)
        return False

    if not rec(0):
        return None
    return SplitWitness(g.n, m, tuple(zip(edges, assigned)))


def is_splittable(
    g: Graph,
    targets: Sequence[Target],
    engine: str = "auto",
    max_conflicts: int | None = None,
) -> tuple[bool, SplitWitness | None]:
    """Decide splittability; returns (verdict, witness or None).

    Two targets may use either engine ("sat", "recurse", or "both" to
    cross-check agreement); more colors always recurse.
    """
    if engine not in ("auto", "sat", "recurse", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    if len(targets) != 2 or g.edge_count == 0:
        if engine in ("sat", "both") and len(targets) != 2:
            raise ValueError("the SAT engine handles exactly two targets")
        w = recursive_split(g, targets)
        return (w is not None), w
    if engine == "recurse":
        w = recursive_split(g, targets)
        return (w is not None), w
    f = encode_split_cnf(g, targets[0], targets[1])
    model = sat_solve(f, max_conflicts=max_conflicts)
    witness = None if model is None else _witness_from_model(g, model, f)
    if engine == "both":
        other = recursive_split(g, targets)
        if (other is None) != (model is None):
            raise RuntimeError("SAT and recursive engines disagree")
    return (model is not None), witness


def arrows(
    g: Graph,
    targets: Sequence[Target],
    engine: str = "auto",
    max_conflicts: int | None = None,
) -> bool:
    """Does every coloring of E(g) produce some target in its color?"""
    return not is_splittable(g, targets, engine, max_conflicts)[0]


def witness_matrix(witness: SplitWitness) -> str:
    """Square matrix for a witness: colors as 1..m, zero where the host has
    no edge (and on the diagonal). For complete hosts this is exactly the
    coloring-matrix format."""
    wit = witness.as_dict()
    lines = []
    for u in range(witness.n):
        row = []
        for v in range(witness.n):
            if u == v:
                row.append("0")
            else:
                e = (u, v) if u < v else (v, u)
                row.append(str(wit[e] + 1) if e in wit else "0")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def compose_coloring(red: Graph, witness: SplitWitness) -> EdgeColoring:
    """Merge a red graph with a witness split of its complement.

    Color 0 takes the red edges; witness colors shift up by one. The
    witness must cover exactly the complement's edges.
    """
    comp_edges = set(complement(red).edges())
    wit = witness.as_dict()
    if witness.n != red.n or set(wit) != comp_edges:
        missing = sorted(comp_edges - set(wit))
        extra = sorted(set(wit) - comp_edges)
        raise ValueError(
            f"witness does not match the complement (missing {missing[:3]}, "
            f"extra {extra[:3]})"
        )

    def fn(u: int, v: int) -> int:
        if red.has_edge(u, v):
            return 0
        return wit[(u, v) if u < v else (v, u)] + 1

    return EdgeColoring.from_function(red.n, witness.m + 1, fn)
