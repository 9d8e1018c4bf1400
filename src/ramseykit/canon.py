"""Canonical labeling and isomorphism testing for small graphs.

The canonical form is the lexicographically minimal adjacency bitstring
over an individualization-refinement search tree. Vertices are placed one
position at a time; placing position k reveals the k bits joining it to
earlier positions (one "column"), so the string grows column by column and
branches that compare worse than the best known leaf are cut immediately.
Leaves that tie with the best labeling yield automorphisms, which prune
sibling branches through their orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, iter_bits, relabel_rows


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Split cells by neighbor counts against queued splitter masks."""
    qi = 0
    while qi < len(queue):
        splitter = queue[qi]
        qi += 1
        out: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                key = (adj[v] & splitter).bit_count()
                groups[key] = groups.get(key, 0) | low
            if len(groups) == 1:
                out.append(cell)
            else:
                for key in sorted(groups):
                    sub = groups[key]
                    out.append(sub)
                    queue.append(sub)
        cells = out
    return cells


class _Search:
    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self.placed: list[int] = []
        self.cols: list[int] = []
        self.best_cols: list[int] | None = None
        self.best_perm: tuple[int, ...] | None = None
        self.gens: list[tuple[int, ...]] = []
        self.best_epoch = 0

    def run(self) -> None:
        full = (1 << self.n) - 1
        cells = _refine(self.adj, [full], [full])
        self._rec(cells, False)

    def _column(self, v: int) -> int:
        row = self.adj[v]
        col = 0
        for u in self.placed:
            col = (col << 1) | ((row >> u) & 1)
        return col

    def _fixing_generators(self) -> list[tuple[int, ...]]:
        placed = self.placed
        return [g for g in self.gens if all(g[u] == u for u in placed)]

    def _rec(self, cells: list[int], tight: bool) -> None:
        if not cells:
            self._leaf(tight)
            return
        cell = cells[0]
        singleton = cell & (cell - 1) == 0
        if singleton:
            members = [cell.bit_length() - 1]
        else:
            members = sorted(iter_bits(cell), key=lambda v: (self._column(v), v))
        explored: list[int] = []
        for v in members:
            if explored and v in orbit_closure(explored, self._fixing_generators()):
                continue
            child = self._enter(v, tight)
            if child is None:
                break  # columns ascend, so the remaining candidates are worse
            epoch = self.best_epoch
            self.placed.append(v)
            self.cols.append(self._column_value)
            if singleton:
                self._rec(cells[1:], child)
            else:
                rest = cell ^ (1 << v)
                self._rec(_refine(self.adj, [rest] + cells[1:], [1 << v]), child)
            self.placed.pop()
            self.cols.pop()
            if self.best_epoch != epoch:
                tight = True  # the new best extends this node's prefix
            explored.append(v)

    def _enter(self, v: int, tight: bool) -> bool | None:
        """Compare v's column against the best leaf; None means prune."""
        col = self._column(v)
        self._column_value = col
        if self.best_cols is None or not tight:
            return False
        k = len(self.placed)
        ref = self.best_cols[k]
        if col > ref:
            return None
        return col == ref

    def _leaf(self, tight: bool) -> None:
        if self.best_cols is not None and tight:
            # equal strings: the position map is an automorphism
            perm = self.best_perm
            assert perm is not None
            sigma = [0] * self.n
            for i, v in enumerate(self.placed):
                sigma[perm[i]] = v
            self.gens.append(tuple(sigma))
            return
        self.best_cols = list(self.cols)
        self.best_perm = tuple(self.placed)
        self.best_epoch += 1


def orbit_closure(start: list[int], gens: Sequence[tuple[int, ...]]) -> set[int]:
    """The vertices that products of ``gens`` map some vertex of ``start`` to."""
    seen = set(start)
    if not gens:
        return seen
    stack = list(start)
    while stack:
        u = stack.pop()
        for g in gens:
            w = g[u]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _pack_key(n: int, cols: list[int]) -> bytes:
    acc = 0
    bits = 0
    for j in range(1, n):
        acc = (acc << j) | cols[j]
        bits += j
    pad = (-bits) % 8
    return bytes([n]) + (acc << pad).to_bytes((bits + pad) // 8, "big")


def canon_raw(n: int, adj: tuple[int, ...]):
    """Canonical key, labeling and automorphism generators for raw bitsets.

    Returns ``(key, order, gens)`` where ``order[i]`` is the original vertex
    placed at canonical position i and ``gens`` are automorphisms expressed
    over the original labels.
    """
    if n == 0:
        return bytes([0]), (), []
    search = _Search(n, adj)
    search.run()
    assert search.best_cols is not None and search.best_perm is not None
    key = _pack_key(n, search.best_cols)
    return key, search.best_perm, search.gens


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant key: equal exactly for isomorphic graphs."""

    key: bytes
    order: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]


def canonical_labeling(g: Graph) -> CanonicalForm:
    key, order, gens = canon_raw(g.n, g.adj)
    return CanonicalForm(key, order, tuple(gens))


def canonical_form(g: Graph) -> bytes:
    return canon_raw(g.n, g.adj)[0]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# rows with canonical position i as vertex i, given canon_raw's ``order``
relabel_canonical = relabel_rows
