"""Canonical labeling and isomorphism testing for small graphs.

The canonical form is the lexicographically minimal adjacency bitstring
over an individualization-refinement search tree. Vertices are placed one
position at a time; placing position k reveals the k bits joining it to
earlier positions (one "column"), so the string grows column by column and
branches that compare worse than the best known leaf are cut immediately.
Leaves that tie with the best labeling yield automorphisms, which prune
sibling branches through their orbits. Twin swaps (two vertices with equal
open or equal closed neighbourhoods) are automorphisms that the adjacency
rows show directly, so they seed the generators before the search starts,
as do automorphisms the caller already knows (the enumerator knows those
a child inherits from its parent). Together with the automorphisms the
leaves find, they generate the whole automorphism group. Pruning by known
automorphisms only skips images of branches already searched, so the
first smallest leaf, which gives the key and the labeling, is the same
whichever automorphisms are known.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, iter_bits


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Split cells by neighbor counts against queued splitter masks.

    The parts of a split cell go in ascending count, and all but the last
    join the queue. The callers pass the whole vertex set as its own
    splitter, the degree partition that this splitter yields with all its
    parts but the last, or an equitable partition less one vertex v with
    {v} as the splitter. In each case, by the last part's turn every cell
    has one count towards the split cell and towards each other part,
    hence towards the last part too, which would split nothing. A
    one-vertex splitter cuts each cell into its non-neighbours and
    neighbours, and the cell list is copied only once a cell splits.
    Refinement stops once every cell is a singleton.
    """
    size = sum(cells).bit_count()  # the cells are disjoint
    qi = 0
    while qi < len(queue) and len(cells) < size:
        splitter = queue[qi]
        qi += 1
        if splitter & (splitter - 1) == 0:
            row = adj[splitter.bit_length() - 1]
            for i, cell in enumerate(cells):
                if cell & row and cell & ~row:
                    break
            else:
                continue
            out = cells[:i]
            for cell in cells[i:]:
                inside = cell & row
                if inside and inside != cell:
                    out += (cell ^ inside, inside)
                    queue.append(cell ^ inside)
                else:
                    out.append(cell)
            cells = out
            continue
        out = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            groups: dict[int, int] = {}
            for v in iter_bits(cell):
                key = (adj[v] & splitter).bit_count()
                groups[key] = groups.get(key, 0) | 1 << v
            if len(groups) == 1:
                out.append(cell)
            else:
                parts = [groups[key] for key in sorted(groups)]
                out += parts
                queue += parts[:-1]
        cells = out
    return cells


def _twin_swaps(adj: tuple[int, ...], mask: int) -> list[tuple[int, ...]]:
    """Transpositions of each twin in ``mask`` with the first vertex of its
    twin class.

    False twins have equal open neighbourhoods, true twins equal closed
    ones; swapping two twins fixes every row, so each swap is an
    automorphism. Automorphisms fix each root cell, so twins share one, and
    ``mask`` need only hold the root cells of more than one vertex.
    """
    n = len(adj)
    first_open: dict[int, int] = {}
    first_closed: dict[int, int] = {}
    swaps = []
    for v in iter_bits(mask):
        row = adj[v]
        u = first_open.setdefault(row, v)
        if u == v:
            u = first_closed.setdefault(row | 1 << v, v)
        if u != v:
            sigma = list(range(n))
            sigma[u], sigma[v] = v, u
            swaps.append(tuple(sigma))
    return swaps


class _Search:
    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self.placed: list[int] = []
        self.cols: list[int] = []
        self.best_cols: list[int] = []
        self.best_perm: tuple[int, ...] | None = None
        self.gens: list[tuple[int, ...]] = []
        self.supports: list[int] = []  # the vertices each generator moves
        self.best_epoch = 0

    def run(self, cells: list[int] | None, known: Sequence[tuple[int, ...]]) -> None:
        if cells is None:
            full = (1 << self.n) - 1
            cells = _refine(self.adj, [full], [full])
        if len(cells) < self.n:  # else the root is the one leaf, and only the identity fixes it
            shared = 0
            for cell in cells:
                if cell & (cell - 1):
                    shared |= cell
            # a known generator may repeat a twin swap, or be the identity
            for g in dict.fromkeys(_twin_swaps(self.adj, shared) + list(known)):
                support = 0
                for u, w in enumerate(g):
                    if u != w:
                        support |= 1 << u
                if support:
                    self.gens.append(g)
                    self.supports.append(support)
        self._rec(cells, False, 0)

    def _column(self, v: int) -> int:
        row = self.adj[v]
        col = 0
        for u in self.placed:
            col = (col << 1) | ((row >> u) & 1)
        return col

    def _rec(self, cells: list[int], tight: bool, prefix: int) -> None:
        """Search below a node whose unplaced vertices form ``cells``.

        ``tight`` says the placed prefix equals the best leaf's, and
        ``prefix`` masks the placed vertices. Leading singleton cells have
        one child each and are placed in a loop; the first larger cell
        branches on its members by ascending column.
        """
        placed, cols, best_cols = self.placed, self.cols, self.best_cols
        depth = len(placed)
        for k, cell in enumerate(cells):
            if cell & (cell - 1):
                self._branch(cell, cells[k + 1 :], tight, prefix)
                break
            v = cell.bit_length() - 1
            col = self._column(v)
            if tight:
                ref = best_cols[len(placed)]
                if col > ref:
                    break
                tight = col == ref
            placed.append(v)
            cols.append(col)
            prefix |= cell
        else:
            self._leaf(tight)
        del placed[depth:], cols[depth:]

    def _branch(self, cell: int, rest: list[int], tight: bool, prefix: int) -> None:
        placed, cols, gens, supports = self.placed, self.cols, self.gens, self.supports
        k = len(placed)
        fixing: list[tuple[int, ...]] = []  # the generators fixing the prefix
        orbit: set[int] = set()  # the explored candidates' images under ``fixing``
        seen = 0
        for col, v in sorted((self._column(v), v) for v in iter_bits(cell)):
            if orbit:
                if seen < len(gens):
                    new = [g for g, m in zip(gens[seen:], supports[seen:]) if not m & prefix]
                    seen = len(gens)
                    if new:
                        fixing += new
                        orbit = orbit_closure(orbit, fixing)
                if v in orbit:
                    continue
            child = False
            if tight:
                ref = self.best_cols[k]
                if col > ref:
                    break  # columns ascend, so the remaining candidates are worse
                child = col == ref
            epoch = self.best_epoch
            placed.append(v)
            cols.append(col)
            low = 1 << v
            self._rec(_refine(self.adj, [cell ^ low] + rest, [low]), child, prefix | low)
            placed.pop()
            cols.pop()
            if self.best_epoch != epoch:
                tight = True  # the new best extends this node's prefix
            if fixing:
                orbit |= orbit_closure([v], fixing)
            else:
                orbit.add(v)

    def _leaf(self, tight: bool) -> None:
        if tight:
            # equal strings: the position map is an automorphism
            perm = self.best_perm
            assert perm is not None
            sigma = [0] * self.n
            support = 0
            for u, v in zip(perm, self.placed):
                sigma[u] = v
                if u != v:
                    support |= 1 << u
            self.gens.append(tuple(sigma))
            self.supports.append(support)
            return
        self.best_cols = list(self.cols)
        self.best_perm = tuple(self.placed)
        self.best_epoch += 1


def orbit_closure(start: Iterable[int], gens: Sequence[tuple[int, ...]]) -> set[int]:
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


def root_cells(adj: tuple[int, ...], parts: list[int]) -> list[int]:
    """The root partition of ``canon_raw``'s search, from the degree partition.

    ``parts`` are the nonempty degree classes in ascending degree, the
    first split of the whole vertex set against itself. Automorphisms fix
    each root cell, and every labeling places the cells in order.
    """
    return _refine(adj, parts, parts[:-1])


def canon_raw(
    n: int,
    adj: tuple[int, ...],
    cells: list[int] | None = None,
    known: Sequence[tuple[int, ...]] = (),
):
    """Canonical key, labeling and automorphism generators for raw bitsets.

    Returns ``(key, order, gens)`` where ``order[i]`` is the original vertex
    placed at canonical position i and ``gens``, over the original labels,
    generate the automorphism group: the twin transpositions seeded before
    the search, then ``known``, then the automorphisms its leaves found.
    ``cells``, when given, must be ``root_cells`` of the graph; the search
    starts from them instead of refining its root again, and returns the
    same result. ``known`` are automorphisms the caller already has; they
    prune the search from its start, with repeats and the identity dropped.
    The key and the labeling do not depend on them, and with ``known``
    empty neither do the generators.
    """
    if n == 0:
        return bytes([0]), (), []
    search = _Search(n, adj)
    search.run(cells, known)
    assert search.best_perm is not None
    key = _pack_key(n, search.best_cols)
    return key, search.best_perm, search.gens


def canonical_form(g: Graph) -> bytes:
    return canon_raw(g.n, g.adj)[0]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)
