"""Orderly enumeration of good graphs by one-vertex extension.

Goodness is hereditary under vertex deletion, so every good graph of order
n+1 arises from a good graph of order n by attaching one vertex. Starting
from K1 and extending one vertex at a time therefore visits every
isomorphism class; this file owns the extension step, the depth-first
walk of the census tree, the per-level statistics and the graph6 level
archives.

Extension is screened the same way for every pair of targets. ``detect``
lists the parent's critical sets for t1 and those of its complement for
t2: the minimal vertex sets that a new vertex joined to all of them turns
into a copy. A candidate neighborhood is then grown so that it contains
no t1 set, and kept when it meets every t2 set.

Each class is built once, along McKay's canonical construction path
(McKay 1998, "Isomorph-free exhaustive generation", J. Algorithms 26).
A parent extends by one neighborhood per orbit of its automorphism group,
and a child is kept only when its new vertex lies in the automorphism
orbit of its canonical deletion vertex: the vertex with the largest
(degree, sum of neighbour degrees), ties going to the lowest canonical
position. A child whose new vertex does not have the largest invariant is
dropped before it is built or labeled. For the rest, the child's degree
partition follows from the parent's and S, and refining it gives the
labeling search's root partition. The canonical deletion vertex lies in
the first root cell that holds a tie, and automorphisms fix root cells,
so a child whose new vertex is not in that cell is dropped before the
search; for the others, the labeling that gives the canonical key also
decides the orbit test. Both tests work in any labels, so a class travels
in the labels it was found in and is relabeled into canonical order once,
when the enumerator emits it, without validating the relabeled rows again.

A child inherits automorphisms: each parent generator that maps S onto
itself, extended to fix the new vertex, is one of the child's, and the
child's labeling search starts from them. When the new vertex's invariant
is larger than every old vertex's, it is the canonical deletion vertex,
so the child passes the deletion test without a labeling. Every
automorphism fixes that vertex, so Aut(child) is the stabiliser of S in
Aut(parent), and |Aut child| = |Aut parent| / |orbit of S|. A walk that
only counts therefore counts such children of its last order from S
alone, without building their rows.

Every class arises once, from its one parent on that path, so the census
is a tree and no level has to be held: one walk visits it depth first
from any roots. With several jobs the subtrees below the top levels go
to worker processes, as geng deals out its search tree (McKay & Piperno
2014, "Practical graph isomorphism, II", J. Symbolic Comput. 60).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

from .canon import canon_raw, orbit_closure, root_cells
from .detect import critical_sets
from .graph6 import emit_graph6
from .graphs import Graph, iter_bits, relabel_rows as relabel_canonical
from .targets import Target


@dataclass(frozen=True)
class LevelStats:
    order: int
    count: int
    min_edges: int | None
    max_edges: int | None

    @property
    def edge_range(self) -> str:
        if self.count == 0:
            return "-"
        if self.min_edges == self.max_edges:
            return str(self.min_edges)
        return f"{self.min_edges}-{self.max_edges}"


@dataclass
class EnumerationStats:
    t1: Target
    t2: Target
    levels: list[LevelStats]

    def as_tsv(self) -> str:
        lines = ["n\tcount\tedges"]
        for row in self.levels:
            lines.append(f"{row.order}\t{row.count}\t{row.edge_range}")
        return "\n".join(lines) + "\n"


def _extensions(
    adj: tuple[int, ...], n: int, t1: Target, t2: Target, least: int = 0
) -> Iterator[int]:
    """Neighborhood masks S of at least ``least`` vertices whose one-vertex
    extension stays (t1,t2)-good.

    S contains no t1 critical set of the parent and meets every t2 critical
    set of its complement. S grows by ascending vertices: a singleton set
    leaves the pool, a pair removes the partner, a larger set is checked
    when its highest vertex enters. A set whose pool cannot bring it to
    ``least`` vertices is not grown.
    """
    full = (1 << n) - 1
    comp_adj = [full ^ row ^ (1 << v) for v, row in enumerate(adj)]
    inside = critical_sets(adj, n, t1)
    meet = critical_sets(comp_adj, n, t2)
    if inside[:1] == [0] or meet[:1] == [0]:
        return  # the parent itself is not good
    pool = full
    partners = [0] * n
    larger: list[list[int]] = [[] for _ in range(n)]
    for w in inside:
        if w.bit_count() == 1:
            pool &= ~w
        elif w.bit_count() == 2:
            for a in iter_bits(w):
                partners[a] |= w ^ (1 << a)
        else:
            larger[w.bit_length() - 1].append(w)
    stack = [(pool, 0)]
    while stack:
        pool, cur = stack.pop()
        size = cur.bit_count() + 1  # of each set grown from cur
        if size > least:
            for w in meet:
                if not w & cur:
                    break
            else:
                yield cur
        for v in iter_bits(pool):
            low = 1 << v
            pool ^= low
            if size + pool.bit_count() < least:
                break  # the pool only shrinks along this loop
            s = cur | low
            for w in larger[v]:
                if w & s == w:
                    break
            else:
                grow = pool & ~partners[v]
                if size + grow.bit_count() >= least:
                    stack.append((grow, s))


def _orbit_min(s: int, gens: Sequence[tuple[int, ...]]) -> bool:
    """Is ``s`` the smallest mask in its orbit under the given automorphisms?"""
    if not gens:
        return True
    seen = {s}
    stack = [s]
    while stack:
        cur = stack.pop()
        for g in gens:
            img = 0
            for v in iter_bits(cur):
                img |= 1 << g[v]
            if img < s:
                return False
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return True


@dataclass(frozen=True)
class _ClassRec:
    """A class in the labels it was found in, with canon_raw's labeling and gens."""

    adj: tuple[int, ...]
    order: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]


def _canonical_graph(rec: _ClassRec) -> Graph:
    n = len(rec.adj)
    return Graph._unchecked(n, relabel_canonical(n, rec.adj, rec.order))


def _cycles(g: tuple[int, ...]) -> list[int]:
    """Masks of the cycles of ``g`` longer than one vertex. ``g`` maps a
    set onto itself exactly when the set is a union of its cycles."""
    out: list[int] = []
    seen = 0
    for v, w in enumerate(g):
        if w != v and not seen >> v & 1:
            cycle = 1 << v
            while w != v:
                cycle |= 1 << w
                w = g[w]
            out.append(cycle)
            seen |= cycle
    return out


def _new_vertex_ties(
    adj: tuple[int, ...],
    deg: list[int],
    nsum: list[int],
    by_deg: list[int],
    s: int,
) -> int | None:
    """Old vertices whose (degree, sum of neighbour degrees) in the child
    with neighborhood ``s`` equals the new vertex's; None if one is larger.

    ``deg`` and ``nsum`` are the parent's and ``by_deg[d]`` masks its
    vertices of degree d. No old vertex may have the larger child degree:
    |s| is at least the parent's largest degree, and no vertex of ``s`` has
    degree |s| in the parent.
    """
    k = s.bit_count()
    mine = k + sum(deg[v] for v in iter_bits(s))
    ties = 0
    # the old vertices of child degree k (for k = 0, s is empty)
    for v in iter_bits((by_deg[k - 1] & s) | (by_deg[k] & ~s)):
        inv = nsum[v] + (adj[v] & s).bit_count() + (k if (s >> v) & 1 else 0)
        if inv > mine:
            return None
        if inv == mine:
            ties |= 1 << v
    return ties


def _children(
    rec: _ClassRec, t1: Target, t2: Target, tally: Counter[tuple[int, int]] | None = None
) -> list[tuple[bytes, _ClassRec]]:
    """The (key, record) of each child of one class on the canonical path.

    No two share a class. Each S kept is least in its orbit under the
    parent's automorphism group, which ``canon_raw``'s generators generate
    whole; isomorphic children passing the deletion test have S in one orbit.
    The parent's generators that map S onto itself, fixing the new vertex,
    are automorphisms of the child, and its labeling starts from them.

    With a walk's ``tally``, a child whose new vertex ties with no old
    vertex passes the deletion test unlabeled (see the module docstring):
    it is not built, and is counted in ``tally`` under (order, edges).
    """
    adj = rec.adj
    n = len(adj)
    bit = 1 << n
    deg = [row.bit_count() for row in adj]
    edges = sum(deg) // 2
    nsum = [sum(deg[u] for u in iter_bits(row)) for row in adj]
    by_deg = [0] * (n + 1)
    for v, d in enumerate(deg):
        by_deg[d] |= 1 << v
    # each generator, fixing the new vertex, with its cycles
    lifted = [(g + (n,), _cycles(g)) for g in rec.gens]
    out = []
    for s in _extensions(adj, n, t1, t2, max(deg)):
        k = s.bit_count()
        if by_deg[k] & s:
            continue  # an old vertex has the larger degree
        ties = _new_vertex_ties(adj, deg, nsum, by_deg, s)
        if ties is None or not _orbit_min(s, rec.gens):
            continue
        if tally is not None and not ties:
            tally[n + 1, edges + k] += 1
            continue
        child = tuple(
            (row | bit) if (s >> v) & 1 else row for v, row in enumerate(adj)
        ) + (s,)
        # the child's degree classes: the new vertex's degree k is the largest,
        # and by_deg[-1] is by_deg[n], which is empty
        parts = [p for d in range(k) if (p := (by_deg[d] & ~s) | (by_deg[d - 1] & s))]
        parts.append(by_deg[k] | (by_deg[k - 1] & s) | bit)
        cells = root_cells(child, parts)
        if ties and not next(c for c in cells if c & (ties | bit)) & bit:
            continue  # the canonical deletion vertex lies in the first cell meeting the ties
        known = [g for g, cycles in lifted if all(s & c in (0, c) for c in cycles)]
        key, order, gens = canon_raw(n + 1, child, cells, known)
        if ties:
            # canonical deletion vertex: the tie at the lowest position
            m = next(v for v in order if (ties | bit) >> v & 1)
            if m != n and n not in orbit_closure([m], gens):
                continue
        out.append((key, _ClassRec(child, order, tuple(gens))))
    return out


def extend_level(level: Sequence[Graph], t1: Target, t2: Target) -> list[Graph]:
    """Good isomorphism classes one order up, sorted by canonical key.

    ``level`` must be a duplicate-free subset of the complete list of good
    classes at some order. The output is exactly the classes one order up
    whose canonical parent (the child less its canonical deletion vertex)
    lies in that subset: the whole level gives the whole next level, and
    disjoint chunks of it give disjoint parts of the next level.
    """
    out: list[tuple[bytes, _ClassRec]] = []
    for g in level:
        _, order, gens = canon_raw(g.n, g.adj)
        out += _children(_ClassRec(g.adj, order, tuple(gens)), t1, t2)
    out.sort(key=lambda item: item[0])
    return [_canonical_graph(rec) for _, rec in out]


def _walk(
    roots: Sequence[_ClassRec], t1: Target, t2: Target, n_max: int, emit: bool
) -> tuple[Counter[tuple[int, int]], dict[int, list[str]]]:
    """Tallies of ``roots`` and every class below them, down to order ``n_max``.

    The first counts classes per (order, edges); the second holds each
    class's graph6 line per order, only when ``emit``. The walk keeps one
    stack of the classes still to visit, not a level. Without ``emit``,
    ``_children`` counts tie-free children of order ``n_max`` unbuilt.
    """
    tally: Counter[tuple[int, int]] = Counter()
    graphs: dict[int, list[str]] = {}
    stack = list(roots)
    while stack:
        rec = stack.pop()
        n = len(rec.adj)
        tally[n, sum(row.bit_count() for row in rec.adj) // 2] += 1
        if emit:
            graphs.setdefault(n, []).append(emit_graph6(_canonical_graph(rec)))
        if n < n_max:
            counted = None if emit or n + 1 < n_max else tally
            stack += [child for _, child in _children(rec, t1, t2, counted)]
    return tally, graphs


def enumerate_good(
    t1: Target,
    t2: Target,
    n_max: int,
    emit_dir: str | None = None,
    jobs: int = 1,
) -> EnumerationStats:
    """Level statistics for all (t1,t2)-good graphs of orders 1..n_max.

    The census tree is walked depth first from K1, so memory grows with
    the depth of the tree, not with the size of a level. With ``emit_dir``
    each level is archived as one graph6 file, sorted by canonical key;
    until the files are written, one graph6 line per class is held.
    Levels past the Ramsey number stay empty and cost nothing. With
    ``jobs`` > 1 the levels are tallied and expanded from K1 until one
    holds at least 16 × ``jobs`` classes; the subtrees below that level
    are dealt to worker processes as they free up. The result does not
    depend on the worker count.
    """
    stats = EnumerationStats(t1, t2, [])
    if n_max < 1:
        return stats
    walk = partial(_walk, t1=t1, t2=t2, emit=emit_dir is not None)

    def walks() -> Iterator[tuple[Counter[tuple[int, int]], dict[int, list[str]]]]:
        parts, split = [_ClassRec((0,), (0,), ())], 1
        while jobs > 1 and len(parts) < 16 * jobs and split < n_max:
            yield walk(parts, n_max=split)  # this level alone
            parts = [child for rec in parts for _, child in _children(rec, t1, t2)]
            split += 1
        if jobs <= 1 or len(parts) < 16 * jobs:
            yield walk(parts, n_max=n_max)
        else:
            import multiprocessing as mp

            with mp.Pool(jobs) as pool:
                yield from pool.imap_unordered(partial(walk, n_max=n_max), [[p] for p in parts])

    results = walks()
    tally, graphs = next(results)  # every run walks at least once
    for part, part_graphs in results:
        tally.update(part)
        for n, lines in part_graphs.items():
            graphs.setdefault(n, []).extend(lines)
    for order in range(1, n_max + 1):
        edges = [e for n, e in tally if n == order]
        count = sum(tally[order, e] for e in edges)
        low, high = min(edges, default=None), max(edges, default=None)
        stats.levels.append(LevelStats(order, count, low, high))
        if emit_dir is not None:
            _write_archive(emit_dir, t1, t2, order, graphs.pop(order, []))
    return stats


def archive_filename(t1: Target, t2: Target, order: int) -> str:
    return f"good_{t1.token}_{t2.token}_n{order}.g6"


def _write_archive(
    emit_dir: str, t1: Target, t2: Target, order: int, lines: list[str]
) -> None:
    os.makedirs(emit_dir, exist_ok=True)
    path = os.path.join(emit_dir, archive_filename(t1, t2, order))
    lines.sort()  # a canonical graph's graph6 packs its key's bits in key order
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(g6 + "\n" for g6 in lines)
