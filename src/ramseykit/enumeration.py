"""Orderly enumeration of good graphs by one-vertex extension.

Goodness is hereditary under vertex deletion, so every good graph of order
n+1 arises from a good graph of order n by attaching one vertex. Starting
from K1 and extending level by level therefore visits every isomorphism
class; this file owns the extension step, the per-level statistics and the
graph6 level archives.

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
dropped before it is built or labeled; for the rest, the labeling that
gives the canonical key also decides the orbit test. Both tests work in
any labels, so a class travels in the labels it was found in and is
relabeled into canonical order once, when the enumerator emits it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

from .canon import canon_raw, orbit_closure
from .detect import critical_sets
from .graph6 import write_graph6
from .graphs import Graph, iter_bits, relabel_rows as relabel_canonical
from .targets import Target

_ORBIT_CAP = 4096


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


class EnumerationLimitError(RuntimeError):
    """A level exceeded the class limit; ``stats`` holds the finished rows."""

    def __init__(self, message: str, stats: EnumerationStats):
        super().__init__(message)
        self.stats = stats


def _extensions(adj: tuple[int, ...], n: int, t1: Target, t2: Target) -> Iterator[int]:
    """Neighborhood masks S whose one-vertex extension stays (t1,t2)-good.

    S contains no t1 critical set of the parent and meets every t2 critical
    set of its complement. S grows by ascending vertices: a singleton set
    leaves the pool, a pair removes the partner, a larger set is checked
    when its highest vertex enters.
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
        for w in meet:
            if not w & cur:
                break
        else:
            yield cur
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            pool ^= low
            s = cur | low
            for w in larger[v]:
                if w & s == w:
                    break
            else:
                stack.append((pool & ~partners[v], s))


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
            m = cur
            while m:
                low = m & -m
                img |= 1 << g[low.bit_length() - 1]
                m ^= low
            if img < s:
                return False
            if img not in seen:
                if len(seen) >= _ORBIT_CAP:
                    return True
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
    return Graph(n, relabel_canonical(n, rec.adj, rec.order))


def _new_vertex_ties(
    adj: tuple[int, ...],
    deg: list[int],
    nsum: list[int],
    by_deg: list[int],
    top: int,
    s: int,
) -> int | None:
    """Old vertices whose (degree, sum of neighbour degrees) in the child
    with neighborhood ``s`` equals the new vertex's; None if one is larger.

    ``deg`` and ``nsum`` are the parent's, ``by_deg[d]`` masks its vertices
    of degree d and ``top`` is its largest degree.
    """
    k = s.bit_count()
    if k < top or by_deg[k] & s:  # an old vertex has the larger degree
        return None
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


def _extend_records(
    records: Sequence[_ClassRec], t1: Target, t2: Target
) -> dict[bytes, _ClassRec]:
    out: dict[bytes, _ClassRec] = {}
    for rec in records:
        adj = rec.adj
        n = len(adj)
        bit = 1 << n
        deg = [row.bit_count() for row in adj]
        nsum = [sum(deg[u] for u in iter_bits(row)) for row in adj]
        top = max(deg)
        by_deg = [0] * (n + 1)
        for v, d in enumerate(deg):
            by_deg[d] |= 1 << v
        for s in _extensions(adj, n, t1, t2):
            ties = _new_vertex_ties(adj, deg, nsum, by_deg, top, s)
            if ties is None or not _orbit_min(s, rec.gens):
                continue
            child = tuple(
                (row | bit) if (s >> v) & 1 else row for v, row in enumerate(adj)
            ) + (s,)
            key, order, gens = canon_raw(n + 1, child)
            if ties:
                # canonical deletion vertex: the tie at the lowest position
                m = next(v for v in order if (ties | bit) >> v & 1)
                if m != n and n not in orbit_closure([m], gens):
                    continue
            if key not in out:
                out[key] = _ClassRec(child, order, tuple(gens))
    return out


def _extend_parallel(
    records: Sequence[_ClassRec], t1: Target, t2: Target, jobs: int
) -> dict[bytes, _ClassRec]:
    if jobs <= 1 or len(records) < 64:
        return _extend_records(records, t1, t2)
    import multiprocessing as mp

    chunks = max(1, jobs * 4)
    step = (len(records) + chunks - 1) // chunks
    work = [records[i : i + step] for i in range(0, len(records), step)]
    out: dict[bytes, _ClassRec] = {}
    with mp.Pool(jobs) as pool:
        for part in pool.imap(partial(_extend_records, t1=t1, t2=t2), work):
            out.update(part)  # chunks of a level give disjoint classes
    return out


def extend_level(level: Sequence[Graph], t1: Target, t2: Target) -> list[Graph]:
    """Good isomorphism classes one order up, sorted by canonical key.

    ``level`` must be a duplicate-free subset of the complete list of good
    classes at some order. The output is exactly the classes one order up
    whose canonical parent (the child less its canonical deletion vertex)
    lies in that subset: the whole level gives the whole next level, and
    disjoint chunks of it give disjoint parts of the next level.
    """
    records = []
    for g in level:
        _, order, gens = canon_raw(g.n, g.adj)
        records.append(_ClassRec(g.adj, order, tuple(gens)))
    out = _extend_records(records, t1, t2)
    return [_canonical_graph(r) for _, r in sorted(out.items())]


def enumerate_good(
    t1: Target,
    t2: Target,
    n_max: int,
    emit_dir: str | None = None,
    class_limit: int | None = None,
    jobs: int = 1,
) -> EnumerationStats:
    """Level statistics for all (t1,t2)-good graphs of orders 1..n_max.

    With ``emit_dir`` each level is archived as one graph6 file. Levels past
    the Ramsey number stay empty and cost nothing. ``class_limit`` bounds
    the classes per level; exceeding it raises
    :class:`EnumerationLimitError` carrying the completed rows. ``jobs``
    spreads a level's parents over worker processes; the result does not
    depend on the worker count.
    """
    stats = EnumerationStats(t1, t2, [])
    if n_max < 1:
        return stats
    level = {canon_raw(1, (0,))[0]: _ClassRec((0,), (0,), ())}
    for order in range(1, n_max + 1):
        if order > 1 and level:
            level = _extend_parallel(
                [rec for _, rec in sorted(level.items())], t1, t2, jobs
            )
        count = len(level)
        if class_limit is not None and count > class_limit:
            raise EnumerationLimitError(
                f"level {order} has {count} classes, over the limit {class_limit}",
                stats,
            )
        if count:
            edge_counts = [
                sum(row.bit_count() for row in rec.adj) // 2 for rec in level.values()
            ]
            row = LevelStats(order, count, min(edge_counts), max(edge_counts))
        else:
            row = LevelStats(order, 0, None, None)
        stats.levels.append(row)
        if emit_dir is not None:
            _write_archive(emit_dir, t1, t2, order, level)
    return stats


def archive_filename(t1: Target, t2: Target, order: int) -> str:
    return f"good_{t1.token}_{t2.token}_n{order}.g6"


def _write_archive(
    emit_dir: str, t1: Target, t2: Target, order: int, level: dict[bytes, _ClassRec]
) -> None:
    os.makedirs(emit_dir, exist_ok=True)
    path = os.path.join(emit_dir, archive_filename(t1, t2, order))
    with open(path, "w", encoding="ascii") as fh:
        graphs = (_canonical_graph(rec) for _, rec in sorted(level.items()))
        write_graph6(fh, graphs)
