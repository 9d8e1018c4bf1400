"""Orderly enumeration of good graphs by one-vertex extension.

Goodness is hereditary under vertex deletion, so every good graph of order
n+1 arises from a good graph of order n by attaching one vertex. Starting
from K1 and extending level by level therefore visits every isomorphism
class exactly once after canonical-form deduplication; this file owns the
extension step, the per-level statistics and the graph6 level archives.

Extension is pruned structurally. For a triangle target the new vertex's
neighborhood must be an independent set, which is enumerated directly.
On the complement side, a J_k or K_k target forbids the new vertex from
covering certain "critical" (k-1)-sets of the parent complement (cliques
and one-edge-short cliques), precomputed per parent so each candidate
neighborhood is screened with a handful of mask operations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .canon import canon_raw, relabel_canonical
from .detect import contains, has_clique, iter_cliques
from .graphs import Graph, add_vertex, complement
from .targets import CLIQUE, CLIQUE_MINUS_EDGE, Target

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


def _independent_sets(adj: Sequence[int], pool: int) -> Iterator[int]:
    """All independent sets (including the empty one) within ``pool``."""
    stack = [(pool, 0)]
    while stack:
        pool, cur = stack.pop()
        yield cur
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            pool ^= low
            stack.append((pool & ~adj[v], cur | low))


def _cme_critical_masks(
    comp_adj: Sequence[int], n: int, k: int
) -> tuple[list[int], list[int]]:
    """(k-1)-sets of the parent complement that a J_k could grow from.

    The new vertex is complement-adjacent to everything outside its chosen
    neighborhood S, so a J_k through it completes over any listed set that
    S fails to hit. Returns ``(need_any, need_two)``: sets one edge short
    of complete must meet S in at least one vertex, complete ones in two.
    """
    full = (1 << n) - 1
    need_two = list(iter_cliques(comp_adj, full, k - 1))
    need_any: list[int] = []
    for x in range(n):
        for y in range(x + 1, n):
            if (comp_adj[x] >> y) & 1:
                continue
            pairbits = (1 << x) | (1 << y)
            for c in iter_cliques(comp_adj, comp_adj[x] & comp_adj[y], k - 3):
                need_any.append(c | pairbits)
    return need_any, need_two


def _complement_filter(
    comp_adj: Sequence[int], n: int, t2: Target
) -> Callable[[int], bool] | None:
    """Fast screen: does neighborhood S keep the complement t2-free?"""
    if t2.kind == CLIQUE_MINUS_EDGE:
        need_any, need_two = _cme_critical_masks(comp_adj, n, t2.k)

        def ok_cme(s: int) -> bool:
            for w in need_any:
                if not w & s:
                    return False
            for w in need_two:
                if (w & s).bit_count() < 2:
                    return False
            return True

        return ok_cme
    if t2.kind == CLIQUE:
        full = (1 << n) - 1
        covers = list(iter_cliques(comp_adj, full, t2.k - 1))

        def ok_clique(s: int) -> bool:
            for w in covers:
                if not w & s:
                    return False
            return True

        return ok_clique
    return None


def _extensions(adj: tuple[int, ...], n: int, t1: Target, t2: Target) -> Iterator[int]:
    """Neighborhood masks S whose one-vertex extension stays (t1,t2)-good."""
    full = (1 << n) - 1
    comp_adj = tuple(full ^ row ^ (1 << v) for v, row in enumerate(adj))
    comp_ok = _complement_filter(comp_adj, n, t2)

    if t1.kind == CLIQUE and t1.k == 3:
        candidates: Iterable[int] = _independent_sets(adj, full)
        check_t1 = False
    elif t1.kind == CLIQUE:
        candidates = (s for s in range(1 << n) if not has_clique(adj, s, t1.k - 1))
        check_t1 = False
    else:
        candidates = range(1 << n)
        check_t1 = True

    base = Graph(n, adj)
    for s in candidates:
        if comp_ok is not None:
            if not comp_ok(s):
                continue
            if check_t1 and contains(add_vertex(base, s), t1):
                continue
        else:
            child = add_vertex(base, s)
            if check_t1 and contains(child, t1):
                continue
            if contains(complement(child), t2):
                continue
        yield s


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
    """A canonical class representative plus its automorphism generators."""

    adj: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]


def _translate_gens(
    order: tuple[int, ...], gens: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return tuple(tuple(pos[g[order[i]]] for i in range(n)) for g in gens)


def _extend_records(
    records: Sequence[_ClassRec], t1: Target, t2: Target
) -> dict[bytes, _ClassRec]:
    out: dict[bytes, _ClassRec] = {}
    for rec in records:
        n = len(rec.adj)
        for s in _extensions(rec.adj, n, t1, t2):
            if not _orbit_min(s, rec.gens):
                continue
            bit = 1 << n
            child = tuple(
                (row | bit) if (s >> v) & 1 else row for v, row in enumerate(rec.adj)
            ) + (s,)
            key, order, gens = canon_raw(n + 1, child)
            if key not in out:
                canon_adj = relabel_canonical(n + 1, child, order)
                out[key] = _ClassRec(canon_adj, _translate_gens(order, gens))
    return out


def _extend_worker(args) -> dict[bytes, _ClassRec]:
    records, t1, t2 = args
    return _extend_records(records, t1, t2)


def _extend_parallel(
    records: Sequence[_ClassRec], t1: Target, t2: Target, jobs: int
) -> dict[bytes, _ClassRec]:
    if jobs <= 1 or len(records) < 64:
        return _extend_records(records, t1, t2)
    import multiprocessing as mp

    chunks = max(1, jobs * 4)
    step = (len(records) + chunks - 1) // chunks
    work = [
        (records[i : i + step], t1, t2) for i in range(0, len(records), step)
    ]
    out: dict[bytes, _ClassRec] = {}
    with mp.Pool(jobs) as pool:
        for part in pool.imap(_extend_worker, work):
            for key, rec in part.items():
                out.setdefault(key, rec)
    return out


def extend_level(level: Sequence[Graph], t1: Target, t2: Target) -> list[Graph]:
    """All good isomorphism classes one order up, sorted by canonical key.

    The input must be a complete, duplicate-free list of good classes at
    some order; the output is then the complete class list at the next one.
    """
    records = []
    for g in level:
        key, order, gens = canon_raw(g.n, g.adj)
        records.append(
            _ClassRec(relabel_canonical(g.n, g.adj, order), _translate_gens(order, gens))
        )
    out = _extend_records(records, t1, t2)
    return [Graph(len(r.adj), r.adj) for _, r in sorted(out.items())]


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
    level: dict[bytes, _ClassRec] = {
        canon_raw(1, (0,))[0]: _ClassRec((0,), ())
    }
    for order in range(1, n_max + 1):
        if order > 1:
            if level:
                level = _extend_parallel(
                    [rec for _, rec in sorted(level.items())], t1, t2, jobs
                )
            else:
                level = {}
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
    from .graph6 import emit_graph6

    os.makedirs(emit_dir, exist_ok=True)
    path = os.path.join(emit_dir, archive_filename(t1, t2, order))
    with open(path, "w", encoding="ascii") as fh:
        for _, rec in sorted(level.items()):
            fh.write(emit_graph6(Graph(len(rec.adj), rec.adj)))
            fh.write("\n")
