"""Undirected simple graphs on at most 64 vertices, stored as per-vertex bitsets.

A vertex neighborhood is a single Python int used as a bitmask, so edge
queries, common-neighborhood intersections and degree counts are one or two
machine-word operations for every graph this package handles.

``iter_bits`` turns a mask into the sequence of its set bit positions. The
positions of a mask below 2^16, which covers every vertex mask of a graph on
at most 16 vertices, are computed once and kept as ``bytes`` in a
module-level dict. Neither ``int`` keys nor ``bytes`` values hold
references, so the garbage collector never tracks the dict, and a memo that
grows during a run does not change when or how long full collections run.
All 65,536 such masks take about 7 MB; the census to order 11 fills 1,751.
Larger masks, such as the edge-index masks of :func:`detect.list_copies`
on a host with more than 16 edges, get a fresh list each call and are
not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_VERTICES = 64

_SMALL = 1 << 16
_MEMO: dict[int, bytes] = {}


def iter_bits(mask: int) -> Sequence[int]:
    """The set bit positions of ``mask``, a non-negative int, in increasing
    order.

    A mask below 2^16 gets shared, memoized ``bytes`` (see the module
    docstring); a larger one gets a new list. Callers only read the result.
    """
    bits = _MEMO.get(mask)
    if bits is not None:
        return bits
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        out.append(low.bit_length() - 1)
        rest ^= low
    if mask < _SMALL:
        bits = _MEMO[mask] = bytes(out)
        return bits
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ``adj[v]`` is the bitmask of v's neighbors."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbors outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in iter_bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge {{{u}, {v}}}")

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from rows already known to be valid, without the O(E) check.

        For rows the package derived from a validated graph, such as the
        enumerator's relabeled children; outside data goes through ``Graph``.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in iter_bits(row):
                out.append((u, u + 1 + d))
        return out

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complement(g: Graph) -> Graph:
    """The graph with edge {u,v} exactly where ``g`` has none."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.adj)))


def relabel_rows(n: int, adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows rewritten so the vertex ``order[i]`` becomes vertex ``i``.

    No validation: enumeration relabels the raw bitsets it built itself.
    """
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    rows = [0] * n
    for i, v in enumerate(order):
        row = 0
        for u in iter_bits(adj[v]):
            row |= 1 << pos[u]
        rows[i] = row
    return tuple(rows)
