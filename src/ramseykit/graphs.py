"""Undirected simple graphs on at most 64 vertices, stored as per-vertex bitsets.

A vertex neighborhood is a single Python int used as a bitmask, so edge
queries, common-neighborhood intersections and degree counts are one or two
machine-word operations for every graph this package handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complement(g: Graph) -> Graph:
    """The graph with edge {u,v} exactly where ``g`` has none."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.adj)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabeled 0..k-1 in increasing order."""
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in graph of order {g.n}")
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        row = 0
        for u in iter_bits(g.adj[v]):
            if u in pos:
                row |= 1 << pos[u]
        rows[pos[v]] = row
    return Graph(len(keep), tuple(rows))


def relabel_rows(n: int, adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows rewritten so the vertex ``order[i]`` becomes vertex ``i``.

    No validation: enumeration relabels raw bitsets on its hot path.
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


def relabel(g: Graph, order: tuple[int, ...]) -> Graph:
    """Relabel so the vertex ``order[i]`` becomes vertex ``i``."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    return Graph(g.n, relabel_rows(g.n, g.adj, order))


def add_vertex(g: Graph, neighborhood: int) -> Graph:
    """Append a new last vertex adjacent to the bitmask ``neighborhood``."""
    if neighborhood & ~((1 << g.n) - 1):
        raise ValueError("neighborhood mentions vertices outside the graph")
    z = g.n
    bit = 1 << z
    rows = tuple(
        (row | bit) if (neighborhood >> v) & 1 else row for v, row in enumerate(g.adj)
    )
    return Graph(g.n + 1, rows + (neighborhood,))


def delete_vertex(g: Graph, v: int) -> Graph:
    return induced_subgraph(g, [u for u in range(g.n) if u != v])
