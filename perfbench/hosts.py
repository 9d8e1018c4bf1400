"""Seeded (K3, J7)-good host graphs for the split workload.

The generator and its good-graph check are the benchmark's own code and
share nothing with ramseykit, so the check can be compared against
``ramseykit.is_good`` on every host.
"""

from __future__ import annotations

import random


def _has_independent_set(adj: list[int], cand: int, k: int) -> bool:
    """Is there an independent set of size ``k`` inside the mask ``cand``?"""
    if k <= 0:
        return True
    while cand:
        if cand.bit_count() < k:
            return False
        low = cand & -cand
        cand ^= low
        if _has_independent_set(adj, cand & ~adj[low.bit_length() - 1], k - 1):
            return True
    return False


def is_k3_j7_good(n: int, adj: list[int]) -> bool:
    """Triangle-free, and no 7 vertices span at most one edge.

    The second condition is "the complement has no J7": seven vertices
    whose complement misses at most one pair, i.e. a pair x, y together
    with an independent 5-set avoiding both of their neighbourhoods.
    """
    for u in range(n):
        for v in range(u + 1, n):
            if (adj[u] >> v) & 1 and adj[u] & adj[v]:
                return False
    full = (1 << n) - 1
    for x in range(n):
        for y in range(x + 1, n):
            cand = full & ~(adj[x] | adj[y] | (1 << x) | (1 << y))
            if _has_independent_set(adj, cand, 5):
                return False
    return True


def random_host(rng: random.Random, n: int) -> list[int]:
    """One (K3, J7)-good graph from the triangle-free random process.

    Pairs are added in random order unless they close a triangle; a
    saturated graph whose complement contains J7 is rejected and redrawn.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        rng.shuffle(pairs)
        adj = [0] * n
        for u, v in pairs:
            if not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if is_k3_j7_good(n, adj):
            return adj


def graph6(n: int, adj: list[int]) -> str:
    """graph6 text of a graph with at most 62 vertices."""
    bits = [(adj[u] >> v) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def adjacency(text: str) -> tuple[int, list[int]]:
    """Inverse of :func:`graph6` for the same order range."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend((val >> s) & 1 for s in range(5, -1, -1))
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return n, adj
