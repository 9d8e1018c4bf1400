"""Symbolic forbidden subgraphs: cliques, near-cliques and short cycles.

The family covers every pattern the toolkit forbids inside a color class:
K_k, J_k = K_k minus an edge, K_k minus the two edges of a 3-vertex path,
and C_k. The triangle with a pendant edge (K3+e) is exactly K4 minus a
3-vertex path, so it is that target and keeps its own token ``K3e``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graphs import Graph

CLIQUE = "clique"
CLIQUE_MINUS_EDGE = "clique_minus_edge"
CLIQUE_MINUS_P3 = "clique_minus_p3"
CYCLE = "cycle"


@dataclass(frozen=True)
class Target:
    kind: str
    k: int

    def __post_init__(self) -> None:
        limits = {
            CLIQUE: 2,
            CLIQUE_MINUS_EDGE: 4,
            CLIQUE_MINUS_P3: 4,
            CYCLE: 3,
        }
        if self.kind not in limits:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.k < limits[self.kind]:
            raise ValueError(f"{self.kind} needs k >= {limits[self.kind]}, got {self.k}")

    @property
    def order(self) -> int:
        """Number of vertices of the pattern."""
        return self.k

    @property
    def token(self) -> str:
        if self.kind == CLIQUE:
            return f"K{self.k}"
        if self.kind == CLIQUE_MINUS_EDGE:
            return f"J{self.k}"
        if self.kind == CLIQUE_MINUS_P3:
            return "K3e" if self.k == 4 else f"K{self.k}mP3"
        return f"C{self.k}"

    def pattern(self) -> Graph:
        """The pattern as a concrete graph on ``order`` vertices."""
        if self.kind == CLIQUE:
            return Graph.complete(self.k)
        if self.kind == CLIQUE_MINUS_EDGE:
            full = Graph.complete(self.k)
            edges = [e for e in full.edges() if e != (0, 1)]
            return Graph.from_edges(self.k, edges)
        if self.kind == CLIQUE_MINUS_P3:
            full = Graph.complete(self.k)
            edges = [e for e in full.edges() if e not in ((0, 1), (1, 2))]
            return Graph.from_edges(self.k, edges)
        return Graph.cycle(self.k)

    def __str__(self) -> str:
        return self.token


def clique(k: int) -> Target:
    return Target(CLIQUE, k)


def clique_minus_edge(k: int) -> Target:
    return Target(CLIQUE_MINUS_EDGE, k)


def triangle_plus_pendant() -> Target:
    """K3+e: the triangle with a pendant edge, which is K4 minus a P3."""
    return Target(CLIQUE_MINUS_P3, 4)


def clique_minus_p3(k: int) -> Target:
    return Target(CLIQUE_MINUS_P3, k)


def cycle(k: int) -> Target:
    return Target(CYCLE, k)


_TOKEN_RE = re.compile(r"^(?:K(\d+)e|K(\d+)mP3|K(\d+)|J(\d+)|C(\d+))$")


def parse_target(token: str) -> Target:
    """Parse tokens like K3, J4, K3e, K5mP3, C6."""
    m = _TOKEN_RE.match(token.strip())
    if m is None:
        raise ValueError(f"unrecognized target token {token!r}")
    k3e, kmp3, kk, jk, ck = m.groups()
    if k3e is not None:
        if int(k3e) != 3:
            raise ValueError(f"unrecognized target token {token!r}")
        return triangle_plus_pendant()
    if kmp3 is not None:
        return clique_minus_p3(int(kmp3))
    if kk is not None:
        return clique(int(kk))
    if jk is not None:
        return clique_minus_edge(int(jk))
    return cycle(int(ck))


def parse_target_list(text: str) -> list[Target]:
    """Parse a comma-separated target list such as ``K3,J4,J4``."""
    return [parse_target(tok) for tok in text.split(",") if tok.strip()]
