"""Symbolic forbidden subgraphs: cliques, near-cliques and short cycles.

The family covers every pattern the toolkit forbids inside a color class:
K_k, J_k = K_k minus an edge, K_k minus the two edges of a 3-vertex path,
and C_k. The triangle with a pendant edge (K3+e) is exactly K4 minus a
3-vertex path, so it is that target and keeps its own token ``K3e``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graphs import Graph

CLIQUE = "clique"
CLIQUE_MINUS_EDGE = "clique_minus_edge"
CLIQUE_MINUS_P3 = "clique_minus_p3"
CYCLE = "cycle"


# kind -> (token head, token tail, smallest k, the non-edges that the
# pattern removes from K_k; None for the cycle)
_KINDS = {
    CLIQUE: ("K", "", 2, ()),
    CLIQUE_MINUS_EDGE: ("J", "", 4, ((0, 1),)),
    CLIQUE_MINUS_P3: ("K", "mP3", 4, ((0, 1), (1, 2))),
    CYCLE: ("C", "", 3, None),
}
_FORMS = {(head, tail): kind for kind, (head, tail, _, _) in _KINDS.items()}
# (head, k, tail) of a token -> its short form: K3+e keeps its own token
_SHORT = {("K", 4, "mP3"): ("K", 3, "e")}
_LONG = {short: full for full, short in _SHORT.items()}


@dataclass(frozen=True, slots=True)
class Target:
    kind: str
    k: int
    # Set once at construction: annealing reads kind and k on every move
    # (slots make those plain loads), and perfbench/tracing.py reads the
    # token on every traced move. Equality and hashing ignore it.
    token: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        head, tail, low, _ = _KINDS[self.kind]
        if self.k < low:
            raise ValueError(f"{self.kind} needs k >= {low}, got {self.k}")
        form = (head, self.k, tail)
        object.__setattr__(self, "token", "%s%d%s" % _SHORT.get(form, form))

    @property
    def order(self) -> int:
        """Number of vertices of the pattern."""
        return self.k

    @property
    def edge_count(self) -> int:
        """Number of edges of the pattern."""
        missing = _KINDS[self.kind][3]
        if missing is None:
            return self.k
        return self.k * (self.k - 1) // 2 - len(missing)

    def pattern(self) -> Graph:
        """The pattern as a concrete graph on ``order`` vertices."""
        missing = _KINDS[self.kind][3]
        if missing is None:
            return Graph.cycle(self.k)
        edges = [e for e in Graph.complete(self.k).edges() if e not in missing]
        return Graph.from_edges(self.k, edges)

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


_TOKEN_RE = re.compile(r"(\D+)(\d+)(.*)")


def parse_target(token: str) -> Target:
    """Parse tokens like K3, J4, K3e, K5mP3, C6."""
    m = _TOKEN_RE.fullmatch(token.strip())
    if m is not None:
        form = (m[1], int(m[2]), m[3])
        head, k, tail = _LONG.get(form, form)
        kind = _FORMS.get((head, tail))
        if kind is not None:
            return Target(kind, k)
    raise ValueError(f"unrecognized target token {token!r}")


def parse_target_list(text: str) -> list[Target]:
    """Parse a comma-separated target list such as ``K3,J4,J4``."""
    return [parse_target(tok) for tok in text.split(",") if tok.strip()]
