"""Edge colorings of complete graphs and their square-matrix text format.

Color indices are 0-based everywhere in the library; the text format uses
1-based colors (0 marks the diagonal), and the conversion happens only in
the parser and emitter below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

MAX_COLORS = 4


def pair_index(u: int, v: int) -> int:
    """Index of the unordered pair {u, v} in the triangular color array."""
    if u == v:
        raise ValueError("pairs must have distinct endpoints")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


class ColoringFormatError(ValueError):
    """Malformed coloring-matrix text."""


@dataclass(frozen=True)
class EdgeColoring:
    """Total edge coloring of K_n with colors 0..m-1, stored triangularly."""

    n: int
    m: int
    colors: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_COLORS:
            raise ValueError(f"color count {self.m} outside 1..{MAX_COLORS}")
        npairs = self.n * (self.n - 1) // 2
        if len(self.colors) != npairs:
            raise ValueError(f"expected {npairs} pair colors, got {len(self.colors)}")
        for i, c in enumerate(self.colors):
            if c >= self.m:
                raise ValueError(f"pair {i} has color {c} >= m={self.m}")

    def color_of(self, u: int, v: int) -> int:
        return self.colors[pair_index(u, v)]

    @classmethod
    def from_function(cls, n: int, m: int, fn) -> "EdgeColoring":
        """Build from ``fn(u, v) -> color`` over all pairs u < v."""
        vals = bytearray(n * (n - 1) // 2)
        for v in range(n):
            for u in range(v):
                vals[pair_index(u, v)] = fn(u, v)
        return cls(n, m, bytes(vals))


def color_class(c: EdgeColoring, i: int) -> Graph:
    """The graph on c.n vertices whose edges are the pairs colored ``i``."""
    if not 0 <= i < c.m:
        raise ValueError(f"color {i} outside 0..{c.m - 1}")
    rows = [0] * c.n
    idx = 0
    for v in range(c.n):
        for u in range(v):
            if c.colors[idx] == i:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    return Graph(c.n, tuple(rows))


def parse_coloring_matrix(text: str) -> EdgeColoring:
    """Parse an n x n symmetric matrix with zero diagonal and colors 1..m.

    m is inferred as the largest entry. Whitespace is free-form; rows are
    newline-separated.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = len(rows)
    if n == 0:
        raise ColoringFormatError("empty matrix")
    grid: list[list[int]] = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise ColoringFormatError(f"row {r} has {len(row)} entries, expected {n}")
        try:
            grid.append([int(tok) for tok in row])
        except ValueError:
            raise ColoringFormatError(f"row {r} contains a non-integer entry") from None
    maxc = 0
    for r in range(n):
        if grid[r][r] != 0:
            raise ColoringFormatError(f"nonzero diagonal at row {r}")
        for s in range(n):
            if grid[r][s] != grid[s][r]:
                raise ColoringFormatError(f"asymmetric entries at row {r}, column {s}")
            if r != s and grid[r][s] < 1:
                raise ColoringFormatError(f"color {grid[r][s]} at row {r}, column {s}")
            maxc = max(maxc, grid[r][s])
    if n == 1:
        return EdgeColoring(1, 1, b"")
    return EdgeColoring.from_function(n, maxc, lambda u, v: grid[u][v] - 1)


def matrix_text(n: int, entry) -> str:
    """n x n text with 0 on the diagonal and ``entry(u, v)`` off it: single
    spaces, a row per line."""
    lines = []
    for u in range(n):
        lines.append(" ".join("0" if u == v else str(entry(u, v)) for v in range(n)))
    return "\n".join(lines) + "\n"


def emit_coloring_matrix(c: EdgeColoring) -> str:
    """Inverse of :func:`parse_coloring_matrix`."""
    return matrix_text(c.n, lambda u, v: c.color_of(u, v) + 1)
