"""Reader and writer for the graph6 interchange format (orders up to 62).

The encoding is the printable-ASCII one used by the common graph archives:
one size byte n+63, then the upper-triangular adjacency bits in column
order (0,1),(0,2),(1,2),(0,3),... packed big-endian into 6-bit groups,
each offset by 63. Padding bits must be zero; violations are reported with
the byte offset at fault.
"""

from __future__ import annotations

from typing import Iterator, TextIO

from .graphs import Graph

HEADER = ">>graph6<<"


class Graph6FormatError(ValueError):
    """Malformed graph6 data; ``offset`` is the failing byte position.

    ``args`` holds both constructor arguments, so the error survives a
    pickle round trip (a worker process hands it back to its parent)."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        message, offset = self.args
        return f"{message} (byte offset {offset})"


def emit_graph6(g: Graph) -> str:
    if g.n > 62:
        raise ValueError(f"graph6 output supports at most 62 vertices, got {g.n}")
    out = [chr(g.n + 63)]
    bits = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            bits = (bits << 1) | ((g.adj[u] >> v) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    data = text.rstrip("\r\n")
    pos = 0
    if data.startswith(HEADER):
        pos = len(HEADER)
    if pos >= len(data):
        raise Graph6FormatError("missing size byte", pos)
    size = ord(data[pos])
    if size == 126:
        raise Graph6FormatError("orders above 62 are not supported", pos)
    if not 63 <= size <= 125:
        raise Graph6FormatError(f"invalid size byte {size}", pos)
    n = size - 63
    pos += 1
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6FormatError("truncated bit vector", len(data))
    if len(data) - pos > nbytes:
        raise Graph6FormatError("trailing data after bit vector", pos + nbytes)
    rows = [0] * n
    bit_at = 0
    u, v = 0, 1  # the pair of bit ``bit_at``, in emit_graph6's column order
    for k in range(nbytes):
        byte = ord(data[pos + k])
        if not 63 <= byte <= 126:
            raise Graph6FormatError(f"invalid data byte {byte}", pos + k)
        group = byte - 63
        for b in range(5, -1, -1):
            if bit_at >= npairs:
                if (group >> b) & 1:
                    raise Graph6FormatError("nonzero padding bits", pos + k)
                continue
            if (group >> b) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit_at += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return Graph(n, tuple(rows))


def iter_graph6(stream: TextIO) -> Iterator[Graph]:
    """Parse one graph per nonempty line."""
    for line in stream:
        line = line.strip()
        if line:
            yield parse_graph6(line)
