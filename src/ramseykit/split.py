"""Splittability and arrowing decisions, plus coloring composition.

A graph is splittable with respect to a target list when its edges can be
partitioned so color i avoids target i; it arrows the targets otherwise.
Two independent engines decide the two-color case: a reduction to CNF
(one Boolean variable per edge, one clause per forbidden copy) solved by
the embedded SAT procedure, and a recursive edge colorer that extends a
partial coloring one edge at a time. More than two colors always use the
recursive engine. Both number the edges as ``g.edges()`` does. The CNF
encoder takes each copy from :func:`copy_tuples` as the sorted tuple of its
edges' SAT variables, edge i being variable i + 1, which is its clause; the
colorer takes the edge-index bitmasks of :func:`list_copies`, bit i for
edge i.

The SAT engine breaks the host's symmetry before it solves. The generators
:func:`canon_raw` returns for Aut(g) permute the edges, hence the copies,
hence the clauses; for each one a lex-leader chain (Crawford, Ginsberg,
Luks & Roy 1996, "Symmetry-breaking predicates for search problems";
Aloul, Markov & Sakallah 2006, "Efficient symmetry breaking for Boolean
satisfiability") keeps only colorings that are lexicographically no larger
than their image, on the first few edges the generator moves. Every orbit
of colorings keeps its least member, so verdicts do not change, while the
solver no longer refutes the same subproblem once per symmetric copy.
:func:`encode_split_cnf` (and the ``cnf`` command) still writes the
unbroken formula.

Both engines return a split as its color classes: one :class:`Graph` per
target on the host's vertex set, class i holding the edges of color i.
:func:`compose_coloring` stacks a red graph under such a split of its
complement.

The colorer keeps one edge mask per color and, per color, a mask of the
edges that color may not take: those completing a copy of its target
whose other edges all carry it already. Coloring an edge never frees such
an edge, so these masks only grow down a branch and are never undone.
"""

from __future__ import annotations

from itertools import chain
from operator import neg
from typing import Sequence

from .canon import canon_raw
from .coloring import EdgeColoring, matrix_text, pair_index
from .detect import copy_tuples, edge_table, list_copies
from .graphs import Graph, iter_bits
from .sat import BudgetExceededError, CnfFormula, sat_solve
from .targets import Target

Edge = tuple[int, int]

# A lex-leader chain compares this many moved positions. Longer chains cost
# more than they prune. On the 108 order-16 hosts of
# perfbench/data/hosts16.tsv (CPython 3.11, 2 cores), SAT time was 6.2-6.8 s
# at 5 against 7.8-7.9 s with whole chains and 11.3 s without breaking,
# and 6.4-6.9 s at 3 or 8; the Schlafli complement's (J4, J4) split took
# 0.5 s at 5, 17 s with whole chains and 0.3 s without breaking.
CHAIN_LENGTH = 5


def encode_split_cnf(g: Graph, t_false: Target, t_true: Target) -> CnfFormula:
    """CNF satisfiable exactly when ``g`` splits into (t_false, t_true).

    Edges are variables, variable v being ``g.edges()[v-1]``; False plays
    color 1 and True color 2. Each copy of ``t_false`` contributes an
    all-positive clause (some edge must leave color 1) and each copy of
    ``t_true`` an all-negative one, both in the order of
    :func:`list_copies`. The clauses come straight from
    :func:`copy_tuples` over a table of the edges' variables; no copy is
    built as a mask.
    """
    edges = tuple(g.edges())
    if not edges:
        raise ValueError("cannot encode an edgeless graph")
    var = edge_table(g.n, edges, range(1, len(edges) + 1))
    clauses = copy_tuples(g.adj, g.n, t_false, var)
    # every copy of t_true has its edge_count edges: negate them in one
    # stream and cut it back into clauses of that length
    lits = map(neg, chain.from_iterable(copy_tuples(g.adj, g.n, t_true, var)))
    clauses += zip(*[lits] * t_true.edge_count)
    return CnfFormula(len(edges), clauses, edges)


def edge_automorphisms(g: Graph, edges: Sequence[Edge]) -> list[tuple[int, ...]]:
    """The automorphism generators :func:`canon_raw` finds for ``g``, acting
    on edge indices: ``perm[i]`` is the index of the image of ``edges[i]``.
    Generators that move no edge are left out."""
    index = {e: i for i, e in enumerate(edges)}
    perms = []
    for p in canon_raw(g.n, g.adj)[2]:
        images = ((p[u], p[v]) for u, v in edges)
        perm = tuple(index[(a, b) if a < b else (b, a)] for a, b in images)
        if any(i != j for i, j in enumerate(perm)):
            perms.append(perm)
    return perms


def lex_leader_cnf(f: CnfFormula, perms: Sequence[tuple[int, ...]]) -> CnfFormula:
    """``f`` plus one lex-leader chain per variable permutation.

    With x the variables and y_i = x_perm[i], the chain over the first
    :data:`CHAIN_LENGTH` moved positions i_1 < i_2 < ... says x <= y
    lexicographically there (false before true). Auxiliary variable e_k,
    numbered after ``f``'s variables, means "x and y agree on i_1..i_k";
    the clauses are (-x_1 | y_1), then
    (-e_k-1 | -x_k | y_k), (-e_k-1 | -x_k | -y_k | e_k) and
    (-e_k-1 | x_k | y_k | e_k), with e_0 true and no e for the last
    position (Crawford, Ginsberg, Luks & Roy 1996; Aloul, Markov & Sakallah
    2006). When each permutation maps ``f``'s clause set onto itself, the
    lexicographically least model in each orbit of the group they generate
    satisfies every chain, so the result is satisfiable exactly when ``f``
    is, and its models restricted to ``f``'s variables are models of ``f``.
    A permutation of the wrong length, or one that maps a chain position
    outside the variables, raises ``ValueError``. Only the chain clauses
    are checked as clauses: ``f``'s own were checked when ``f`` was built,
    and the new variables only widen their range.
    """
    nv = f.var_count
    extra: list[tuple[int, ...]] = []
    for perm in perms:
        moved = [i for i, j in enumerate(perm) if i != j][:CHAIN_LENGTH]
        if len(perm) != f.var_count or not all(0 <= perm[i] < len(perm) for i in moved):
            raise ValueError(f"{perm} does not act on the {f.var_count} variables")
        eq: tuple[int, ...] = ()  # (-e_k-1,), empty while e_0 is true
        for i in moved[:-1]:
            x, y = i + 1, perm[i] + 1
            nv += 1
            extra += [eq + (-x, y), eq + (-x, -y, nv), eq + (x, y, nv)]
            eq = (-nv,)
        if moved:
            extra.append(eq + (-moved[-1] - 1, perm[moved[-1]] + 1))
    out = CnfFormula(nv, extra)
    out.clauses = f.clauses + extra
    return out


def recursive_split(
    g: Graph, targets: Sequence[Target], max_conflicts: int | None = None
) -> tuple[Graph, ...] | None:
    """Backtracking edge colorer: one color class per target, class i free
    of target i, or None exactly when ``g`` arrows the targets.

    Forward checking with fail-first edge choice (Haralick & Elliott 1980)
    on edge-index bitmasks: ``col[c]`` holds the edges of color c, and
    ``forbid[c]`` marks each edge that would complete a copy of target c
    whose other edges all have color c; only its open edges are read. A
    colored edge keeps its color down a branch, so such a bit stays true
    while its edge is open: forbid masks only grow, and each level keeps
    its own list instead of undoing. The levels live on an explicit stack,
    one frame per colored edge, so no host is too large for Python's
    recursion limit. The next edge is the one the most colors forbid, ties
    by lowest index; colors go in order, and repeated targets are broken
    by first use. A frame that runs out of colors is a conflict; past
    ``max_conflicts`` of them it raises :class:`BudgetExceededError`.
    """
    if not 1 <= len(targets) <= 4:
        raise ValueError("between 1 and 4 targets required")
    edges = g.edges()
    m = len(targets)
    if not edges:
        return (Graph.empty(g.n),) * m
    full = (1 << len(edges)) - 1
    # through[c][i]: the copies of target c that use edge i
    through: list[list[list[int]]] = [[[] for _ in edges] for _ in range(m)]
    forbid = [0] * m
    for c, t in enumerate(targets):
        for cp in list_copies(g, t).copies:
            if cp & (cp - 1) == 0:
                forbid[c] |= cp  # a one-edge copy: color c never fits there
            for i in iter_bits(cp):
                through[c][i].append(cp)
    first_use = [c > 0 and targets[c] == targets[c - 1] for c in range(m)]
    col = [0] * m

    def pick(done: int, forbid: list[int]) -> int:
        # tiers[j]: the open edges that j or more colors forbid; an edge in
        # tiers[m] is picked first and fails the branch, as no color fits it
        tiers = [full & ~done] + [0] * m
        for f in forbid:
            for j in range(m, 0, -1):
                tiers[j] |= tiers[j - 1] & f
        fewest = next(t for t in reversed(tiers) if t)
        return fewest & -fewest

    # one frame per colored edge: [done, forbid, picked edge bit, next color]
    stack = [[0, forbid, pick(0, forbid), 0]]
    conflicts = 0
    while stack:
        frame = stack[-1]
        done, forbid, bit, c = frame
        while c < m and (forbid[c] & bit or (first_use[c] and not col[c - 1])):
            c += 1
        if c == m:
            conflicts += 1
            if max_conflicts is not None and conflicts > max_conflicts:
                raise BudgetExceededError(max_conflicts)
            stack.pop()
            if stack:
                parent = stack[-1]
                col[parent[3] - 1] ^= parent[2]  # undo the parent's color
            continue
        frame[3] = c + 1
        col[c] |= bit
        done |= bit
        if done == full:
            break
        grown = forbid[c]
        for cp in through[c][bit.bit_length() - 1]:
            rest = cp & ~col[c]
            if not rest & (rest - 1):  # one edge left outside color c
                grown |= rest
        forbid = forbid[:c] + [grown] + forbid[c + 1 :]
        stack.append([done, forbid, pick(done, forbid), 0])
    else:
        return None
    return tuple(Graph.from_edges(g.n, (edges[i] for i in iter_bits(c))) for c in col)


def is_splittable(
    g: Graph,
    targets: Sequence[Target],
    engine: str = "auto",
    max_conflicts: int | None = None,
) -> tuple[bool | None, tuple[Graph, ...] | None]:
    """(verdict, witness or None) for a split, or (None, None) past ``max_conflicts``.

    A witness is one :class:`Graph` per target on ``g``'s vertices; class i
    holds the edges of color i, avoids target i, and the classes partition
    ``g``'s edges. An edgeless ``g`` splits into edgeless classes.

    Two targets may use either engine ("sat", "recurse", or "both" to
    cross-check agreement, unknown when either overruns); more colors
    always recurse. The SAT engine labels ``g`` once with :func:`canon_raw`
    and solves the copy clauses plus one lex-leader chain per automorphism
    generator (:func:`lex_leader_cnf`), so ``max_conflicts`` counts the
    conflicts of that broken formula. A witness is read from the edge
    variables of its model, which is also a model of the unbroken formula:
    variable v + 1 true puts ``g.edges()[v]`` in class 1, false in class 0.
    """
    if engine not in ("auto", "sat", "recurse", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine in ("sat", "both") and len(targets) != 2:
        raise ValueError("the SAT engine handles exactly two targets")
    try:
        if engine == "recurse" or len(targets) != 2 or g.edge_count == 0:
            w = recursive_split(g, targets, max_conflicts)
            return (w is not None), w
        f = encode_split_cnf(g, targets[0], targets[1])
        broken = lex_leader_cnf(f, edge_automorphisms(g, f.edges))
        model = sat_solve(broken, max_conflicts=max_conflicts)
        if engine == "both":
            other = recursive_split(g, targets, max_conflicts)
            if (other is None) != (model is None):
                raise RuntimeError("SAT and recursive engines disagree")
    except BudgetExceededError:
        return None, None
    if model is None:
        return False, None
    halves: tuple[list[Edge], list[Edge]] = ([], [])
    for e, x in zip(f.edges, model):  # zip stops at the chains' variables
        halves[x].append(e)
    return True, tuple(Graph.from_edges(g.n, h) for h in halves)


def witness_matrix(witness: Sequence[Graph]) -> str:
    """Square matrix for a witness: entry i + 1 where class i holds the
    pair, zero where the host has no edge (and on the diagonal). For
    complete hosts this is exactly the coloring-matrix format."""

    def entry(u: int, v: int) -> int:
        return next((i + 1 for i, h in enumerate(witness) if h.adj[u] >> v & 1), 0)

    return matrix_text(witness[0].n, entry)


def compose_coloring(red: Graph, witness: Sequence[Graph]) -> EdgeColoring:
    """Stack a red graph under a witness split of its complement.

    Color 0 takes the red edges and class i of the witness color i + 1.
    Together the red graph and the classes must partition the pairs of
    ``red``'s vertices: each class has ``red.n`` vertices, no pair lies in
    two of them, and every pair lies in one.
    """
    n = red.n
    full = (1 << n) - 1
    seen = [row | 1 << v for v, row in enumerate(red.adj)]
    for h in witness:
        if h.n != n:
            raise ValueError(
                f"witness does not match the complement: a class on {h.n} vertices, not {n}"
            )
        if any(s & row for s, row in zip(seen, h.adj)):
            raise ValueError("witness does not match the complement: two classes share a pair")
        seen = [s | row for s, row in zip(seen, h.adj)]
    if any(s != full for s in seen):
        raise ValueError("witness does not match the complement: a pair lies in no class")
    vals = bytearray(n * (n - 1) // 2)  # red pairs keep color 0
    for c, h in enumerate(witness, 1):
        for v, row in enumerate(h.adj):
            for u in iter_bits(row & ((1 << v) - 1)):
                vals[pair_index(u, v)] = c
    return EdgeColoring(n, len(witness) + 1, bytes(vals))
