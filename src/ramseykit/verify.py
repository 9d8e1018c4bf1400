"""One-command reproductions of the package's headline facts.

Each verification runs an exhaustive or oracle-backed computation and
returns a plain-text report embedding the exact counts examined, so two
runs of the same command diff cleanly. The arrowing check for J7 really
does sweep all 2^20 two-colorings (bit-parallel, one bit per coloring),
rather than trusting any case analysis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import __version__
from .canon import are_isomorphic
from .constructions import figure_coloring, is_strongly_regular, schlafli, two_k3
from .detect import coloring_is_valid, contains, count_copies, is_good, list_copies
from .enumeration import archive_filename, enumerate_good, extend_level
from .graph6 import iter_graph6
from .graphs import Graph, complement
from .split import compose_coloring, is_splittable
from .targets import Target, clique, clique_minus_edge, cycle, triangle_plus_pendant


@dataclass
class Report:
    name: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)
    # set once a part is left unknown, over the conflict budget; the rest still ran
    overrun: bool = False

    def add(self, text: str) -> None:
        self.lines.append(text)

    def require(self, ok: bool | None, text: str) -> None:
        """A check's line; None leaves it unknown, as a budget overrun does."""
        word = {True: "ok", False: "FAILED", None: "unknown, over the conflict budget"}[ok]
        self.lines.append(f"{text}: {word}")
        self.passed &= ok is not False
        self.overrun |= ok is None

    def __str__(self) -> str:
        out = [f"ramseykit {__version__}", f"verify {self.name}"]
        out += [f"  {line}" for line in self.lines]
        out.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)


def verify_lemma_hex() -> Report:
    """Every (K3+e,J4;6)-good class contains a C6 or equals 2K3."""
    rep = Report("lemma-hex")
    k3e, j4 = triangle_plus_pendant(), clique_minus_edge(4)
    level: list[Graph] = [Graph.empty(1)]
    for _ in range(5):
        level = extend_level(level, k3e, j4)
    rep.add(f"(K3e,J4;6)-good classes examined: {len(level)}")
    hexagon = cycle(6)
    with_c6 = 0
    equal_2k3 = 0
    twin = two_k3()
    for g in level:
        has_c6 = contains(g, hexagon)
        is_twin = are_isomorphic(g, twin)
        if has_c6:
            with_c6 += 1
        if is_twin:
            equal_2k3 += 1
        if not has_c6 and not is_twin:
            rep.require(False, f"class without C6 and distinct from 2K3: {g.adj}")
    rep.add(f"classes containing C6: {with_c6}")
    rep.add(f"classes equal to 2K3: {equal_2k3}")
    rep.require(equal_2k3 == 1, "2K3 appears among the good graphs")
    rep.require(is_good(Graph.cycle(6), k3e, j4), "C6 itself is (K3e,J4;6)-good")
    return rep


def _arrowing_misses(g: Graph, t1: Target, t2: Target) -> tuple[int, int]:
    """(#colorings with no t1 in color 1 and no t2 in color 2, #examined).

    Bit i of a state puts edge i in color 1, as bit i of a copy names it.
    Bit s of ``inside[i]`` is bit i of state s, so the states that put a
    whole copy in color 1 are the AND of its edges' masks (of their
    complements for color 2)."""
    size = 1 << g.edge_count
    full = (1 << size) - 1
    inside = []
    for i in range(g.edge_count):
        mask, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < size:  # double one period until it spans every state
            mask |= mask << width
            width <<= 1
        inside.append(mask)
    hit = 0
    for t, masks in ((t1, inside), (t2, [full ^ m for m in inside])):
        for cm in list_copies(g, t).copies:
            states = full
            for i, m in enumerate(masks):
                if cm >> i & 1:
                    states &= m
            hit |= states
    return size - hit.bit_count(), size


def verify_j7_arrow() -> Report:
    """Exhaustive check of J7 -> (K3+e, J4) over all 2^20 colorings."""
    rep = Report("j7-arrow")
    j7 = clique_minus_edge(7).pattern()
    k3e, j4, k3 = triangle_plus_pendant(), clique_minus_edge(4), clique(3)
    rep.add(f"host: J7 on 7 vertices with {j7.edge_count} edges")
    misses, examined = _arrowing_misses(j7, k3e, j4)
    rep.add(f"colorings examined: {examined}")
    rep.add(f"colorings avoiding K3e in color 1 and J4 in color 2: {misses}")
    rep.require(examined == 1 << 20, "examined exactly 2^20 colorings")
    rep.require(misses == 0, "J7 arrows (K3e, J4)")
    weak_misses, _ = _arrowing_misses(j7, k3, j4)
    rep.require(weak_misses == 0, "J7 arrows the weaker pair (K3, J4)")
    stats = enumerate_good(k3e, j4, 7)
    counts = [row.count for row in stats.levels]
    rep.add(f"(K3e,J4) level counts 1..7: {counts}")
    rep.require(counts[6] == 0 and counts[5] > 0, "R(K3e,J4) = 7 by enumeration")
    return rep


def verify_figure(which: str) -> Report:
    """Check an embedded figure matrix against its advertised targets."""
    j4, k3, k4 = clique_minus_edge(4), clique(3), clique(4)
    plans = {
        "figure3": ("FIG3", [k3, j4, j4], 20),
        "figure4": ("FIG4", [j4, j4, k4], 32),
    }
    if which not in plans:
        raise ValueError(f"unknown figure report {which!r}")
    fig_id, tgt, n = plans[which]
    rep = Report(which)
    c = figure_coloring(fig_id)
    rep.add(f"matrix: {c.n} vertices, {c.m} colors")
    rep.require(c.n == n and c.m == 3, "expected shape")
    verdict = coloring_is_valid(c, tgt)
    names = ",".join(t.token for t in tgt)
    rep.require(verdict.valid, f"valid ({names};{n})-coloring")
    if verdict.valid:
        rep.add(f"color-to-target assignment: {verdict.assignment}")
    return rep


def verify_schlafli(max_conflicts: int | None = None) -> Report:
    """Regularity oracle plus both splittability facts for the Schläfli graph;
    a split over ``max_conflicts`` reads unknown and the other checks run."""
    rep = Report("schlafli")
    g = schlafli()
    j4, j7, k3 = clique_minus_edge(4), clique_minus_edge(7), clique(3)
    rep.add(f"graph: {g.n} vertices, {g.edge_count} edges")
    rep.require(is_strongly_regular(g, 10, 1, 5), "strongly regular (27,10,1,5)")
    rep.require(is_good(g, j4, j7), "(J4,J7;27)-good")
    rep.add(f"J4 copies: {count_copies(g.adj, g.n, j4)}")
    ok, witness = is_splittable(g, [j4, j4], max_conflicts=max_conflicts)
    rep.require(ok, "splits into two J4-free graphs")
    if witness is not None:
        rep.require(not any(contains(h, j4) for h in witness), "split witness validated")
    comp = complement(g)
    comp_ok, comp_witness = is_splittable(comp, [j4, j4], max_conflicts=max_conflicts)
    rep.require(comp_ok, "complement splits into two J4-free graphs")
    if comp_witness is not None:
        valid = coloring_is_valid(compose_coloring(g, comp_witness), [j4, j4, j4]).valid
        rep.require(valid, "graph plus complement split is a (J4,J4,J4;27)-coloring")
    comp_ok, _ = is_splittable(comp, [k3, j4], max_conflicts=max_conflicts)
    unsplit = None if comp_ok is None else not comp_ok
    rep.require(unsplit, "complement is unsplittable for (K3, J4)")
    return rep


def verify_split_pipeline(
    order: int, archive_dir: str | None = None, max_conflicts: int | None = None
) -> Report:
    """Split every (J7,K3;order)-good graph and validate the compositions.

    The archive holds the complements: (K3,J7)-good graphs produced by
    enumeration. Each splittable member yields a (K3,K3,J4;order)-coloring
    through composition, which is revalidated. A host that overruns
    ``max_conflicts`` counts as unknown and the later hosts still run; the
    report then counts those hosts and is marked as overrun.
    """
    rep = Report("split-pipeline")
    k3, j4, j7 = clique(3), clique_minus_edge(4), clique_minus_edge(7)
    if archive_dir is None:
        raise ValueError("split-pipeline needs an archive directory")
    path = os.path.join(archive_dir, archive_filename(k3, j7, order))
    if not os.path.exists(path):
        raise FileNotFoundError(f"level archive not found: {path}")
    loaded = splittable = over_budget = bad_compositions = 0
    with open(path, encoding="ascii") as fh:
        for f in iter_graph6(fh):
            if f.n != order:
                raise ValueError(f"archive graph has order {f.n}, expected {order}")
            loaded += 1
            ok, witness = is_splittable(complement(f), [k3, j4], max_conflicts=max_conflicts)
            over_budget += ok is None
            if not ok:
                continue
            splittable += 1
            assert witness is not None
            if not coloring_is_valid(compose_coloring(f, witness), [k3, k3, j4]).valid:
                bad_compositions += 1
    rep.add(f"(K3,J7;{order})-good graphs loaded: {loaded}")
    rep.add(f"splittable under (K3, J4): {splittable}")
    if over_budget:
        rep.add(f"over the conflict budget, verdict unknown: {over_budget}")
        rep.overrun = True
    rep.require(bad_compositions == 0, "all compositions are (K3,K3,J4)-colorings")
    return rep
