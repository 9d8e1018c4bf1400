import hashlib
import random
from collections import Counter
from math import factorial

import pytest

from oracles import (
    all_graphs,
    brute_automorphisms,
    naive_extensions,
    relabeled,
    without_vertex,
)
from test_canon import group_order
from ramseykit import enumeration, targets
from ramseykit.canon import canon_raw, canonical_form, orbit_closure
from ramseykit.detect import is_good
from ramseykit.enumeration import (
    _ClassRec,
    _children,
    _extensions,
    _new_vertex_ties,
    _orbit_min,
    archive_filename,
    enumerate_good,
    extend_level,
)
from ramseykit.graph6 import emit_graph6, parse_graph6
from ramseykit.graphs import Graph

K3 = targets.clique(3)
J4 = targets.clique_minus_edge(4)
J7 = targets.clique_minus_edge(7)
K3E = targets.triangle_plus_pendant()

EXTENSION_PAIRS = [
    "K3,J7", "K3e,J4", "K3,K3", "K4,K4", "K3,K5", "J4,J5",
    "C4,C4", "C5,K4", "K3,K5mP3", "K5mP3,K3", "K3,C5",
]


def brute_level_counts(t1, t2, n_max):
    """Filter every labeled graph per order and dedup by canonical form."""
    counts = []
    for n in range(1, n_max + 1):
        keys = {
            canonical_form(g) for g in all_graphs(n) if is_good(g, t1, t2)
        }
        counts.append(len(keys))
    return counts


def test_triangle_triangle_levels_match_brute_force():
    # derived oracle: 1, 2, 2, 3, 1 classes for n=1..5, none at 6
    assert brute_level_counts(K3, K3, 5) == [1, 2, 2, 3, 1]
    stats = enumerate_good(K3, K3, 6)
    assert [r.count for r in stats.levels] == [1, 2, 2, 3, 1, 0]


def test_c5_level_has_no_extension():
    assert extend_level([Graph.cycle(5)], K3, K3) == []


def test_parent_with_the_target_has_no_extension():
    assert extend_level([Graph.complete(3)], K3, K3) == []


def assert_extensions_match_naive(g, t1, t2):
    # with a least size, exactly the naive sets of that size or more
    naive = naive_extensions(g, t1, t2)
    for least in range(g.n + 2):
        want = {s for s in naive if s.bit_count() >= least}
        assert set(_extensions(g.adj, g.n, t1, t2, least)) == want
    assert set(_extensions(g.adj, g.n, t1, t2)) == naive


@pytest.mark.parametrize("pair", EXTENSION_PAIRS)
def test_extensions_match_naive_on_every_good_parent(pair):
    t1, t2 = targets.parse_target_list(pair)
    level = [Graph.empty(1)]
    for _ in range(5):
        for g in level:
            assert_extensions_match_naive(g, t1, t2)
        level = extend_level(level, t1, t2)


@pytest.mark.parametrize("pair", EXTENSION_PAIRS)
def test_extensions_match_naive_on_every_labeled_graph(pair):
    # good or not: a parent holding t1, or whose complement holds t2, has none
    t1, t2 = targets.parse_target_list(pair)
    for n in range(1, 5):
        for g in all_graphs(n):
            assert_extensions_match_naive(g, t1, t2)


def test_all_graphs_match_oeis_a000088():
    # K9 is out of reach below order 9, so every graph up to order 8 is good
    k9 = targets.clique(9)
    stats = enumerate_good(k9, k9, 8)
    assert [r.count for r in stats.levels] == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_triangle_free_graphs_match_oeis_a006785():
    # R(3,12) is far above 10, so only the triangle side constrains the levels
    stats = enumerate_good(K3, targets.clique(12), 10)
    assert [r.count for r in stats.levels] == [
        1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172
    ]


@pytest.mark.parametrize("pair, order", [("K3,J7", 7), ("K9,K9", 6)])
def test_chunks_of_a_level_extend_to_disjoint_parts_of_the_next(pair, order):
    # each class comes from its canonical parent alone, whichever chunk that is in
    t1, t2 = targets.parse_target_list(pair)
    level = [Graph.empty(1)]
    for _ in range(order - 1):
        level = extend_level(level, t1, t2)
    whole = [canonical_form(g) for g in extend_level(level, t1, t2)]
    shuffled = list(level)
    random.Random(order).shuffle(shuffled)
    seen: set[bytes] = set()
    for start, stop in [(0, 1), (1, 8), (8, 40), (40, len(shuffled))]:
        part = {canonical_form(g) for g in extend_level(shuffled[start:stop], t1, t2)}
        assert not part & seen
        seen |= part
    assert seen == set(whole)


@pytest.mark.parametrize("pair, order", [("K3,J7", 7), ("K9,K9", 5)])
def test_parents_extend_alike_in_any_labeling(pair, order):
    # extend_level reads each parent in its own labels
    t1, t2 = targets.parse_target_list(pair)
    level = [Graph.empty(1)]
    for _ in range(order - 1):
        level = extend_level(level, t1, t2)
    rng = random.Random(order)
    shuffled = [relabeled(g, rng.sample(range(g.n), g.n)) for g in level]
    assert shuffled != level
    assert extend_level(shuffled, t1, t2) == extend_level(level, t1, t2)


def test_k3e_j4_levels_match_brute_force():
    expected = brute_level_counts(K3E, J4, 5)
    stats = enumerate_good(K3E, J4, 7)
    assert [r.count for r in stats.levels[:5]] == expected
    assert stats.levels[6].count == 0  # R(K3+e, J4) = 7


def test_table_prefix_counts_and_edge_ranges():
    stats = enumerate_good(K3, J7, 7)
    rows = [(r.order, r.count, r.edge_range) for r in stats.levels]
    assert rows == [
        (1, 1, "0"),
        (2, 2, "0-1"),
        (3, 3, "0-2"),
        (4, 7, "0-4"),
        (5, 14, "0-6"),
        (6, 38, "0-9"),
        (7, 105, "2-12"),
    ]


def test_extension_matches_brute_force_for_k3_j7():
    for n in (3, 4, 5):
        expected = brute_level_counts(K3, J7, n)[-1]
        level = [Graph.empty(1)]
        for _ in range(n - 1):
            level = extend_level(level, K3, J7)
        assert len(level) == expected


def test_emitted_graphs_are_good_and_hereditary():
    level = [Graph.empty(1)]
    for _ in range(5):
        prev = {canonical_form(g) for g in level}
        level = extend_level(level, K3, J7)
        for g in level:
            assert is_good(g, K3, J7)
            dropped = {canonical_form(without_vertex(g, v)) for v in range(g.n)}
            assert dropped <= prev


def test_extension_is_idempotent_and_order_insensitive():
    level = [Graph.empty(1)]
    for _ in range(4):
        level = extend_level(level, K3, J7)
    first = [canonical_form(g) for g in extend_level(level, K3, J7)]
    second = [canonical_form(g) for g in extend_level(list(reversed(level)), K3, J7)]
    assert first == second
    assert first == sorted(first)


def test_archives_written_per_level(tmp_path):
    from ramseykit.graph6 import iter_graph6

    enumerate_good(K3, J7, 4, emit_dir=str(tmp_path))
    path = tmp_path / "good_K3_J7_n4.g6"
    assert path.exists()
    with open(path, encoding="ascii") as fh:
        graphs = list(iter_graph6(fh))
    assert len(graphs) == 7
    assert all(is_good(g, K3, J7) for g in graphs)


def archive_digest(t1, t2, n, emit_dir, jobs=1):
    """sha256 (first 16 hex digits) of the archives of orders 1..n, in order."""
    enumerate_good(t1, t2, n, emit_dir=str(emit_dir), jobs=jobs)
    h = hashlib.sha256()
    for k in range(1, n + 1):
        h.update((emit_dir / archive_filename(t1, t2, k)).read_bytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "pair, n, digest",
    [
        ("K3,J7", 9, "147a9c233e043712"),
        ("K3e,J4", 7, "eed17e093cf89f94"),
        ("J4,J5", 8, "18c486d857b37d03"),
        ("K4,K4", 8, "1069b70bd4d03c0b"),
        ("C5,K4", 8, "e467b914a9fb2084"),
        ("K3,K5mP3", 8, "eaae86c12a5529bd"),
    ],
)
def test_archive_bytes_are_pinned(pair, n, digest, tmp_path):
    # canonical representatives sorted by key: the bytes depend on no labeling
    t1, t2 = targets.parse_target_list(pair)
    assert archive_digest(t1, t2, n, tmp_path) == digest


@pytest.mark.parametrize(
    "pair, n, jobs",
    [
        ("K3,J7", 9, 2),  # 38 subtrees below order 6 go to the pool
        ("K3,J7", 9, 3),  # 105 subtrees below order 7
        ("K3,K3", 7, 2),  # the tree dies out before any level has 32 classes
        ("K3,J7", 5, 2),  # the frontier reaches n_max with 14 classes
    ],
)
def test_jobs_do_not_change_the_result(pair, n, jobs, tmp_path):
    t1, t2 = targets.parse_target_list(pair)
    serial = enumerate_good(t1, t2, n, jobs=1)
    parallel = enumerate_good(t1, t2, n, jobs=jobs)
    assert serial.as_tsv() == parallel.as_tsv()
    assert archive_digest(t1, t2, n, tmp_path / "serial", jobs=1) == archive_digest(
        t1, t2, n, tmp_path / "parallel", jobs=jobs
    )


def test_levels_above_the_split_are_expanded_once(monkeypatch):
    # K3,J7 to 9 at two jobs splits at order 6 (38 classes): this process
    # expands each of the 27 classes of orders 1-5 once, and the pool the rest
    orders = []
    children = enumeration._children

    def counted(rec, *args):
        orders.append(len(rec.adj))
        return children(rec, *args)

    monkeypatch.setattr(enumeration, "_children", counted)
    enumerate_good(K3, J7, 9, jobs=2)
    assert Counter(orders) == {1: 1, 2: 2, 3: 3, 4: 7, 5: 14}


def test_only_emitted_classes_are_relabeled(monkeypatch, tmp_path):
    calls = []
    relabel = enumeration.relabel_canonical

    def counted(*args):
        calls.append(args)
        return relabel(*args)

    monkeypatch.setattr(enumeration, "relabel_canonical", counted)
    stats = enumerate_good(K3, J7, 8)
    assert calls == []
    enumerate_good(K3, J7, 8, emit_dir=str(tmp_path))
    assert len(calls) == sum(row.count for row in stats.levels) == 562
    level = [Graph.empty(1)]
    for _ in range(4):
        del calls[:]
        level = extend_level(level, K3, J7)
        assert len(calls) == len(level)


@pytest.mark.parametrize("pair, n", [("K3,J7", 8), ("K4,K4", 7)])
def test_records_carry_generators_over_their_own_labels(pair, n):
    # the orbit test reads gens against adj, so both must share one labeling
    t1, t2 = targets.parse_target_list(pair)
    level = [_ClassRec((0,), (0,), ())]
    checked = 0
    for _ in range(n - 1):
        children = [item for rec in level for item in _children(rec, t1, t2)]
        for key, rec in children:
            g = Graph(len(rec.adj), rec.adj)
            assert canon_raw(g.n, g.adj)[:2] == (key, rec.order)
            for perm in rec.gens:
                assert relabeled(g, perm) == g
            checked += len(rec.gens)
        level = [rec for _, rec in children]
    assert checked > 500


def test_orbit_min_follows_the_orbit_past_larger_masks():
    # the 3-cycle 0 -> 1 -> 2 -> 0 on bits: mask 0b010 maps to 0b100, then
    # to 0b001, which is smaller
    gens = [(1, 2, 0)]
    assert not _orbit_min(0b010, gens)
    assert _orbit_min(0b001, gens)


def test_orbit_min_is_exact_on_every_mask():
    # s passes exactly when no automorphism maps it to a smaller mask
    for n in range(1, 6):
        for g in all_graphs(n):
            gens = canon_raw(g.n, g.adj)[2]
            autos = brute_automorphisms(g)
            for s in range(1 << n):
                images = [sum(1 << p[v] for v in range(n) if s >> v & 1) for p in autos]
                assert _orbit_min(s, gens) == (s == min(images))


def capped_orbit_min(cap):
    """An orbit test that gives up after ``cap`` orbit members and keeps the
    mask: it never drops a least member, but it is not exact."""

    def orbit_min(s, gens):
        seen = {s}
        stack = [s]
        while stack:
            cur = stack.pop()
            for g in gens:
                img = sum(1 << g[v] for v in range(len(g)) if cur >> v & 1)
                if img < s:
                    return False
                if img not in seen:
                    if len(seen) >= cap:
                        return True
                    seen.add(img)
                    stack.append(img)
        return True

    return orbit_min


@pytest.mark.parametrize("cap", [0, 1])
def test_orbit_cap_stops_the_search_and_keeps_the_mask(cap):
    # on the 3-cycle, a search capped at one orbit member stops before it
    # reaches 0b001 and keeps 0b010; the enumerator's search has no cap
    gens = [(1, 2, 0)]
    assert capped_orbit_min(cap)(0b010, gens)
    assert not _orbit_min(0b010, gens)
    assert capped_orbit_min(cap)(0b001, gens) and _orbit_min(0b001, gens)


@pytest.mark.parametrize("pair, n", [("K3,J7", 9), ("K4,K4", 8), ("K9,K9", 7)])
@pytest.mark.parametrize("cap", [0, 1])
def test_orbit_cap_only_bounds_pruning(pair, n, cap, monkeypatch, tmp_path):
    # a capped orbit search keeps candidates it could not rule out: more
    # children reach the labeler and some class comes through twice, but
    # the deletion test still finds every class and no other. The orbit
    # test only prunes work; its exactness is what keeps the lines distinct
    t1, t2 = targets.parse_target_list(pair)
    calls = [0]
    label = enumeration.canon_raw

    def counted(*args):
        calls[0] += 1
        return label(*args)

    monkeypatch.setattr(enumeration, "canon_raw", counted)
    enumerate_good(t1, t2, n, emit_dir=str(tmp_path / "exact"))
    exact_calls = calls[0]
    monkeypatch.setattr(enumeration, "_orbit_min", capped_orbit_min(cap))
    enumerate_good(t1, t2, n, emit_dir=str(tmp_path / "capped"))
    assert calls[0] - exact_calls > exact_calls
    repeats = 0
    for k in range(1, n + 1):
        name = archive_filename(t1, t2, k)
        exact = (tmp_path / "exact" / name).read_text().splitlines()
        capped = (tmp_path / "capped" / name).read_text().splitlines()
        assert sorted(set(capped)) == exact
        repeats += len(capped) - len(exact)
    assert repeats > 0


@pytest.mark.parametrize("pair, n", [("K3,J7", 9), ("K4,K4", 8), ("K9,K9", 7)])
def test_children_of_a_parent_have_distinct_keys(pair, n):
    # no per-parent dedupe: the exact orbit test alone keeps one S per class
    t1, t2 = targets.parse_target_list(pair)
    level = [_ClassRec((0,), (0,), ())]
    for _ in range(n - 1):
        children = []
        for rec in level:
            mine = _children(rec, t1, t2)
            assert len({key for key, _ in mine}) == len(mine)
            children += mine
        assert len({key for key, _ in children}) == len(children)
        level = [rec for _, rec in children]
    assert level


@pytest.mark.parametrize("pair, n", [("K3,J7", 9), ("K9,K9", 6)])
def test_graph6_text_order_is_key_order(pair, n):
    # archives sort graph6 lines as text: a canonical graph's graph6 data
    # bits are its key's bits, so text order and key order agree
    t1, t2 = targets.parse_target_list(pair)
    level = [Graph.empty(1)]
    for order in range(1, n + 1):
        if order > 1:
            level = extend_level(level, t1, t2)
        keys = [canonical_form(g) for g in level]
        lines = [emit_graph6(g) for g in level]
        assert [line for _, line in sorted(zip(keys, lines))] == sorted(lines)
        m = order * (order - 1) // 2
        for key, line in zip(keys, lines):
            assert key[0] == order and ord(line[0]) - 63 == order
            key_bits = "".join(f"{b:08b}" for b in key[1:])
            line_bits = "".join(f"{ord(c) - 63:06b}" for c in line[1:])
            assert key_bits[:m] == line_bits[:m]
            assert set(key_bits[m:] + line_bits[m:]) <= {"0"}


def labeling_children(rec, t1, t2):
    """A child step that labels every candidate passing the tie and orbit
    tests and reads the deletion test off the labeling alone. Each labeling
    starts, as the enumerator's does, from the parent generators that map S
    onto itself, each extended to fix the new vertex. Returns its children
    and the number of labelings."""
    adj = rec.adj
    n = len(adj)
    bit = 1 << n
    deg = [row.bit_count() for row in adj]
    nsum = [sum(deg[u] for u in range(n) if row >> u & 1) for row in adj]
    by_deg = [sum(1 << v for v in range(n) if deg[v] == d) for d in range(n + 1)]
    out, labeled = [], 0
    for s in _extensions(adj, n, t1, t2):
        k = s.bit_count()
        if k < max(deg) or by_deg[k] & s:
            continue  # an old vertex has the larger degree
        ties = _new_vertex_ties(adj, deg, nsum, by_deg, s)
        if ties is None or not _orbit_min(s, rec.gens):
            continue
        child = tuple(row | bit if s >> v & 1 else row for v, row in enumerate(adj)) + (s,)
        members = {v for v in range(n) if s >> v & 1}
        known = [g + (n,) for g in rec.gens if {g[v] for v in members} == members]
        key, order, gens = canon_raw(n + 1, child, None, known)
        labeled += 1
        m = next(v for v in order if (ties | bit) >> v & 1)
        if m == n or n in orbit_closure([m], gens):
            out.append((key, _ClassRec(child, order, tuple(gens))))
    return out, labeled


def test_root_partition_refuses_only_children_the_labeling_refuses(monkeypatch):
    # _children refuses a child before labeling it when the first root cell
    # meeting the ties lacks the new vertex: it must keep the same children,
    # with the same keys, labelings and generators, while labeling fewer
    calls = [0]
    label = enumeration.canon_raw

    def counted(*args):
        calls[0] += 1
        return label(*args)

    monkeypatch.setattr(enumeration, "canon_raw", counted)
    refused = {}
    for pair, n in [("K3,J7", 9), ("K4,K4", 8), ("K3e,J4", 7), ("K9,K9", 6)]:
        t1, t2 = targets.parse_target_list(pair)
        level = [_ClassRec((0,), (0,), ())]
        calls[0] = labeled = 0
        for _ in range(n - 1):
            children = []
            for rec in level:
                mine = _children(rec, t1, t2)
                want, count = labeling_children(rec, t1, t2)
                assert mine == want
                labeled += count
                children += mine
            level = [rec for _, rec in children]
        refused[pair] = labeled - calls[0]
    assert min(refused.values()) >= 0
    assert refused["K3,J7"] > 0 and refused["K4,K4"] > 0


@pytest.mark.parametrize("pair, n", [("K3,J7", 9), ("K9,K9", 6)])
def test_emitted_graphs_pass_the_validating_constructor(pair, n):
    # extend_level builds its graphs without Graph's check, from rows it
    # derived from validated ones; each must pass that check all the same
    t1, t2 = targets.parse_target_list(pair)
    level = [Graph.empty(1)]
    for _ in range(n - 1):
        level = extend_level(level, t1, t2)
        for g in level:
            assert type(g) is Graph and g == Graph(g.n, g.adj)
    assert level
    g = level[-1]
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(g.n, g.adj[:-1] + (g.adj[-1] ^ 1,))


def test_archive_lines_parse_back_to_their_classes(tmp_path):
    enumerate_good(K3, J7, 9, emit_dir=str(tmp_path))
    level = [Graph.empty(1)]
    for k in range(1, 10):
        if k > 1:
            level = extend_level(level, K3, J7)
        lines = (tmp_path / archive_filename(K3, J7, k)).read_text().splitlines()
        assert [parse_graph6(line) for line in lines] == level


def new_vertex_ties(adj):
    """Does an old vertex share the last vertex's (degree, neighbour-degree sum)?"""
    deg = [row.bit_count() for row in adj]
    inv = [
        (deg[v], sum(deg[u] for u in range(len(adj)) if row >> u & 1))
        for v, row in enumerate(adj)
    ]
    return inv[-1] in inv[:-1]


def test_counting_walk_labels_no_tie_free_child_of_its_last_order(monkeypatch, tmp_path):
    # without archives, a child of the last order whose new vertex has no
    # tie is counted from S alone: no root cells and no labeling are made
    # for it, and the tallies are those of the walk that emits every class
    calls = Counter()
    walk = [None]  # "emit" or "count"; None for calls not counted

    def watched(name, adj_at):
        inner = getattr(enumeration, name)

        def wrapper(*args):
            adj = args[adj_at]
            calls[name, walk[0], len(adj)] += 1
            if walk[0] == "count" and len(adj) == n:
                assert new_vertex_ties(adj)
            return inner(*args)

        monkeypatch.setattr(enumeration, name, wrapper)

    watched("canon_raw", 1)
    watched("root_cells", 0)
    skipped = {}
    for pair, n in [("K3,J7", 10), ("K4,K4", 8), ("K3e,J4", 8), ("K9,K9", 7)]:
        t1, t2 = targets.parse_target_list(pair)
        calls.clear()
        walk[0] = "emit"
        want = enumerate_good(t1, t2, n, emit_dir=str(tmp_path / pair)).as_tsv()
        walk[0] = "count"
        assert enumerate_good(t1, t2, n).as_tsv() == want
        walk[0] = None  # workers count apart from this process
        assert enumerate_good(t1, t2, n, jobs=2).as_tsv() == want
        for name in ("canon_raw", "root_cells"):
            for k in range(1, n):
                assert calls[name, "count", k] == calls[name, "emit", k]
        skipped[pair] = calls["canon_raw", "emit", n] - calls["canon_raw", "count", n]
        assert calls["root_cells", "emit", n] - calls["root_cells", "count", n] == skipped[pair]
    assert skipped["K3,J7"] > 0 and skipped["K4,K4"] > 0 and skipped["K9,K9"] > 0
    assert skipped["K3e,J4"] == 0  # R(K3+e, J4) = 7: the last order is empty


@pytest.mark.parametrize(
    "pair, n_max", [("K3,J7", 8), ("K3e,J4", 7), ("K4,K4", 7)], ids=str
)
def test_labeled_mass_of_each_level_matches_its_one_vertex_extensions(pair, n_max):
    """Sum over classes C of order n+1 of (n+1)!/|Aut C| equals the sum over
    classes G of order n of n!/|Aut G| times the number of vertex sets S
    for which G plus a vertex joined to S is good: both count the labeled
    good graphs of order n+1. S is counted by ``is_good`` on every subset."""
    t1, t2 = (targets.parse_target(tok) for tok in pair.split(","))
    level = [Graph(1, (0,))]
    for n in range(1, n_max):
        extended = 0
        for g in level:
            ways = 0
            for s in range(1 << n):
                rows = tuple(row | (s >> v & 1) << n for v, row in enumerate(g.adj))
                ways += is_good(Graph(n + 1, rows + (s,)), t1, t2)
            extended += factorial(n) // group_order(n, canon_raw(n, g.adj)[2]) * ways
        level = extend_level(level, t1, t2)
        mass = sum(
            factorial(n + 1) // group_order(n + 1, canon_raw(n + 1, c.adj)[2])
            for c in level
        )
        assert mass == extended, f"order {n + 1}"
