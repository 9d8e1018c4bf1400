import hashlib
import random
from itertools import combinations

import pytest

from oracles import brute_satisfiable, drup_refutes, satisfies
from ramseykit import targets
from ramseykit.constructions import schlafli
from ramseykit.graph6 import parse_graph6
from ramseykit.graphs import Graph, complement
from ramseykit.sat import BudgetExceededError, CnfFormula, _Cdcl, sat_solve, write_dimacs
from ramseykit.split import degree_order, edge_automorphisms, encode_split_cnf, lex_leader_cnf

K3 = targets.clique(3)
J4 = targets.clique_minus_edge(4)
K3E = targets.triangle_plus_pendant()
J7 = targets.clique_minus_edge(7)


def pigeonhole(pigeons, holes):
    var = lambda i, j: i * holes + j + 1
    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i1, i2 in combinations(range(pigeons), 2):
            clauses.append((-var(i1, j), -var(i2, j)))
    return CnfFormula(pigeons * holes, clauses)


def random_3cnf(seed, nvars, ratio):
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(nvars * ratio)):
        vs = rng.sample(range(1, nvars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(nvars, clauses)


def host_formula(text):
    """(K3, J4)-split CNF of the complement of a graph6 host."""
    return encode_split_cnf(complement(parse_graph6(text)), K3, J4)


def broken_formula(g):
    """The (K3, J4)-split CNF of ``g`` under lex-leader symmetry breaking."""
    f = encode_split_cnf(g, K3, J4)
    return lex_leader_cnf(f, edge_automorphisms(g, f.edges))


def broken_formula_as_read(text):
    """The broken split CNF of a graph6 host's complement in the labels the
    graph6 text gives it."""
    return broken_formula(complement(parse_graph6(text)))


def broken_formula_as_solved(text):
    """The formula ``is_splittable`` solves for a graph6 host: the broken
    split CNF of its complement numbered by :func:`degree_order`."""
    return broken_formula(degree_order(complement(parse_graph6(text)))[1])


# Two order-16 (K3, J7)-good hosts: the first one's complement splits into
# (K3, J4), the second one's does not.
SPLIT_HOST = "Ohh[dHIQC`cQUPC[CPSGJ"
UNSPLIT_HOST = "OF`GtKSoiRCbYGCPwS`Ob"


def test_rejects_empty_clause():
    with pytest.raises(ValueError, match="empty"):
        CnfFormula(1, [()])


def test_rejects_out_of_range_literal():
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula(1, [(2,)])


def test_rejects_edge_tuple_of_wrong_length():
    with pytest.raises(ValueError, match="edges"):
        CnfFormula(2, [(1, -2)], ((0, 1),))
    with pytest.raises(ValueError, match="edges"):
        CnfFormula(1, [(1,)], ((0, 1), (0, 2)))


def test_single_variable():
    assert sat_solve(CnfFormula(1, [(1,)])) == (True,)
    assert sat_solve(CnfFormula(1, [(-1,)])) == (False,)


def test_empty_formula_is_sat_with_empty_assignment():
    assert sat_solve(CnfFormula(0, [])) == ()


def test_contradiction_is_unsat():
    assert sat_solve(CnfFormula(1, [(1,), (-1,)])) is None


def test_model_satisfies_every_clause():
    f = CnfFormula(4, [(1, 2), (-1, 3), (-2, -3), (3, 4), (-4, 1)])
    model = sat_solve(f)
    assert model is not None
    for clause in f.clauses:
        assert any(model[abs(l) - 1] == (l > 0) for l in clause)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_pigeonhole_unsat(n):
    assert sat_solve(pigeonhole(n, n - 1)) is None


def test_pigeonhole_sat_when_holes_suffice():
    assert sat_solve(pigeonhole(5, 5)) is not None


def test_budget_error_is_distinct_from_unsat():
    with pytest.raises(BudgetExceededError):
        sat_solve(pigeonhole(9, 8), max_conflicts=10)


def test_deterministic_models():
    first, second = pigeonhole(6, 6), pigeonhole(6, 6)
    model = sat_solve(first)
    assert model is not None
    assert sat_solve(second) == model
    for clause in first.clauses:
        assert any(model[abs(l) - 1] == (l > 0) for l in clause)


def test_branching_agrees_on_verdicts():
    assert sat_solve(pigeonhole(5, 4)) is None
    assert sat_solve(pigeonhole(4, 4)) is not None


def test_dimacs_trivial_formula():
    assert write_dimacs(CnfFormula(1, [(1,)])) == "p cnf 1 1\n1 0\n"


def test_dimacs_header_counts_match_lines():
    f = pigeonhole(4, 3)
    text = write_dimacs(f)
    lines = text.strip().splitlines()
    head = lines[0].split()
    assert head[:2] == ["p", "cnf"]
    clause_lines = [ln for ln in lines[1:] if not ln.startswith("c")]
    assert int(head[3]) == len(clause_lines)
    assert all(ln.endswith(" 0") for ln in clause_lines)


def test_dimacs_records_edge_map():
    f = CnfFormula(2, [(1, -2)], ((0, 1), (0, 2)))
    text = write_dimacs(f)
    assert "c edge 0 1 var 1" in text
    assert "c edge 0 2 var 2" in text


# The DIMACS text of split formulas at host scale, pinned by sha256: the
# edge map, the copy order and each clause's literal order all show in it.
ENCODED = [
    pytest.param(
        lambda: complement(parse_graph6(SPLIT_HOST)),
        K3,
        J4,
        "d0b300eb3e3e79cad9c020348414a184af48100b8edcd04bed3981782dc5ccc8",
        id="split-host-K3-J4",
    ),
    pytest.param(
        lambda: complement(parse_graph6(UNSPLIT_HOST)),
        K3,
        J4,
        "d3cd5be80dc2d76936c16a4b48ff941ea4c0a8e9bd12878e3ff20bea16742cd9",
        id="unsplit-host-K3-J4",
    ),
    pytest.param(
        lambda: complement(schlafli()),
        J4,
        J4,
        "aeb97671daa3e99b1bbbefc57c89eee9e08b59a59f170fbcbd3e1847883e9854",
        id="schlafli-complement-J4-J4",
    ),
    pytest.param(
        lambda: J7.pattern(),
        K3E,
        J4,
        "59e0c2f176ce12cf1d674c231c0434b5faf3b9a9c5f5b2a31a7223fa8bd9a31b",
        id="J7-K3e-J4",
    ),
]


@pytest.mark.parametrize("build, t1, t2, digest", ENCODED)
def test_encoded_text_is_pinned_at_host_scale(build, t1, t2, digest):
    text = write_dimacs(encode_split_cnf(build(), t1, t2))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The solver is deterministic, so a model pins its whole search path: watch
# order, literal swaps, clause order, restarts, clause-database reduction and
# the decision tie-break. Digests are sha256 of bytes(model), with the
# conflict budget each run needs exactly; the random 3-CNF runs long enough
# to reduce the learnt clauses twice and to rescale the activities.
PINNED_MODELS = [
    pytest.param(
        lambda: pigeonhole(6, 6),
        0,
        "5ced38dcb8c03613bb24575406739b8a8bdc4c51a786a6dd5acb929883255125",
        id="pigeonhole(6,6)",
    ),
    pytest.param(
        lambda: encode_split_cnf(Graph.complete(5), K3, K3),
        None,
        "700cec509e992fae2da30b6c0f5ab519e0238eedfea1578f7cd6afc06f432973",
        id="K5-K3-K3",
    ),
    pytest.param(
        lambda: host_formula(SPLIT_HOST),
        174,
        "180cff6b31551691bdeb30fa1037fe709ccce6f9fcd9be14a4b48bec76e6e4be",
        id="host-K3-J4",
    ),
    pytest.param(
        lambda: random_3cnf(21, 180, 4.18),
        4549,
        "78c3bd6118d4117eadec61c546007ae3d1e3e948c1426319ab094cbb3f40cc38",
        id="random-3cnf",
    ),
]


@pytest.mark.parametrize("build, budget, digest", PINNED_MODELS)
def test_models_match_recorded_search_path(build, budget, digest):
    f = build()
    model = sat_solve(f, max_conflicts=budget)
    assert model is not None and satisfies(model, f.clauses)
    assert hashlib.sha256(bytes(model)).hexdigest() == digest


@pytest.mark.parametrize(
    "build, conflicts, verdict",
    [
        pytest.param(lambda: pigeonhole(6, 5), 144, False, id="pigeonhole(6,5)"),
        pytest.param(lambda: pigeonhole(7, 6), 846, False, id="pigeonhole(7,6)"),
        pytest.param(lambda: host_formula(SPLIT_HOST), 174, True, id="split-host"),
        pytest.param(lambda: host_formula(UNSPLIT_HOST), 602, False, id="unsplit-host"),
        pytest.param(lambda: broken_formula_as_read(SPLIT_HOST), 115, True, id="broken-split-host"),
        pytest.param(
            lambda: broken_formula_as_read(UNSPLIT_HOST), 187, False, id="broken-unsplit-host"
        ),
        pytest.param(
            lambda: broken_formula_as_solved(SPLIT_HOST), 129, True, id="solved-split-host"
        ),
        pytest.param(
            lambda: broken_formula_as_solved(UNSPLIT_HOST), 158, False, id="solved-unsplit-host"
        ),
    ],
)
def test_budget_trips_at_the_recorded_conflict_count(build, conflicts, verdict):
    f = build()
    with pytest.raises(BudgetExceededError):
        sat_solve(f, max_conflicts=conflicts - 1)
    assert (sat_solve(f, max_conflicts=conflicts) is not None) == verdict


def random_cnf(rng, family):
    """A small random CNF of one family, as (variable count, clauses)."""
    if family == "copy-like":
        # a split CNF's shape: all-positive 3-clauses, then all-negative 5-clauses
        n = rng.randint(5, 12)
        p, q = rng.uniform(0.2, 1), rng.uniform(0.2, 1)
        pos = [c for c in combinations(range(1, n + 1), 3) if rng.random() < p]
        neg = [c for c in combinations(range(-n, 0), 5) if rng.random() < q]
        return n, pos + neg
    if family == "long":
        # clause lengths 1..n over distinct variables, and some over all n:
        # the replacement-watch scan runs over every clause length it meets
        n = rng.randint(1, 12)
        sign = lambda v: rng.choice((1, -1)) * v
        clauses = [
            tuple(sign(v) for v in rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 4 * n))
        ]
        clauses += [tuple(sign(v) for v in range(1, n + 1)) for _ in range(rng.randint(1, 3))]
        rng.shuffle(clauses)
        return n, clauses
    n = rng.randint(1, 12)
    lit = lambda: rng.choice((1, -1)) * rng.randint(1, n)
    clauses = [
        tuple(lit() for _ in range(rng.randint(2, 4))) for _ in range(rng.randint(1, 5 * n))
    ]
    if family == "units":
        clauses += [(lit(),) for _ in range(rng.randint(1, 3))]
    elif family == "repeats":
        clauses = [cl + cl[:1] for cl in clauses]
    elif family == "tautologies":
        v = rng.randint(1, n)
        clauses = [cl + (v, -v) if i % 3 == 0 else cl for i, cl in enumerate(clauses)]
    rng.shuffle(clauses)
    return n, clauses


@pytest.mark.parametrize(
    "family", ["mixed", "units", "repeats", "tautologies", "copy-like", "long"]
)
def test_verdicts_match_brute_force(family):
    rng = random.Random(f"sat-{family}")
    verdicts = set()
    for _ in range(150):
        n, clauses = random_cnf(rng, family)
        f = CnfFormula(n, clauses)
        model = sat_solve(f)
        assert (model is not None) == brute_satisfiable(n, clauses), clauses
        if model is not None:
            assert len(model) == n and all(isinstance(x, bool) for x in model)
            assert satisfies(model, clauses), clauses
        verdicts.add(model is not None)
    assert verdicts == {True, False}


def set_intake(nvars, clauses):
    """The solver's clause intake with one set per clause: literal v + 1 is
    2v and -(v + 1) is 2v + 1, a tautology is dropped, the rest sorted. As
    (kept clauses, watch lists, root trail of the units, unit conflict)."""
    kept, watches, units = [], [[] for _ in range(2 * nvars)], []
    for cl in clauses:
        litset = {2 * (abs(l) - 1) + (l < 0) for l in cl}
        if any(lit ^ 1 in litset for lit in litset):
            continue
        lits = sorted(litset)
        if len(lits) == 1:
            units.append(lits[0])
            continue
        kept.append(lits)
        watches[lits[0]].append(lits)
        watches[lits[1]].append(lits)
    trail = []
    for lit in units:
        if lit ^ 1 in trail:
            return kept, watches, trail, True
        if lit not in trail:
            trail.append(lit)
    return kept, watches, trail, False


def intake_cases(rng, family):
    """Seeded CNFs for the intake: :func:`random_cnf`'s families, units with
    their negations, and wide clauses drawn with replacement."""
    if family == "contradictory":
        n, clauses = random_cnf(rng, "units")
        clauses += [(v,) for v in rng.sample(range(-n, 0), rng.randint(1, n))]
        clauses += [(v,) for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
        rng.shuffle(clauses)
        return n, clauses
    if family == "wide":
        n = rng.randint(20, 60)
        lit = lambda: rng.choice((1, -1)) * rng.randint(1, n)
        return n, [tuple(lit() for _ in range(rng.randint(1, 80))) for _ in range(20)]
    return random_cnf(rng, family)


@pytest.mark.parametrize(
    "family",
    ["mixed", "units", "repeats", "tautologies", "copy-like", "long", "contradictory", "wide"],
)
def test_intake_matches_the_set_based_intake(family):
    rng = random.Random(f"intake-{family}")
    conflicts = 0
    for _ in range(150):
        n, clauses = intake_cases(rng, family)
        s = _Cdcl(n, clauses, None)
        assert (s.clauses, s.watches, s.trail, s.unsat_root) == set_intake(n, clauses)
        # propagation moves literals inside the watched lists themselves
        for c in s.clauses:
            assert any(w is c for w in s.watches[c[0]]) and any(w is c for w in s.watches[c[1]])
        conflicts += s.unsat_root
    assert conflicts > 0 or family != "contradictory"


@pytest.mark.parametrize(
    "build",
    [
        lambda: host_formula(SPLIT_HOST),
        lambda: broken_formula_as_read(UNSPLIT_HOST),
        lambda: broken_formula_as_solved(UNSPLIT_HOST),
    ],
    ids=["split-host", "broken-unsplit-host", "solved-unsplit-host"],
)
def test_intake_matches_the_set_based_intake_on_host_formulas(build):
    f = build()
    s = _Cdcl(f.var_count, f.clauses, None)
    assert (s.clauses, s.watches, s.trail, s.unsat_root) == set_intake(f.var_count, f.clauses)


def test_small_budgets_raise_or_answer_correctly():
    rng = random.Random("sat-budget")
    raised = 0
    for _ in range(300):
        n, clauses = random_cnf(rng, "mixed")
        try:
            model = sat_solve(CnfFormula(n, clauses), max_conflicts=0)
        except BudgetExceededError:
            raised += 1
            continue
        assert (model is not None) == brute_satisfiable(n, clauses), clauses
    assert 0 < raised < 300


def test_unsplit_host_refutation_under_breaking_is_proof_checked(checked_split):
    ok, broken = checked_split(complement(parse_graph6(UNSPLIT_HOST)), K3, J4)
    assert not ok and broken > 0


@pytest.mark.parametrize("build, budget, digest", PINNED_MODELS)
def test_proof_log_leaves_the_search_unchanged(build, budget, digest):
    proof: list[str] = []
    model = sat_solve(build(), max_conflicts=budget, proof=proof)
    assert hashlib.sha256(bytes(model)).hexdigest() == digest
    assert "0" not in proof  # SAT: no empty clause


def unsplit_host_refutation():
    broken = broken_formula_as_read(UNSPLIT_HOST)
    proof: list[str] = []
    assert sat_solve(broken, proof=proof) is None
    return broken, proof


def test_drup_checker_accepts_proofs_with_units_and_deletions():
    broken, proof = unsplit_host_refutation()
    assert proof[-1] == "0" and any(len(line.split()) == 2 for line in proof)
    assert drup_refutes(broken.var_count, broken.clauses, proof)
    assert not drup_refutes(broken.var_count, broken.clauses, proof[:-1])  # no empty clause
    f = pigeonhole(8, 7)  # long enough to forget learnt clauses
    proof = []
    assert sat_solve(f, proof=proof) is None
    assert sum(line.startswith("d ") for line in proof) > 0
    assert drup_refutes(f.var_count, f.clauses, proof)


def test_drup_checker_rejects_a_dropped_lemma_or_a_flipped_literal():
    broken, proof = unsplit_host_refutation()
    nv, clauses = broken.var_count, broken.clauses
    # many lemmas are redundant, so a mutant may still be a valid proof;
    # these are not: the first and the fourth lemma dropped or with their
    # first literal flipped, and the lemma before the empty clause dropped
    for i in (0, 3):
        assert not drup_refutes(nv, clauses, proof[:i] + proof[i + 1 :]), i
        first, rest = proof[i].split(" ", 1)
        flipped = f"{-int(first)} {rest}"
        assert not drup_refutes(nv, clauses, proof[:i] + [flipped] + proof[i + 1 :]), i
    assert not drup_refutes(nv, clauses, proof[:-2] + proof[-1:])
    assert not drup_refutes(nv, clauses, ["d 1 2 3 0"] + proof)  # not a clause
    assert not drup_refutes(nv, clauses, ["0"])  # no unit refutes it at once
