from itertools import combinations

import pytest

from ramseykit.sat import BudgetExceededError, CnfFormula, sat_solve, write_dimacs


def pigeonhole(pigeons, holes):
    var = lambda i, j: i * holes + j + 1
    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i1, i2 in combinations(range(pigeons), 2):
            clauses.append((-var(i1, j), -var(i2, j)))
    return CnfFormula(pigeons * holes, clauses)


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
