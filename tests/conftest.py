import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import drup_refutes, permutes_clauses  # noqa: E402
from ramseykit import split  # noqa: E402
from ramseykit.sat import sat_solve  # noqa: E402


@pytest.fixture
def checked_split(monkeypatch):
    """``checked_split(g, t1, t2)`` decides the split with the SAT engine of
    ``is_splittable`` and returns (verdict, number of edge automorphisms it
    broke). An UNSAT verdict is checked on the very formula solved: it is
    the copy clauses of ``g`` numbered by :func:`split.degree_order` plus
    the lex-leader chains of that graph's automorphisms, each of them maps
    the copy clauses onto themselves, and the solver's DRUP log refutes
    it."""
    solved = []

    def spy(f, max_conflicts=None):
        solved.append(f)
        return sat_solve(f, max_conflicts)

    monkeypatch.setattr(split, "sat_solve", spy)

    def check(g, t1, t2):
        solved.clear()
        ok, _ = split.is_splittable(g, [t1, t2], engine="sat")
        _, h = split.degree_order(g)
        f = split.encode_split_cnf(h, t1, t2)
        perms = split.edge_automorphisms(h, f.edges)
        if not ok:
            assert solved == [split.lex_leader_cnf(f, perms)]
            assert permutes_clauses(f.clauses, perms)
            broken, proof = solved[0], []
            assert sat_solve(broken, proof=proof) is None
            assert drup_refutes(broken.var_count, broken.clauses, proof)
        return ok, len(perms)

    return check
