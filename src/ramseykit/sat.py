"""CNF formulas over graph edges and an embedded, deterministic SAT solver.

The solver is a conflict-driven clause-learning procedure: two watched
literals per clause, first-UIP conflict analysis with non-chronological
backjumping, geometric restarts and periodic forgetting of unhelpful
learned clauses. Everything is deterministic: no randomness, stable
tie-breaking, so a formula always produces the same run. Decisions follow
conflict-activity order with ties by variable index.

Inside the solver, CNF variable v + 1 is variable v, with literals 2v
(true) and 2v + 1 (false). The assignment is one value byte per literal,
as in MiniSat (Een & Sorensson 2003, "An Extensible SAT-solver"): both
polarities are set on assignment and cleared on backtrack, so propagation
reads a literal's value with one index, and variable v's value is the byte
of literal 2v.

Propagation looks for a clause's replacement watch among positions 2 to
len(c) - 1, in order. Each solver keeps those positions in a table ``tail``,
with ``tail[k] == tuple(range(2, k))``, grown to the longest clause it holds
(input clauses at construction, learnt clauses as they are added), so a scan
builds no object and visits the positions in the same order as a ``range``.

The intake maps an input clause's literals through a table and sorts them.
Only a clause with a repeated variable takes a set: its duplicate literals
go, and it goes whole when it is a tautology."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

Edge = tuple[int, int]

_UNSET, _TRUE, _FALSE = 0, 1, 2


class BudgetExceededError(RuntimeError):
    """The conflict budget, the one argument, ran out before a decision."""

    def __str__(self) -> str:
        return f"conflict budget {self.args[0]} exhausted"


@dataclass
class CnfFormula:
    """Clauses over 1-based variables; when ``edges`` is given, variable v
    stands for the host edge ``edges[v-1]``."""

    var_count: int
    clauses: list[tuple[int, ...]]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        nv = self.var_count
        lits = list(chain.from_iterable(self.clauses))
        in_range = -nv <= min(lits, default=0) and max(lits, default=0) <= nv
        if not (all(self.clauses) and in_range and 0 not in lits):
            # name the first empty clause or bad literal
            for i, cl in enumerate(self.clauses):
                if not cl:
                    raise ValueError(f"clause {i} is empty")
                for lit in cl:
                    if lit == 0 or abs(lit) > nv:
                        raise ValueError(f"clause {i} has literal {lit} out of range")
        if self.edges and len(self.edges) != self.var_count:
            raise ValueError(f"{len(self.edges)} edges for {self.var_count} variables")


def write_dimacs(f: CnfFormula) -> str:
    """Standard DIMACS CNF text; comments carry the edge-variable map."""
    lines = []
    for var, (u, v) in enumerate(f.edges, 1):
        lines.append(f"c edge {u} {v} var {var}")
    lines.append(f"p cnf {f.var_count} {len(f.clauses)}")
    for cl in f.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def sat_solve(
    f: CnfFormula, max_conflicts: int | None = None, proof: list[str] | None = None
) -> tuple[bool, ...] | None:
    """A satisfying assignment (tuple indexed by var-1) or None for UNSAT.

    Raises :class:`BudgetExceededError` when ``max_conflicts`` runs out,
    which is a resource outcome distinct from UNSAT.

    When ``proof`` is a list, the run appends a DRUP log to it (Wetzler,
    Heule & Hunt 2014), one DIMACS line per step: each learnt clause as it
    is added, units included, ``d``-prefixed the learnt clauses it forgets,
    and the empty clause ``0`` once it answers UNSAT.
    """
    solver = _Cdcl(f.var_count, f.clauses, proof)
    model = solver.solve(max_conflicts)
    if model is None:
        if proof is not None:
            proof.append("0")
        return None
    for cl in f.clauses:
        if not any(model[abs(lit) - 1] == (lit > 0) for lit in cl):
            raise AssertionError("internal error: model does not satisfy the formula")
    return model


def _dimacs_line(lits: list[int]) -> str:
    """A solver clause as a DIMACS clause line: literal 2v is v + 1, 2v + 1 is -(v + 1)."""
    return " ".join(str(-(q >> 1) - 1 if q & 1 else (q >> 1) + 1) for q in lits) + " 0"


class _Cdcl:
    def __init__(self, nvars: int, clauses: list[tuple[int, ...]], proof: list[str] | None):
        self.nv = nvars
        self.proof = proof
        self.val = bytearray(2 * nvars)  # per literal; val[2 * v] is variable v's value
        self.phase = bytearray(nvars)  # preferred value on decide; 0 means False
        self.level = [0] * nvars
        self.reason: list[list[int] | None] = [None] * nvars
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nvars)]
        self.clauses: list[list[int]] = []
        self.learnts: list[list[int]] = []
        self.lbd: list[int] = []  # lbd[i] belongs to learnts[i]
        self.activity = [0.0] * nvars
        self.act_inc = 1.0
        self.unsat_root = False
        self.tail: list[tuple[int, ...]] = [(), (), ()]  # tail[k] == tuple(range(2, k))
        # code[l]: DIMACS literal l as a solver literal, l < 0 by negative index
        code = [0] + list(range(0, 2 * nvars, 2)) + list(range(2 * nvars - 1, 0, -2))
        watches = self.watches
        units: list[int] = []
        for cl in clauses:
            lits: list[int] | None = sorted(map(code.__getitem__, cl))
            var = -1
            for q in lits:
                if q >> 1 == var:  # a repeated variable: drop duplicates and tautologies
                    litset = set(lits)
                    lits = None if any(lit ^ 1 in litset for lit in litset) else sorted(litset)
                    break
                var = q >> 1
            if lits is None:
                continue
            if len(lits) == 1:
                units.append(lits[0])
                continue
            self.clauses.append(lits)
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
        self._grow_tail(max(map(len, self.clauses), default=0))
        for lit in units:
            if self.val[lit] == _FALSE:
                self.unsat_root = True
                return
            if self.val[lit] == _UNSET:
                self._enqueue(lit, None)

    def _grow_tail(self, longest: int) -> None:
        tail = self.tail
        while len(tail) <= longest:
            tail.append(tail[-1] + (len(tail) - 1,))

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        var = lit >> 1
        self.val[lit] = _TRUE
        self.val[lit ^ 1] = _FALSE
        self.phase[var] = _FALSE if lit & 1 else _TRUE
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        trail, watches, val = self.trail, self.watches, self.val
        phase, level, reason, tail = self.phase, self.level, self.reason, self.tail
        true, false = _TRUE, _FALSE
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        conflict: list[int] | None = None
        while conflict is None and qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            ws = iter(watches[false_lit])
            keep: list[list[int]] = []
            for c in ws:
                # c watches false_lit in c[0] or c[1]; move it to c[1]
                first = c[0]
                if first == false_lit:
                    first = c[0] = c[1]
                    c[1] = false_lit
                if val[first] == true:
                    keep.append(c)
                    continue
                for j in tail[len(c)]:
                    lit = c[j]
                    if val[lit] != false:
                        c[1] = lit
                        c[j] = false_lit
                        watches[lit].append(c)  # never this list: lit is not false
                        break
                else:
                    keep.append(c)
                    if val[first] == false:
                        keep.extend(ws)  # the clauses not yet visited
                        conflict = c
                        break
                    var = first >> 1
                    val[first] = true
                    val[first ^ 1] = false
                    phase[var] = false if first & 1 else true
                    level[var] = cur_level
                    reason[var] = c
                    trail.append(first)
            watches[false_lit] = keep
        self.qhead = qhead
        return conflict

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        trail, level, reason, activity = self.trail, self.level, self.reason, self.activity
        inc = self.act_inc
        seen = bytearray(self.nv)
        learnt: list[int] = [0]
        counter = 0
        cur_level = len(self.trail_lim)
        c: list[int] | None = conflict
        idx = len(trail) - 1
        p = -1
        while True:
            assert c is not None
            for q in c:
                v = q >> 1
                if q != p and not seen[v] and level[v] > 0:
                    seen[v] = 1
                    activity[v] += inc
                    if activity[v] > 1e100:
                        for u in range(self.nv):
                            activity[u] *= 1e-100
                        inc *= 1e-100
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            v = p >> 1
            seen[v] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            c = reason[v]
        self.act_inc = inc
        learnt[0] = p ^ 1
        back = 0
        if len(learnt) > 1:
            # move the highest-level non-asserting literal to the watch slot
            levels = [level[q >> 1] for q in learnt[1:]]
            jmax = levels.index(max(levels)) + 1
            learnt[1], learnt[jmax] = learnt[jmax], learnt[1]
            back = level[learnt[1] >> 1]
        lbd = len({level[q >> 1] for q in learnt})
        return learnt, back, lbd

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        limit = self.trail_lim[target]
        val, reason = self.val, self.reason
        for lit in self.trail[limit:]:
            val[lit] = val[lit ^ 1] = _UNSET
            reason[lit >> 1] = None
        del self.trail[limit:]
        del self.trail_lim[target:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int:
        best = -1
        best_act = -1.0
        for v, (value, act) in enumerate(zip(self.val[::2], self.activity)):
            if act > best_act and value == _UNSET:
                best = v
                best_act = act
        if best >= 0:
            return 2 * best + (0 if self.phase[best] == _TRUE else 1)
        return -1

    def _reduce_db(self) -> None:
        learnts, lbd = self.learnts, self.lbd
        locked = {id(self.reason[lit >> 1]) for lit in self.trail if self.reason[lit >> 1]}
        ranked = sorted(range(len(learnts)), key=lambda i: (lbd[i], len(learnts[i]), i))
        best = set(ranked[: len(ranked) // 2])
        dropped = [
            i
            for i, c in enumerate(learnts)
            if i not in best and id(c) not in locked and len(c) > 2
        ]
        if not dropped:
            return
        if self.proof is not None:
            self.proof.extend("d " + _dimacs_line(learnts[i]) for i in dropped)
        drop_ids = {id(learnts[i]) for i in dropped}
        for wl in range(2 * self.nv):
            self.watches[wl] = [c for c in self.watches[wl] if id(c) not in drop_ids]
        self.lbd = [x for c, x in zip(learnts, lbd) if id(c) not in drop_ids]
        self.learnts = [c for c in learnts if id(c) not in drop_ids]

    def solve(self, max_conflicts: int | None) -> tuple[bool, ...] | None:
        if self.unsat_root:
            return None
        if self._propagate() is not None:
            return None
        conflicts = 0
        restart_limit = 128
        since_restart = 0
        max_learnts = max(2000, 2 * len(self.clauses))
        proof = self.proof
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                since_restart += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    raise BudgetExceededError(max_conflicts)
                if not self.trail_lim:
                    return None
                learnt, back, lbd = self._analyze(conflict)
                self._backtrack(back)
                if proof is not None:
                    proof.append(_dimacs_line(learnt))
                if len(learnt) == 1:
                    if self.val[learnt[0]] == _FALSE:
                        return None
                    if self.val[learnt[0]] == _UNSET:
                        self._enqueue(learnt[0], None)
                else:
                    self.learnts.append(learnt)
                    self.lbd.append(lbd)
                    self._grow_tail(len(learnt))
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.act_inc /= 0.95
                if len(self.learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue
            if since_restart >= restart_limit:
                since_restart = 0
                restart_limit = int(restart_limit * 1.5)
                self._backtrack(0)
                continue
            lit = self._decide()
            if lit < 0:
                return tuple(value == _TRUE for value in self.val[::2])
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)
