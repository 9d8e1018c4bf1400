"""CNF formulas over graph edges and an embedded, deterministic SAT solver.

The solver is a conflict-driven clause-learning procedure: two watched
literals per clause, first-UIP conflict analysis with non-chronological
backjumping, geometric restarts and periodic forgetting of unhelpful
learned clauses. Everything is deterministic: no randomness, stable
tie-breaking, so a formula always produces the same run. Decisions follow
conflict-activity order with ties by variable index.
"""

from __future__ import annotations

from dataclasses import dataclass

Edge = tuple[int, int]

_UNSET, _TRUE, _FALSE = 0, 1, 2


class BudgetExceededError(RuntimeError):
    """The conflict budget ran out before a decision was reached."""


@dataclass
class CnfFormula:
    """Clauses over 1-based variables; when ``edges`` is given, variable v
    stands for the host edge ``edges[v-1]``."""

    var_count: int
    clauses: list[tuple[int, ...]]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        for i, cl in enumerate(self.clauses):
            if not cl:
                raise ValueError(f"clause {i} is empty")
            for lit in cl:
                if lit == 0 or abs(lit) > self.var_count:
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
    f: CnfFormula, max_conflicts: int | None = None
) -> tuple[bool, ...] | None:
    """A satisfying assignment (tuple indexed by var-1) or None for UNSAT.

    Raises :class:`BudgetExceededError` when ``max_conflicts`` runs out,
    which is a resource outcome distinct from UNSAT.
    """
    solver = _Cdcl(f.var_count, f.clauses)
    model = solver.solve(max_conflicts)
    if model is None:
        return None
    for cl in f.clauses:
        if not any(model[abs(lit) - 1] == (lit > 0) for lit in cl):
            raise AssertionError("internal error: model does not satisfy the formula")
    return model


class _Cdcl:
    def __init__(self, nvars: int, clauses: list[tuple[int, ...]]):
        self.nv = nvars
        self.assign = bytearray(nvars)
        self.phase = bytearray(nvars)  # preferred value on decide; 0 means False
        self.level = [0] * nvars
        self.reason: list[list[int] | None] = [None] * nvars
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nvars)]
        self.clauses: list[list[int]] = []
        self.learnts: list[list[int]] = []
        self.lbd: dict[int, int] = {}
        self.activity = [0.0] * nvars
        self.act_inc = 1.0
        self.unsat_root = False
        units: list[int] = []
        for cl in clauses:
            litset = {2 * (abs(l) - 1) + (l < 0) for l in cl}
            if any(lit ^ 1 in litset for lit in litset):
                continue  # tautology
            lits = sorted(litset)
            if len(lits) == 1:
                units.append(lits[0])
                continue
            self.clauses.append(lits)
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)
        for lit in units:
            if self._value(lit) == _FALSE:
                self.unsat_root = True
                return
            if self._value(lit) == _UNSET:
                self._enqueue(lit, None)

    def _value(self, lit: int) -> int:
        a = self.assign[lit >> 1]
        if a == _UNSET:
            return _UNSET
        return _TRUE if (a == _TRUE) == (lit & 1 == 0) else _FALSE

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        var = lit >> 1
        self.assign[var] = _TRUE if lit & 1 == 0 else _FALSE
        self.phase[var] = self.assign[var]
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = lit ^ 1
            ws = self.watches[false_lit]
            keep: list[list[int]] = []
            conflict: list[int] | None = None
            for ci, c in enumerate(ws):
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                if self._value(first) == _TRUE:
                    keep.append(c)
                    continue
                moved = False
                for j in range(2, len(c)):
                    if self._value(c[j]) != _FALSE:
                        c[1], c[j] = c[j], c[1]
                        self.watches[c[1]].append(c)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(c)
                if self._value(first) == _FALSE:
                    keep.extend(ws[ci + 1 :])
                    conflict = c
                    break
                self._enqueue(first, c)
            self.watches[false_lit] = keep
            if conflict is not None:
                return conflict
        return None

    def _bump(self, var: int) -> None:
        self.activity[var] += self.act_inc
        if self.activity[var] > 1e100:
            for v in range(self.nv):
                self.activity[v] *= 1e-100
            self.act_inc *= 1e-100

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        seen = bytearray(self.nv)
        learnt: list[int] = [0]
        counter = 0
        cur_level = len(self.trail_lim)
        c: list[int] | None = conflict
        idx = len(self.trail) - 1
        p = -1
        while True:
            assert c is not None
            for q in c:
                if p != -1 and q == p:
                    continue
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            v = p >> 1
            seen[v] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            c = self.reason[v]
        learnt[0] = p ^ 1
        back = 0
        if len(learnt) > 1:
            # move the highest-level non-asserting literal to the watch slot
            levels = [self.level[q >> 1] for q in learnt[1:]]
            jmax = levels.index(max(levels)) + 1
            learnt[1], learnt[jmax] = learnt[jmax], learnt[1]
            back = self.level[learnt[1] >> 1]
        lbd = len({self.level[q >> 1] for q in learnt})
        return learnt, back, lbd

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        limit = self.trail_lim[target]
        for lit in reversed(self.trail[limit:]):
            var = lit >> 1
            self.assign[var] = _UNSET
            self.reason[var] = None
        del self.trail[limit:]
        del self.trail_lim[target:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int:
        best = -1
        best_act = -1.0
        for v in range(self.nv):
            if self.assign[v] == _UNSET and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        if best >= 0:
            return 2 * best + (0 if self.phase[best] == _TRUE else 1)
        return -1

    def _reduce_db(self) -> None:
        locked = {id(self.reason[lit >> 1]) for lit in self.trail if self.reason[lit >> 1]}
        ranked = sorted(
            range(len(self.learnts)),
            key=lambda i: (self.lbd.get(id(self.learnts[i]), 9), len(self.learnts[i]), i),
        )
        keep_set = set(ranked[: len(ranked) // 2])
        kept: list[list[int]] = []
        dropped: list[list[int]] = []
        for i, c in enumerate(self.learnts):
            if i in keep_set or id(c) in locked or len(c) <= 2:
                kept.append(c)
            else:
                dropped.append(c)
        drop_ids = {id(c) for c in dropped}
        if not drop_ids:
            return
        for wl in range(2 * self.nv):
            self.watches[wl] = [c for c in self.watches[wl] if id(c) not in drop_ids]
        for c in dropped:
            self.lbd.pop(id(c), None)
        self.learnts = kept

    def solve(self, max_conflicts: int | None) -> tuple[bool, ...] | None:
        if self.unsat_root:
            return None
        if self._propagate() is not None:
            return None
        conflicts = 0
        restart_limit = 128
        since_restart = 0
        max_learnts = max(2000, 2 * len(self.clauses))
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                since_restart += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    raise BudgetExceededError(
                        f"conflict budget {max_conflicts} exhausted"
                    )
                if not self.trail_lim:
                    return None
                learnt, back, lbd = self._analyze(conflict)
                self._backtrack(back)
                if len(learnt) == 1:
                    if self._value(learnt[0]) == _FALSE:
                        return None
                    if self._value(learnt[0]) == _UNSET:
                        self._enqueue(learnt[0], None)
                else:
                    self.learnts.append(learnt)
                    self.lbd[id(learnt)] = lbd
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
                model = tuple(self.assign[v] == _TRUE for v in range(self.nv))
                return model
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)
