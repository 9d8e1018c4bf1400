"""Simulated annealing for lower-bound colorings of complete graphs.

The state is a total edge coloring of K_n; its energy is the number of
monochromatic copies of target i inside color class i, summed over
colors, so a zero-energy state is a valid coloring. Moves recolor one
random edge in place, scored incrementally by counting only the copies
through that edge with the closed forms of
:func:`detect.count_copies_with_edge`, and are accepted by the Metropolis
rule under a geometric cooling schedule with deterministic per-restart
seeds. The initial colors and each move's edge and new color are drawn
from ``getrandbits`` with the rejection loop of ``Random.randrange``, so
the values and the generator's state follow ``randrange`` bit for bit.
The initial energy totals each color mask's copies with
:func:`detect.count_copies`, which counts cliques and J_k spines whole
rather than edge by edge. This module knows no target kind: all per-kind
search lives in :mod:`detect`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .coloring import EdgeColoring
from .detect import coloring_is_valid, count_copies, count_copies_with_edge
from .detect import list_copies  # noqa: F401  (perfbench's tracer wraps it here)
from .targets import Target


@dataclass(frozen=True)
class AnnealParams:
    initial_temperature: float = 2.0
    cooling: float = 0.997
    sweeps_per_temperature: int = 1
    restarts: int = 20
    seed: int = 0
    min_temperature: float = 0.05

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError("initial temperature must be positive")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling factor must lie strictly between 0 and 1")
        if self.min_temperature <= 0:
            raise ValueError("minimum temperature must be positive")
        if self.sweeps_per_temperature < 1:
            raise ValueError("sweeps per temperature must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class AnnealResult:
    """Search outcome: a validated coloring on success, else best energy."""

    coloring: EdgeColoring | None
    best_energy: int
    restarts_used: int

    @property
    def success(self) -> bool:
        return self.coloring is not None


def _restart_seed(seed: int, restart: int) -> int:
    return seed * 1_000_003 + restart


def anneal_search(
    n: int, targets: Sequence[Target], params: AnnealParams | None = None
) -> AnnealResult:
    """Look for a zero-energy coloring of K_n avoiding target i in color i.

    Deterministic for a fixed seed; a failed search reports the best energy
    seen across restarts.
    """
    if params is None:
        params = AnnealParams()
    m = len(targets)
    if not 1 <= m <= 4:
        raise ValueError("between 1 and 4 targets required")
    pairs = [(u, v, 1 << u, 1 << v) for v in range(n) for u in range(v)]
    npairs = len(pairs)
    # randrange(b) is getrandbits(b.bit_length()) redrawn until below b
    others = m - 1  # the colors a move can give an edge
    mbits, ebits, cbits = m.bit_length(), npairs.bit_length(), others.bit_length()
    exp = math.exp
    best_overall: int | None = None
    for restart in range(params.restarts):
        rng = random.Random(_restart_seed(params.seed, restart))
        getrandbits, rand = rng.getrandbits, rng.random
        colors = []
        for _ in pairs:
            c = getrandbits(mbits)
            while c >= m:
                c = getrandbits(mbits)
            colors.append(c)
        masks = [[0] * n for _ in range(m)]
        for (u, v, bu, bv), c in zip(pairs, colors):
            masks[c][u] |= bv
            masks[c][v] |= bu
        cur = sum(count_copies(mask, n, t) for mask, t in zip(masks, targets))
        if cur == 0:
            return _finish(n, m, colors, targets, restart)
        if m == 1:  # no move changes a one-color state: every restart ends here
            return AnnealResult(None, cur, params.restarts)
        temp = params.initial_temperature
        while temp >= params.min_temperature:
            for _ in range(params.sweeps_per_temperature * npairs):
                ei = getrandbits(ebits)
                while ei >= npairs:
                    ei = getrandbits(ebits)
                u, v, bu, bv = pairs[ei]
                old = colors[ei]
                new = getrandbits(cbits)
                while new >= others:
                    new = getrandbits(cbits)
                if new >= old:
                    new += 1
                frm, to = masks[old], masks[new]
                delta = -count_copies_with_edge(frm, n, targets[old], u, v)
                frm[u] ^= bv
                frm[v] ^= bu
                to[u] |= bv
                to[v] |= bu
                delta += count_copies_with_edge(to, n, targets[new], u, v)
                if delta <= 0 or rand() < exp(-delta / temp):
                    colors[ei] = new
                    cur += delta
                    if cur == 0:
                        return _finish(n, m, colors, targets, restart)
                else:
                    to[u] ^= bv
                    to[v] ^= bu
                    frm[u] |= bv
                    frm[v] |= bu
            temp *= params.cooling
        if best_overall is None or cur < best_overall:
            best_overall = cur
    assert best_overall is not None  # restarts >= 1
    return AnnealResult(None, best_overall, params.restarts)


def _finish(n, m, colors, targets, restart) -> AnnealResult:
    vals = bytes(colors)
    out = EdgeColoring(n, m, vals)
    verdict = coloring_is_valid(out, targets)
    if not verdict.valid:
        raise AssertionError("zero-energy state failed validation")
    return AnnealResult(out, 0, restart + 1)
