"""Regenerate the benchmark's recorded inputs and expected outputs.

    python3 perfbench/make_data.py hosts    # data/hosts16.tsv, a few minutes
    python3 perfbench/make_data.py anneal   # data/anneal.json, seconds

``hosts16.tsv`` holds a pool of (K3, J7)-good graphs of order 16 from the
benchmark's own generator, with the pipeline's verdict (1 = splittable)
and its cost in ms on the recording machine, used only to stratify the
pool. Hosts are drawn in turn until the pool holds enough of each
verdict for a round's strata; splittable ones past that are dropped.
Splittable verdicts are confirmed here by composing and validating
the witness; unsplittable ones are as the SAT engine gave them.
``anneal.json`` holds the best energy of each recorded annealing seed.
Both are regression records: the run checks later versions against them.
"""

from __future__ import annotations

import json
import random
import sys
import time

import run  # noqa: F401  (puts the checkout's ramseykit on the path)
import hosts
import workloads as wls

HOST_SEED = 20120103
ANNEAL_SEEDS = range(24)


def make_hosts() -> None:
    rng = random.Random(HOST_SEED)
    want = {
        True: wls.SPLIT_PER_ROUND * wls.HOST_STRATUM,
        False: wls.UNSPLIT_PER_ROUND * wls.HOST_STRATUM,
    }
    lines = []
    i = 0
    while want[True] or want[False]:
        text = hosts.graph6(wls.HOST_ORDER, hosts.random_host(rng, wls.HOST_ORDER))
        t0 = time.perf_counter()
        ok, verdict = wls.split_host(text)
        cost_ms = (time.perf_counter() - t0) * 1000
        if ok and not (verdict.valid and verdict.assignment == (0, 1, 2)):
            raise SystemExit(f"host {i} {text}: witness failed validation")
        print(i, text, int(ok), f"{cost_ms:.1f}", file=sys.stderr)
        i += 1
        if want[ok]:
            want[ok] -= 1
            lines.append(f"{text}\t{int(ok)}\t{cost_ms:.1f}")
    wls.HOSTS_FILE.write_text("\n".join(lines) + "\n", encoding="ascii")


def make_anneal() -> None:
    out = {}
    for s in ANNEAL_SEEDS:
        params = wls.replace(wls.ANNEAL_PARAMS, seed=s)
        res = wls.rk.anneal_search(wls.ANNEAL_N, list(wls.ANNEAL_TARGETS), params)
        if res.success:
            raise SystemExit(f"anneal seed {s} reached zero energy")
        out[str(s)] = res.best_energy
        print(s, res.best_energy, file=sys.stderr)
    wls.ANNEAL_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")


if __name__ == "__main__":
    {"hosts": make_hosts, "anneal": make_anneal}[sys.argv[1]]()
