"""ramseykit benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn and ends with one line
holding all their metrics, prefixed by workload name.

Run from the root of a source checkout; ramseykit is imported from its
``src`` directory. The workload's round of operations is repeated, closed
loop with one caller, for ``--seconds``: whole rounds, at least one,
ending at the round end nearest to ``--seconds``. Every operation's output
is checked. With ``--trace 0`` the last line carries the end-to-end
metrics; with ``--trace 1`` untraced and traced rounds alternate and it
carries the per-layer metrics. A line before it records the environment
and the workload's details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def _import_program():
    if not (SRC / "ramseykit" / "__init__.py").is_file():
        sys.exit(f"error: no ramseykit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ramseykit

    if SRC not in Path(ramseykit.__file__).resolve().parents:
        sys.exit(f"error: ramseykit was imported from {ramseykit.__file__}, not {SRC}")


_import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_s() -> float:
    """Time of a fixed pure-Python workload that does not touch ramseykit:
    short-lived tuples and sets, counted in a dict."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(7_000):
        key = (i % 977, i % 331)
        counts[key] = counts.get(key, 0) + len({i, i + 1, i * 3})
    sorted(counts.items())
    return time.perf_counter() - t0


def setup_s(code: str) -> float:
    """Median wall time of a fresh interpreter importing ramseykit and
    building the workload's program inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to ~50 ms
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git installed
        return None
    return done.stdout.strip() or None


class Runner:
    """Runs rounds of a workload and tallies operations and failures.

    The reference workload runs before the first operation of a round and
    after every operation. Each operation's time is also taken in units of
    the reference's time around it (the mean of the references just before
    and just after), which cancels most of the speed changes a shared
    machine goes through: they slow the operation and the reference alike.
    """

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []
        self.op_ref: list[float] = []  # op_s in reference times
        self.ref_s: list[float] = []

    def round(self) -> float:
        """One round; returns the time its operations took."""
        total = 0.0
        before = reference_s()
        for op in self.wl.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
                problem = None
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                problem = "raised"
            dt = time.perf_counter() - t0
            after = reference_s()
            self.op_s.append(dt)
            self.op_ref.append(2 * dt / (before + after))
            self.ref_s.append(after)
            before = after
            total += dt
            if problem is None:
                problem = op.check(out)
            if problem:
                self.failed += 1
                print(f"FAILED {self.wl.name} {op.label}: {problem}", file=sys.stderr)
        return total


def another_round(spans: list[float], seconds: float, least: int) -> bool:
    """Whether to run another round (or pair of rounds) after ``spans``.

    After ``least`` of them, only if the next one, as long as the mean so
    far, would end nearer ``seconds`` than stopping now does.
    """
    if len(spans) < least:
        return True
    return sum(spans) + statistics.mean(spans) / 2 < seconds


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    spans: list[float] = []
    while another_round(spans, seconds, 1):
        t0 = time.perf_counter()
        runner.round()
        spans.append(time.perf_counter() - t0)
    work = sum(op.work for op in runner.wl.ops) * len(spans)
    ms = [t * 1000 for t in runner.op_s]
    ref = runner.op_ref
    metrics = {
        "setup_s": (setup_s(runner.wl.setup_code), "s"),
        "op_ref_p50": (statistics.median(ref), "ref"),
        "op_ref_p90": (tracing.percentile(ref, 90), "ref"),
        "work_per_ref": (work / sum(ref), "1/ref"),
    }
    # the same figures in wall time; recorded, not gated
    raw = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": tracing.percentile(ms, 90),
        "work_per_s": work / sum(runner.op_s),
    }
    return {"rounds": len(spans), "ops": len(ms), **raw}, metrics


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain, traced, per_round, spans = [], [], [], []
    # two traced rounds at least, so that counts are checked to repeat
    while another_round(spans, seconds, 2):
        t0 = time.perf_counter()
        plain.append(runner.round())
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(runner.round())
        per_round.append(tracer.metrics())
        spans.append(time.perf_counter() - t0)
    merged, unstable = tracing.combine(per_round)
    if unstable:
        runner.failed += 1
        print(f"FAILED counts differ between identical rounds: {unstable}", file=sys.stderr)
    merged["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {name: (merged[name], unit) for name, (unit, _) in tracing.LAYER_METRICS.items()}
    return {"rounds": len(traced), "ops": runner.attempted}, metrics


def run_workload(name: str, seed: int, seconds: float, trace: int, small: bool):
    """The record and the result of one workload run."""
    wl = workloads.build(name, seed, small)
    runner = Runner(wl)
    if trace:
        shape, metrics = measure_traced(runner, seconds)
    else:
        shape, metrics = measure(runner, seconds)
    ref_q = statistics.quantiles(runner.ref_s, n=4) if len(runner.ref_s) > 1 else runner.ref_s * 3
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        # quartiles of the reference's time: which speed phases the run met
        "reference_ms": [q * 1000 for q in ref_q],
        "failed_frac": runner.failed / runner.attempted,
        "work_unit": wl.work_unit,
        **shape,
        **wl.detail,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="the seconds-long self-test size")
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    args = ap.parse_args(argv)

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    runs = [run_workload(n, args.seed, args.seconds, args.trace, args.small) for n in names]
    for record, result in runs:
        print(json.dumps({"record": record}))
        print(json.dumps(result))
    if len(runs) > 1:
        # one line for all workloads, each metric prefixed by its workload
        print(json.dumps({
            "correct": all(res["correct"] for _, res in runs),
            "attempted": sum(res["attempted"] for _, res in runs),
            "failed": sum(res["failed"] for _, res in runs),
            "metrics": {
                f"{rec['workload']}.{key}": val
                for rec, res in runs
                for key, val in res["metrics"].items()
            },
        }))
    if args.out:
        kept = [{"record": rec, "result": res} for rec, res in runs]
        Path(args.out).write_text(json.dumps(kept, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
