"""Command-line interface wiring the library into reproducible batch runs.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 resource
budget exceeded. Commands return 0 or 1 and raise the rest; ``main`` alone
maps those exceptions to exit codes. All randomized commands print their
seed in the output header so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager
from functools import partial
from itertools import chain, islice

from . import __version__
from .anneal import AnnealParams, anneal_search
from .canon import canonical_form
from .coloring import emit_coloring_matrix, parse_coloring_matrix
from .constructions import clone_vertex, extend_by_clone, named_graph
from .enumeration import enumerate_good
from .graph6 import emit_graph6, iter_graph6, parse_graph6
from .sat import BudgetExceededError, write_dimacs
from .split import encode_split_cnf, is_splittable, witness_matrix
from .targets import parse_target, parse_target_list
from . import verify as verify_mod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@contextmanager
def _input(path: str):
    """The open input file, or stdin for ``-``."""
    if path == "-":
        yield sys.stdin
    else:
        with open(path, encoding="ascii") as fh:
            yield fh


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_enumerate(args) -> int:
    t1 = parse_target(args.t1)
    t2 = parse_target(args.t2)
    stats = enumerate_good(t1, t2, args.max_n, emit_dir=args.emit_graphs, jobs=args.jobs)
    sys.stdout.write(stats.as_tsv())
    return EXIT_OK


def _split_one(g, targets, engine, max_conflicts):
    """(canonical key in hex, verdict), the verdict None over the conflict budget."""
    ok, _ = is_splittable(g, targets, engine=engine, max_conflicts=max_conflicts)
    return canonical_form(g).hex(), ok


def _cmd_split(args) -> int:
    # verdicts print as they arrive; the pool closes before the input file
    with _input(args.input) as fh, ExitStack() as stack:
        solve = partial(
            _split_one,
            targets=parse_target_list(args.targets),
            engine=args.engine,
            max_conflicts=args.max_conflicts,
        )
        hosts = iter_graph6(fh)
        head = list(islice(hosts, 2))  # a pool pays off from two hosts on
        hosts = chain(head, hosts)
        verdicts = map(solve, hosts)
        if args.jobs > 1 and len(head) > 1:
            import multiprocessing as mp

            verdicts = stack.enter_context(mp.Pool(args.jobs)).imap(solve, hosts)
        overrun = False
        for key_hex, ok in verdicts:
            overrun |= ok is None
            word = {True: "SPLITTABLE", False: "UNSPLITTABLE", None: "UNKNOWN"}[ok]
            print(f"{key_hex} {word}", flush=True)
    if overrun:
        raise BudgetExceededError(args.max_conflicts)  # exit 3 once every host has its line
    return EXIT_OK


def _cmd_arrow(args) -> int:
    with _input(args.graph) as fh:
        g = parse_graph6(fh.readline())
    targets = parse_target_list(args.targets)
    ok, witness = is_splittable(g, targets, engine=args.engine, max_conflicts=args.max_conflicts)
    if ok is None:
        raise BudgetExceededError(args.max_conflicts)
    print("SPLITTABLE" if ok else "ARROWS")
    if ok and args.witness_out:
        _write_text(args.witness_out, witness_matrix(witness))
    return EXIT_OK


def _cmd_cnf(args) -> int:
    with _input(args.graph) as fh:
        g = parse_graph6(fh.readline())
    formula = encode_split_cnf(g, parse_target(args.t1), parse_target(args.t2))
    _write_text(args.output, write_dimacs(formula))
    return EXIT_OK


def _cmd_anneal(args) -> int:
    targets = parse_target_list(args.targets)
    params = AnnealParams(
        initial_temperature=args.t0,
        cooling=args.cooling,
        sweeps_per_temperature=args.sweeps,
        restarts=args.restarts,
        seed=args.seed,
        min_temperature=args.t_min,
    )
    print(f"anneal n={args.n} targets={args.targets} seed={args.seed}")
    result = anneal_search(args.n, targets, params)
    if result.coloring is None:
        print(f"NONE best-energy={result.best_energy}")
        return EXIT_OK
    print(f"SUCCESS restarts-used={result.restarts_used}")
    _write_text(args.output, emit_coloring_matrix(result.coloring))
    return EXIT_OK


def _verify_split_pipeline(args) -> verify_mod.Report:
    if args.level is None:
        raise ValueError("split-pipeline needs --level")
    return verify_mod.verify_split_pipeline(
        args.level, archive_dir=args.archive, max_conflicts=args.max_conflicts
    )


# name -> report, in the order ``verify --help`` lists them
VERIFICATIONS = {
    "lemma-hex": lambda args: verify_mod.verify_lemma_hex(),
    "j7-arrow": lambda args: verify_mod.verify_j7_arrow(),
    "split-pipeline": _verify_split_pipeline,
    "figure3": lambda args: verify_mod.verify_figure(args.what),
    "figure4": lambda args: verify_mod.verify_figure(args.what),
    "schlafli": lambda args: verify_mod.verify_schlafli(max_conflicts=args.max_conflicts),
}


def _cmd_verify(args) -> int:
    report = VERIFICATIONS[args.what](args)
    print(report)
    if report.passed and report.overrun:
        raise BudgetExceededError(args.max_conflicts)  # exit 3 after the report
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_named(args) -> int:
    g = named_graph(args.id)
    _write_text(args.output, emit_graph6(g) + "\n")
    return EXIT_OK


def _cmd_clone(args) -> int:
    with _input(args.coloring) as fh:
        c = parse_coloring_matrix(fh.read())
    out = clone_vertex(c, args.x, args.y, args.link_color - 1)
    _write_text(args.output, emit_coloring_matrix(out))
    return EXIT_OK


def _cmd_extend_c50(args) -> int:
    with _input(args.c50) as fh:
        c = parse_coloring_matrix(fh.read())
    grown, report = extend_by_clone(c, args.x, args.y, args.link_color - 1)
    print(f"extended to {grown.n} vertices")
    for verts, isolated in report.last_color_triangles:
        tag = "isolated" if isolated else "with a pendant edge"
        print(f"last-color triangle {verts}: {tag}")
    print(f"verdict: {'VALID' if report.valid else 'INVALID'}")
    if args.output:
        _write_text(args.output, emit_coloring_matrix(grown))
    return EXIT_OK if report.valid else EXIT_FAIL


ENGINE_ARG = dict(
    choices=["auto", "sat", "recurse", "both"],
    default="auto",
    help="auto and sat use the SAT solver for two targets; recurse and both "
    "(a cross-check) can run past ten minutes on 20-vertex hosts with J4 targets, "
    "where SAT answers in about a second; --max-conflicts bounds every engine",
)


def _count(least: int):
    """An argument type for a count of ``least`` or more."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected a count of {least} or more, got {text!r}")
        return int(text)

    return parse


MAX_CONFLICTS_ARG = dict(
    type=_count(0),
    help="past this many conflicts (SAT: a falsified clause; recurse: a "
    "backtrack from an edge) the verdict is unknown and the exit code 3",
)
JOBS_ARG = dict(
    type=_count(1),
    default=os.cpu_count() or 1,
    help="worker processes, 1 or more (default: the CPU count)",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseykit",
        description="Good-graph enumeration, arrowing decisions and "
        "verification for small multicolor Ramsey numbers.",
    )
    parser.add_argument("--version", action="version", version=f"ramseykit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count (t1,t2)-good graphs per order, depth first")
    p.add_argument("--t1", required=True, help="target forbidden in the graph, e.g. K3")
    p.add_argument("--t2", required=True, help="target forbidden in the complement, e.g. J7")
    p.add_argument("--max-n", type=_count(0), required=True)
    p.add_argument("--emit-graphs", metavar="DIR", help="write per-level graph6 archives")
    p.add_argument("--jobs", **JOBS_ARG)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("split", help="batch splittability verdicts for a graph6 stream")
    p.add_argument("--targets", required=True, help="comma-separated targets, e.g. K3,J4")
    p.add_argument("--engine", **ENGINE_ARG)
    p.add_argument("--input", default="-", help="graph6 file (default: stdin)")
    p.add_argument("--max-conflicts", **MAX_CONFLICTS_ARG)
    p.add_argument("--jobs", **JOBS_ARG)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("arrow", help="does a graph arrow the target list?")
    p.add_argument("--graph", required=True, help="graph6 file, or - for stdin")
    p.add_argument("--targets", required=True)
    p.add_argument("--engine", **ENGINE_ARG)
    p.add_argument("--max-conflicts", **MAX_CONFLICTS_ARG)
    p.add_argument(
        "--witness-out",
        help="on SPLITTABLE, write the witness as a matrix (0 = non-edge)",
    )
    p.set_defaults(func=_cmd_arrow)

    p = sub.add_parser("cnf", help="emit the splittability CNF in DIMACS form")
    p.add_argument("--graph", required=True)
    p.add_argument("--t1", required=True, help="target forbidden in the False color")
    p.add_argument("--t2", required=True, help="target forbidden in the True color")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_cnf)

    p = sub.add_parser("anneal", help="anneal for a coloring avoiding target i in color i")
    p.add_argument("--n", type=_count(0), required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=float, default=2.0, help="initial temperature")
    p.add_argument("--cooling", type=float, default=0.997)
    p.add_argument("--sweeps", type=int, default=1, help="sweeps per temperature")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_anneal)

    p = sub.add_parser("verify", help="run one of the built-in verifications")
    p.add_argument("what", choices=VERIFICATIONS)
    p.add_argument("--level", type=int, help="order for split-pipeline")
    p.add_argument("--archive", help="directory holding enumeration archives")
    p.add_argument("--max-conflicts", **MAX_CONFLICTS_ARG)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("named", help="emit a named graph as graph6")
    p.add_argument("--id", required=True, help="SCHLAFLI, 2K3, or a target token")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_named)

    p = sub.add_parser("clone", help="clone a vertex pair's fan onto a new vertex")
    p.add_argument("--coloring", required=True, help="coloring-matrix file")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument(
        "--link-color",
        type=int,
        required=True,
        help="1-based color (as in the matrix file) for the edges to x and y",
    )
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_clone)

    p = sub.add_parser(
        "extend-c50",
        help="grow a 4-color triangle-avoiding coloring by cloning a twin "
        "pair, then validate that only isolated last-color triangles appear",
    )
    p.add_argument("--c50", required=True, help="coloring-matrix file, or - for stdin")
    p.add_argument("--x", type=int, help="first twin (default: first cloneable pair)")
    p.add_argument("--y", type=int)
    p.add_argument("--link-color", type=int, default=4, help="1-based, default 4")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_extend_c50)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
