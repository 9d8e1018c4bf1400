import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramseykit
from ramseykit.canon import canon_raw
from ramseykit.cli import main
from ramseykit.coloring import parse_coloring_matrix
from ramseykit.graph6 import emit_graph6
from ramseykit.graphs import Graph


# the child imports the same ramseykit as the tests, installed or not
SRC = str(Path(ramseykit.__file__).resolve().parent.parent)


def run_cli(args, stdin="", timeout=600):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "ramseykit.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    return proc


def test_enumerate_small_table(capsys):
    assert main(["enumerate", "--t1", "K3", "--t2", "J7", "--max-n", "5", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n\tcount\tedges"
    assert "5\t14\t0-6" in out


def test_enumerate_is_byte_identical(capsys):
    argv = ["enumerate", "--t1", "K3", "--t2", "J7", "--max-n", "6", "--jobs", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_exit_codes():
    assert main(["verify", "figure3"]) == 0
    assert main(["verify", "figure4"]) == 0


def test_usage_error_exit_code():
    proc = run_cli(["enumerate", "--t1", "K3"])
    assert proc.returncode == 2
    proc = run_cli(["arrow", "--graph", "-", "--targets", "Q9"], stdin="D~{\n")
    assert proc.returncode == 2


def test_split_stream_verdicts():
    stdin = emit_graph6(Graph.complete(5)) + "\n" + emit_graph6(Graph.complete(6)) + "\n"
    proc = run_cli(["split", "--targets", "K3,K3", "--jobs", "1"], stdin=stdin)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].endswith(" SPLITTABLE")
    assert lines[1].endswith(" UNSPLITTABLE")
    key1 = lines[0].split()[0]
    assert bytes.fromhex(key1)[0] == 5


def test_arrow_command(tmp_path):
    path = tmp_path / "j7.g6"
    from ramseykit.targets import clique_minus_edge

    path.write_text(emit_graph6(clique_minus_edge(7).pattern()) + "\n")
    proc = run_cli(["arrow", "--graph", str(path), "--targets", "K3e,J4"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ARROWS"
    proc = run_cli(["arrow", "--graph", str(path), "--targets", "J4,J4"])
    assert proc.stdout.strip() == "SPLITTABLE"


def test_cnf_output(tmp_path):
    gpath = tmp_path / "k4.g6"
    gpath.write_text(emit_graph6(Graph.complete(4)) + "\n")
    out = tmp_path / "out.cnf"
    proc = run_cli(
        ["cnf", "--graph", str(gpath), "--t1", "K3", "--t2", "J4", "-o", str(out)]
    )
    assert proc.returncode == 0
    text = out.read_text()
    assert "p cnf 6 10" in text
    assert text.count(" 0\n") == 10


def test_named_graph6_roundtrip(tmp_path):
    out = tmp_path / "s.g6"
    proc = run_cli(["named", "--id", "SCHLAFLI", "-o", str(out)])
    assert proc.returncode == 0
    from ramseykit.graph6 import parse_graph6

    g = parse_graph6(out.read_text().strip())
    assert g.n == 27 and all(g.degree(v) == 10 for v in range(27))


def test_anneal_cli_deterministic():
    argv = ["anneal", "--n", "5", "--targets", "K3,K3", "--seed", "7"]
    a = run_cli(argv)
    b = run_cli(argv)
    assert a.returncode == 0 and a.stdout == b.stdout
    assert "seed=7" in a.stdout
    matrix = "\n".join(a.stdout.splitlines()[2:]) + "\n"
    c = parse_coloring_matrix(matrix)
    assert c.n == 5


def test_anneal_cli_reports_none():
    proc = run_cli(["anneal", "--n", "6", "--targets", "K3,K3"])
    assert proc.returncode == 0
    assert "NONE best-energy=" in proc.stdout


@pytest.mark.parametrize("flag", ["--restarts", "--sweeps"])
def test_anneal_cli_rejects_zero_restarts_or_sweeps(flag, capsys):
    argv = ["anneal", "--n", "5", "--targets", "K3,K3", flag, "0"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_clone_cli(tmp_path):
    src = tmp_path / "kite.coloring"
    # vertices 0 and 1 agree at vertex 2; link color 2 (file numbering)
    src.write_text("0 2 1\n2 0 1\n1 1 0\n")
    proc = run_cli(
        ["clone", "--coloring", str(src), "--x", "0", "--y", "1", "--link-color", "2"]
    )
    assert proc.returncode == 0
    grown = parse_coloring_matrix(proc.stdout)
    assert grown.n == 4
    assert grown.color_of(0, 3) == 1 and grown.color_of(1, 3) == 1
    assert grown.color_of(2, 3) == 0


def test_clone_cli_rejects_disagreeing_pair(tmp_path):
    src = tmp_path / "bad.coloring"
    src.write_text("0 1 1\n1 0 2\n1 2 0\n")
    proc = run_cli(
        ["clone", "--coloring", str(src), "--x", "0", "--y", "1", "--link-color", "1"]
    )
    assert proc.returncode == 2
    assert "disagree" in proc.stderr


def test_arrow_witness_out(tmp_path):
    gpath = tmp_path / "k5.g6"
    gpath.write_text(emit_graph6(Graph.complete(5)) + "\n")
    wpath = tmp_path / "witness.txt"
    proc = run_cli(
        [
            "arrow",
            "--graph",
            str(gpath),
            "--targets",
            "K3,K3",
            "--witness-out",
            str(wpath),
        ]
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "SPLITTABLE"
    c = parse_coloring_matrix(wpath.read_text())
    assert c.n == 5 and c.m == 2
    # the SAT engine is deterministic: its witness is pinned byte for byte
    assert wpath.read_bytes() == b"0 1 1 2 2\n1 0 2 1 2\n1 2 0 2 1\n2 1 2 0 1\n2 2 1 1 0\n"


def test_extend_c50_cli(tmp_path):
    from ramseykit.coloring import EdgeColoring, emit_coloring_matrix

    def fn(u, v):
        if (u, v) == (0, 1):
            return 3
        if u in (0, 1):
            return v % 3
        return (u + v) % 3

    src = tmp_path / "twin.coloring"
    src.write_text(emit_coloring_matrix(EdgeColoring.from_function(6, 4, fn)))
    out = tmp_path / "grown.coloring"
    proc = run_cli(["extend-c50", "--c50", str(src), "-o", str(out)])
    assert proc.returncode == 0
    assert "verdict: VALID" in proc.stdout
    assert "isolated" in proc.stdout
    grown = parse_coloring_matrix(out.read_text())
    assert grown.n == 7


def test_verify_split_pipeline_cli(tmp_path):
    proc = run_cli(
        [
            "enumerate",
            "--t1",
            "K3",
            "--t2",
            "J7",
            "--max-n",
            "5",
            "--emit-graphs",
            str(tmp_path),
            "--jobs",
            "1",
        ]
    )
    assert proc.returncode == 0
    proc = run_cli(
        ["verify", "split-pipeline", "--level", "5", "--archive", str(tmp_path)]
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


BUDGET_ERROR = "resource error: conflict budget 1 exhausted\n"


def key_hex(g):
    return canon_raw(g.n, g.adj)[0].hex()


@pytest.mark.parametrize(
    "command, engine",
    [
        pytest.param(command, engine, id=command if engine == "auto" else f"{command}-{engine}")
        for command in ["arrow", "split"]
        for engine in ["auto", "recurse", "both"]
    ],
)
def test_conflict_budget_exits_3_with_empty_stdout(command, engine, tmp_path):
    from ramseykit.targets import clique_minus_edge

    path = tmp_path / "j7.g6"
    path.write_text(emit_graph6(clique_minus_edge(7).pattern()) + "\n")
    argv = {
        "arrow": ["arrow", "--graph", str(path), "--targets", "K3e,J4"],
        "split": ["split", "--input", str(path), "--targets", "K3e,J4", "--jobs", "1"],
    }[command]
    proc = run_cli(argv + ["--engine", engine, "--max-conflicts", "1"])
    # split gives the overrun host an UNKNOWN line; arrow prints nothing
    out = f"{key_hex(clique_minus_edge(7).pattern())} UNKNOWN\n" if command == "split" else ""
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, out, BUDGET_ERROR)


def test_engine_both_over_budget_on_a_figure_sized_host_exits_3(tmp_path):
    # the recursive colorer runs for over ten minutes on this 20-vertex
    # host; its budget turns that into an unknown, and the timeout a hang
    # into a failure
    from ramseykit.coloring import color_class
    from ramseykit.constructions import figure_coloring
    from ramseykit.graphs import complement

    path = tmp_path / "fig3.g6"
    path.write_text(emit_graph6(complement(color_class(figure_coloring("FIG3"), 0))) + "\n")
    argv = ["arrow", "--graph", str(path), "--targets", "J4,J4", "--engine", "both"]
    proc = run_cli(argv + ["--max-conflicts", "50000"], timeout=120)
    budget_error = "resource error: conflict budget 50000 exhausted\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", budget_error)


@pytest.mark.parametrize(
    "argv",
    [
        ["arrow", "--graph", "-", "--targets", "K3e,J4"],
        ["split", "--targets", "K3e,J4", "--jobs", "1"],
        ["verify", "schlafli"],
    ],
    ids=["arrow", "split", "verify"],
)
@pytest.mark.parametrize("budget", ["-1", "-5", "x"])
def test_conflict_budget_that_is_not_a_count_is_a_usage_error(argv, budget, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv + ["--max-conflicts", budget])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --max-conflicts: expected a count of 0 or more, got '{budget}'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--t1", "K3", "--t2", "J7", "--max-n", "5"],
        ["split", "--targets", "K3e,J4"],
    ],
    ids=["enumerate", "split"],
)
@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_job_count_below_1_is_a_usage_error(argv, jobs, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv + ["--jobs", jobs])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --jobs: expected a count of 1 or more, got '{jobs}'" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["enumerate", "--t1", "K3", "--t2", "J7", "--jobs", "1"], "--max-n"),
        (["anneal", "--targets", "K3,K3"], "--n"),
    ],
    ids=["enumerate", "anneal"],
)
@pytest.mark.parametrize("order", ["-3", "-2", "x"])
def test_negative_order_is_a_usage_error(argv, flag, order, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv + [flag, order])
    assert raised.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: ")
    assert f"argument {flag}: expected a count of 0 or more, got '{order}'" in out.err


def test_order_0_keeps_its_output(capsys):
    assert main(["enumerate", "--t1", "K3", "--t2", "J7", "--max-n", "0", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == "n\tcount\tedges\n"
    assert main(["anneal", "--n", "0", "--targets", "K3,K3"]) == 0
    assert capsys.readouterr().out == (
        "anneal n=0 targets=K3,K3 seed=0\nSUCCESS restarts-used=1\n\n"
    )


def test_conflict_budget_of_0_is_a_budget(tmp_path):
    from ramseykit.targets import clique_minus_edge

    path = tmp_path / "j7.g6"
    path.write_text(emit_graph6(clique_minus_edge(7).pattern()) + "\n")
    proc = run_cli(["arrow", "--graph", str(path), "--targets", "K3e,J4", "--max-conflicts", "0"])
    budget_error = "resource error: conflict budget 0 exhausted\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", budget_error)


def test_verify_schlafli_overrun_reports_the_finished_checks():
    # each split that overruns reads unknown; the checks around it still run
    proc = run_cli(["verify", "schlafli", "--max-conflicts", "1"])
    assert (proc.returncode, proc.stderr) == (3, BUDGET_ERROR)
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert "strongly regular (27,10,1,5): ok" in lines
    assert "(J4,J7;27)-good: ok" in lines
    unknown = [line for line in lines if line.endswith(": unknown, over the conflict budget")]
    assert unknown and "FAILED" not in proc.stdout
    assert lines[-1] == "result: PASS"


def test_verify_split_pipeline_overrun_reports_the_finished_hosts(tmp_path):
    from test_sat import SPLIT_HOST, UNSPLIT_HOST

    # the second host's symmetry-broken formula needs 187 conflicts
    (tmp_path / "good_K3_J7_n16.g6").write_text(f"{SPLIT_HOST}\n{UNSPLIT_HOST}\n")
    argv = ["verify", "split-pipeline", "--level", "16", "--archive", str(tmp_path)]
    proc = run_cli(argv + ["--max-conflicts", "150"])
    assert (proc.returncode, proc.stderr) == (3, "resource error: conflict budget 150 exhausted\n")
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert lines[1:] == [
        "verify split-pipeline",
        "(K3,J7;16)-good graphs loaded: 2",
        "splittable under (K3, J4): 1",
        "over the conflict budget, verdict unknown: 1",
        "all compositions are (K3,K3,J4)-colorings: ok",
        "result: PASS",
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_split_budget_overrun_keeps_the_finished_verdicts(jobs):
    from ramseykit.targets import clique_minus_edge

    hosts = [Graph.empty(3), clique_minus_edge(7).pattern()]
    stdin = "".join(emit_graph6(g) + "\n" for g in hosts)
    argv = ["split", "--targets", "K3e,J4", "--max-conflicts", "1", "--jobs", jobs]
    proc = run_cli(argv, stdin=stdin)
    out = f"{key_hex(hosts[0])} SPLITTABLE\n{key_hex(hosts[1])} UNKNOWN\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, out, BUDGET_ERROR)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_split_runs_the_hosts_after_an_overrun(jobs):
    from ramseykit.targets import clique_minus_edge

    hosts = [clique_minus_edge(7).pattern(), Graph.empty(3), clique_minus_edge(7).pattern()]
    stdin = "".join(emit_graph6(g) + "\n" for g in hosts)
    argv = ["split", "--targets", "K3e,J4", "--max-conflicts", "1", "--jobs", jobs]
    proc = run_cli(argv, stdin=stdin, timeout=120)
    j7, empty = key_hex(hosts[0]), key_hex(hosts[1])
    out = f"{j7} UNKNOWN\n{empty} SPLITTABLE\n{j7} UNKNOWN\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, out, BUDGET_ERROR)


def test_split_malformed_line_exits_2_at_any_job_count():
    # a parse error raised while feeding the pool crosses a process boundary;
    # the timeout turns a hang into a failure
    stdin = emit_graph6(Graph.complete(5)) + "\n" + emit_graph6(Graph.complete(6)) + "\nB{\n"
    runs = [
        run_cli(["split", "--targets", "K3,K3", "--jobs", jobs], stdin=stdin, timeout=60)
        for jobs in ("1", "2")
    ]
    one, two = [(p.returncode, p.stdout, p.stderr) for p in runs]
    assert one == two
    assert one[0] == 2 and one[2] == "error: nonzero padding bits (byte offset 1)\n"
    assert [line.split()[1] for line in one[1].splitlines()] == ["SPLITTABLE", "UNSPLITTABLE"]


@pytest.mark.parametrize(
    "extra",
    [["--archive", "DIR"], ["--level", "5"], ["--level", "12", "--archive", "DIR"]],
    ids=["no-level", "no-archive", "missing-archive"],
)
def test_verify_split_pipeline_usage_exits_2(extra, tmp_path, capsys):
    argv = ["verify", "split-pipeline"] + [str(tmp_path) if a == "DIR" else a for a in extra]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err


def test_split_jobs_do_not_change_output():
    from ramseykit.targets import clique_minus_edge

    hosts = [Graph.complete(6), Graph.complete(5), Graph.cycle(7), Graph.complete(6)]
    hosts += [clique_minus_edge(6).pattern(), Graph.complete(4)]
    stdin = "".join(emit_graph6(g) + "\n" for g in hosts)
    one = run_cli(["split", "--targets", "K3,K3", "--jobs", "1"], stdin=stdin)
    two = run_cli(["split", "--targets", "K3,K3", "--jobs", "2"], stdin=stdin)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
    verdicts = [line.split()[1] for line in one.stdout.splitlines()]
    assert verdicts == ["UNSPLITTABLE", "SPLITTABLE", "SPLITTABLE", "UNSPLITTABLE"] + [
        "SPLITTABLE"
    ] * 2
