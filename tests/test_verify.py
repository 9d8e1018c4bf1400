import random

import pytest

from oracles import brute_avoiding_colorings, random_graph
from ramseykit import targets, verify
from ramseykit.enumeration import archive_filename, enumerate_good
from ramseykit.graphs import Graph
from test_sat import SPLIT_HOST, UNSPLIT_HOST


def test_lemma_hex_passes():
    report = verify.verify_lemma_hex()
    assert report.passed
    text = str(report)
    assert "classes examined: 5" in text
    assert "result: PASS" in text


def test_lemma_hex_report_is_deterministic():
    assert str(verify.verify_lemma_hex()) == str(verify.verify_lemma_hex())


def test_j7_arrow_passes_over_full_space():
    report = verify.verify_j7_arrow()
    assert report.passed
    text = str(report)
    assert "colorings examined: 1048576" in text
    assert "R(K3e,J4) = 7" in text


def test_arrowing_misses_counts_the_avoiding_colorings():
    k3 = targets.clique(3)
    # the triangle-free 2-colorings of K5 are its 12 labeled 5-cycles,
    # each with its complementary 5-cycle in the other color
    assert verify._arrowing_misses(Graph.complete(5), k3, k3) == (12, 1 << 10)
    assert verify._arrowing_misses(Graph.complete(6), k3, k3) == (0, 1 << 15)


def test_arrowing_misses_agree_with_brute_force():
    rng = random.Random(11)
    pairs = [
        (targets.clique(3), targets.clique(3)),
        (targets.clique(3), targets.clique_minus_edge(4)),
        (targets.cycle(4), targets.cycle(4)),
        (targets.clique(2), targets.clique(3)),
        (targets.triangle_plus_pendant(), targets.clique_minus_edge(4)),
    ]
    seen = set()
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 7), rng.uniform(0.5, 1.0))
        if g.edge_count > 15:
            continue
        for t1, t2 in pairs:
            misses, examined = verify._arrowing_misses(g, t1, t2)
            assert examined == 1 << g.edge_count
            assert misses == brute_avoiding_colorings(g, t1, t2), (g.adj, t1, t2)
            seen.add(misses)
    assert 0 in seen and len(seen) > 50


def test_figures_pass():
    assert verify.verify_figure("figure3").passed
    assert verify.verify_figure("figure4").passed
    with pytest.raises(ValueError):
        verify.verify_figure("figure9")


def test_schlafli_report_passes():
    report = verify.verify_schlafli()
    assert report.passed and not report.overrun
    text = str(report)
    assert "strongly regular (27,10,1,5): ok" in text
    assert "complement is unsplittable for (K3, J4): ok" in text


def test_split_pipeline_from_archive(tmp_path):
    enumerate_good(
        targets.clique(3), targets.clique_minus_edge(7), 5, emit_dir=str(tmp_path)
    )
    report = verify.verify_split_pipeline(5, archive_dir=str(tmp_path))
    assert report.passed
    assert "graphs loaded: 14" in str(report)
    assert "splittable under (K3, J4): 14" in str(report)


def test_split_pipeline_counts_an_unsplittable_host(tmp_path):
    # an order-16 archive with one host of each verdict: the complement of
    # the second arrows (K3, J4), so only the first is composed
    name = archive_filename(targets.clique(3), targets.clique_minus_edge(7), 16)
    (tmp_path / name).write_text(f"{SPLIT_HOST}\n{UNSPLIT_HOST}\n", encoding="ascii")
    report = verify.verify_split_pipeline(16, archive_dir=str(tmp_path))
    text = str(report)
    assert report.passed and "result: PASS" in text
    assert "(K3,J7;16)-good graphs loaded: 2" in text
    assert "splittable under (K3, J4): 1" in text


def test_split_pipeline_counts_an_overrun_host_as_unknown(tmp_path):
    # the symmetry-broken formulas of SPLIT_HOST and UNSPLIT_HOST take 115
    # and 187 conflicts: a budget of 150 leaves the first archive host
    # unknown and still decides the second
    name = archive_filename(targets.clique(3), targets.clique_minus_edge(7), 16)
    (tmp_path / name).write_text(f"{UNSPLIT_HOST}\n{SPLIT_HOST}\n", encoding="ascii")
    report = verify.verify_split_pipeline(16, archive_dir=str(tmp_path), max_conflicts=150)
    assert report.passed and report.overrun
    assert report.lines == [
        "(K3,J7;16)-good graphs loaded: 2",
        "splittable under (K3, J4): 1",
        "over the conflict budget, verdict unknown: 1",
        "all compositions are (K3,K3,J4)-colorings: ok",
    ]
    # a budget that every host meets leaves the report as without one
    roomy = verify.verify_split_pipeline(16, archive_dir=str(tmp_path), max_conflicts=187)
    assert not roomy.overrun
    assert str(roomy) == str(verify.verify_split_pipeline(16, archive_dir=str(tmp_path)))


def test_split_pipeline_missing_archive_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        verify.verify_split_pipeline(9, archive_dir=str(tmp_path))


def test_split_pipeline_needs_source():
    with pytest.raises(ValueError):
        verify.verify_split_pipeline(5)


def test_reports_embed_version():
    from ramseykit import __version__

    assert f"ramseykit {__version__}" in str(verify.verify_figure("figure3"))
