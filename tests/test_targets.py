import hashlib
import pickle

import pytest

from oracles import brute_isomorphic
from ramseykit import targets
from ramseykit.graphs import Graph


@pytest.mark.parametrize("token", ["K3", "J4", "K3e", "K5mP3", "C6"])
def test_token_round_trips(token):
    t = targets.parse_target(token)
    assert str(t) == token
    assert targets.parse_target(str(t)) == t


@pytest.mark.parametrize("token", ["K2", "K3", "J4", "J7", "K3e", "K4mP3", "K5mP3", "C3", "C6"])
def test_target_pickles_with_its_token(token):
    # the --jobs paths send targets to worker processes by pickle
    t = targets.parse_target(token)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(t, protocol))
        assert (back.kind, back.k, back.token) == (t.kind, t.k, t.token)
        assert back == t and hash(back) == hash(t)
    assert targets.parse_target(t.token) == t


def test_equality_and_hash_depend_on_kind_and_k_only():
    a, b = targets.Target(targets.CLIQUE, 4), targets.clique(4)
    assert a == b and hash(a) == hash(b) == hash((targets.CLIQUE, 4))
    assert a != targets.clique(5) and a != targets.clique_minus_edge(4)
    assert repr(a) == "Target(kind='clique', k=4)"
    assert not hasattr(a, "__dict__")  # slotted: kind and k are slot loads
    with pytest.raises(TypeError):
        targets.Target(targets.CLIQUE, 4, "K4")  # the token is derived, not given


def test_k3e_is_k4_minus_p3():
    k3e = targets.triangle_plus_pendant()
    assert targets.parse_target("K4mP3") == k3e
    assert targets.parse_target("K3e") == k3e
    assert str(targets.parse_target("K4mP3")) == "K3e"


def test_k3e_pattern_is_triangle_with_pendant():
    pendant = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert brute_isomorphic(targets.triangle_plus_pendant().pattern(), pendant)


def test_edge_count_matches_the_pattern():
    for kind, (_, _, low, _) in targets._KINDS.items():
        for k in range(low, 9):
            t = targets.Target(kind, k)
            assert t.edge_count == t.pattern().edge_count, t


def _parse_record(token):
    try:
        t = targets.parse_target(token)
    except ValueError as exc:
        return f"{token!r} {type(exc).__name__}: {exc}"
    return f"{token!r} {t.kind} {t.k} {t.token} {sorted(t.pattern().edges())}"


def _token_set():
    heads = ["K", "J", "C", "Q", "k", "KJ", ""]
    ks = [str(k) for k in range(13)] + [f"{k:02d}" for k in range(10)] + ["", "x"]
    tails = ["", "e", "mP3", "mp3"]
    tokens = [h + k + t for h in heads for k in ks for t in tails]
    tokens += [" K3 ", "K3\n", "K 3", "K3e3", "J4e", "C5mP3", "K4e", "K3,J4"]
    return list(dict.fromkeys(tokens))


def test_parse_outcomes_are_pinned():
    tokens = _token_set()
    assert len(tokens) == 705
    records = [_parse_record(tok) for tok in tokens]
    assert _parse_record("K03e") == (
        "'K03e' clique_minus_p3 4 K3e [(0, 2), (0, 3), (1, 3), (2, 3)]"
    )
    assert _parse_record("K3mP3") == (
        "'K3mP3' ValueError: clique_minus_p3 needs k >= 4, got 3"
    )
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "943cdb5c5e52b1ae4f7858b90453966b5cd7170695fff090d3ad60b4a7be5920"
