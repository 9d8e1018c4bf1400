import pytest

from oracles import brute_isomorphic
from ramseykit import targets
from ramseykit.graphs import Graph


@pytest.mark.parametrize("token", ["K3", "J4", "K3e", "K5mP3", "C6"])
def test_token_round_trips(token):
    t = targets.parse_target(token)
    assert str(t) == token
    assert targets.parse_target(str(t)) == t


def test_k3e_is_k4_minus_p3():
    k3e = targets.triangle_plus_pendant()
    assert targets.parse_target("K4mP3") == k3e
    assert targets.parse_target("K3e") == k3e
    assert str(targets.parse_target("K4mP3")) == "K3e"


def test_k3e_pattern_is_triangle_with_pendant():
    pendant = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert brute_isomorphic(targets.triangle_plus_pendant().pattern(), pendant)
