"""The benchmark's checkers accept right colorings and minor models and
catch wrong ones."""

import networkx as nx
import pytest

from checks import coloring_problems, minor_model_problems


def _wheel():
    # hub 0 on a 5-cycle 1..5: every vertex has degree >= 3
    return nx.wheel_graph(6)


GOOD_WHEEL = {0: 1, 1: 2, 2: 3, 3: 3, 4: 4, 5: 2}


def test_good_coloring_passes():
    assert coloring_problems(_wheel().adj, GOOD_WHEEL) == []


def test_good_coloring_of_a_path_needs_only_min_degree_colors():
    path = nx.path_graph(4)  # ends see one color, middles two
    assert coloring_problems(path.adj, {0: 1, 1: 1, 2: 2, 3: 2}) == []


@pytest.mark.parametrize("bad, fragment", [
    ({v: c for v, c in GOOD_WHEEL.items() if v != 3}, "uncolored"),
    ({**GOOD_WHEEL, 9: 1}, "not in the graph"),
    ({**GOOD_WHEEL, 2: 7}, "not in 1..6"),
    ({**GOOD_WHEEL, 2: 0}, "not in 1..6"),
    ({**GOOD_WHEEL, 2: True}, "not in 1..6"),
    ({**GOOD_WHEEL, 2: "3"}, "not in 1..6"),
    ({0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2}, "sees 1 colors"),
    ({0: 1, 1: 2, 2: 3, 3: 2, 4: 3, 5: 2}, "sees 2 colors, needs 3"),
])
def test_bad_colorings_are_caught(bad, fragment):
    problems = coloring_problems(_wheel().adj, bad)
    assert problems and any(fragment in p for p in problems), problems


# --- minor models ------------------------------------------------------

def _k5_subdivided():
    # K5 on 0..4 with the edge 0-1 subdivided by vertex 5
    g = nx.complete_graph(5)
    g.remove_edge(0, 1)
    g.add_edges_from([(0, 5), (5, 1)])
    return g


GOOD_K5 = (frozenset({0, 5}), frozenset({1}), frozenset({2}),
           frozenset({3}), frozenset({4}))
GOOD_K33 = tuple(frozenset({v}) for v in range(6))


def test_good_minor_models_pass():
    assert minor_model_problems(_k5_subdivided().adj, "K5", GOOD_K5) == []
    k33 = nx.complete_bipartite_graph(3, 3)
    assert minor_model_problems(k33.adj, "K33", GOOD_K33) == []


@pytest.mark.parametrize("kind, sets, fragment", [
    (None, None, "no K5 or K33"),
    ("K7", GOOD_K5, "no K5 or K33"),
    ("K5", GOOD_K5[:4], "has 4 branch sets"),
    ("K5", (frozenset(),) + GOOD_K5[1:], "empty or leaves"),
    ("K5", (frozenset({0, 9}),) + GOOD_K5[1:], "empty or leaves"),
    ("K5", (frozenset({0, 2}),) + GOOD_K5[1:], "overlap"),
    ("K5", tuple(frozenset({v}) for v in range(5)),
     "0 and 1 are not joined"),
])
def test_bad_minor_models_are_caught(kind, sets, fragment):
    problems = minor_model_problems(_k5_subdivided().adj, kind, sets)
    assert problems and any(fragment in p for p in problems), problems


def test_disconnected_branch_set_is_caught():
    g = _k5_subdivided()
    g.add_edge(6, 4)  # 6 hangs off 4, away from 0
    sets = (frozenset({0, 5, 6}),) + GOOD_K5[1:]
    problems = minor_model_problems(g.adj, "K5", sets)
    assert any("0 is not connected" in p for p in problems), problems


def test_k33_needs_each_left_right_pair():
    g = nx.complete_bipartite_graph(3, 3)
    g.remove_edge(0, 3)
    problems = minor_model_problems(g.adj, "K33", GOOD_K33)
    assert problems == ["branch sets 0 and 3 are not joined"]
