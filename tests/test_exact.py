"""Exact solvers against the naive enumeration oracles."""

import random

import networkx as nx
import pytest

import oracles
from wdcolor.exact import (ExactResult, SearchBudgetExceeded, _k_colorable,
                           chromatic_number_exact, list_color_exact,
                           product_coloring, wd_number_exact)
from wdcolor.generators import named
from wdcolor.graphs import Graph
from wdcolor.reductions import canonical_colorings
from wdcolor.verify import is_dynamic, is_proper, is_weak_dynamic


def test_known_weak_dynamic_numbers():
    assert wd_number_exact(named("c5"), 2, 6).value == 3
    assert wd_number_exact(named("k4_subdivided"), 2, 6).value == 4
    assert wd_number_exact(named("k4"), 3, 6).value == 4
    k13 = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    assert wd_number_exact(k13, 3, 6).value == 3


def test_witness_is_valid_and_tight():
    g = named("cube")
    res = wd_number_exact(g, 3, 6)
    assert res.feasible
    ok, _ = is_weak_dynamic(g, res.witness, 3)
    assert ok
    assert max(res.witness.values()) <= res.value
    # one fewer color must be infeasible — that is what minimal means
    assert wd_number_exact(g, 3, res.value - 1).value is None


def test_max_colors_cap_reports_infeasible():
    res = wd_number_exact(named("c5"), 2, 2)
    assert res.value is None and res.witness is None and not res.feasible


def test_trivial_graphs():
    assert wd_number_exact(Graph.empty(), 3, 6).value == 0
    one = Graph.from_edges([], vertices=[7])
    res = wd_number_exact(one, 3, 6)
    assert res.value == 1 and res.witness == {7: 1}


def test_wd_number_matches_oracle_small():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = oracles.random_connected_graph(n, rng, p=0.55)
        for k in (2, 3):
            want, _ = oracles.naive_wd_number(g, k, 6)
            got = wd_number_exact(g, k, 6)
            assert got.value == want, (sorted(g.edges()), k)


def test_wd_number_matches_the_recursive_search():
    """Same value and the same witness, key order included."""
    infeasible = 0
    values: dict[int, int] = {}
    for seed in range(1200):
        rng = random.Random(seed)
        n = rng.randint(2, 18)
        k = rng.randint(1, 4)
        max_colors = rng.randint(1, 6)
        g = _random_tree_plus_edges(n, rng, min(n - 1, rng.uniform(1.5, 5)))
        want_value, want = oracles.wd_number_recursive(g, k, max_colors)
        got = wd_number_exact(g, k, max_colors)
        assert got.value == want_value, (seed, k, max_colors)
        if want is None:
            assert got.witness is None
            infeasible += 1
            continue
        assert list(got.witness.items()) == list(want.items()), seed
        values[want_value] = values.get(want_value, 0) + 1
    assert infeasible >= 200, infeasible
    assert all(values.get(c, 0) >= 50 for c in (2, 3, 4)), values


def test_chromatic_number_known_and_oracle():
    assert chromatic_number_exact(named("k4"), 6).value == 4
    assert chromatic_number_exact(named("c5"), 6).value == 3
    assert chromatic_number_exact(named("k33"), 6).value == 2
    assert chromatic_number_exact(named("k5"), 4).value is None
    rng = random.Random(9)
    for _ in range(30):
        g = oracles.random_connected_graph(rng.randint(2, 6), rng, p=0.5)
        want = oracles.naive_chromatic_number(g, 6)
        got = chromatic_number_exact(g, 6)
        assert got.value == want
        assert is_proper(g, got.witness)


#: Average degree per palette size k, around where k-colorability of a
#: sparse random graph is in doubt, so searches backtrack and fail.
_AVG_DEGREE = {2: (1.9, 2.1), 3: (3.0, 5.0), 4: (5.0, 8.0)}


def _random_tree_plus_edges(n: int, rng: random.Random, avg: float) -> Graph:
    """A random spanning tree plus random edges, to average degree avg."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = max(n - 1, int(avg * n / 2))
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(sorted(edges), vertices=range(n))


def test_k_colorable_matches_the_recursive_search():
    infeasible = {2: 0, 3: 0, 4: 0}
    backtracked = {2: 0, 3: 0, 4: 0}
    for seed in range(900):
        rng = random.Random(seed)
        k = 2 + seed % 3
        n = rng.randint(4, 40)
        avg = min(n - 1, rng.uniform(*_AVG_DEGREE[k]))
        g = _random_tree_plus_edges(n, rng, avg)
        want = oracles.k_colorable_recursive(g, k)
        assert _k_colorable(g, k) == want, (seed, k, sorted(g.edges()))
        if want is None:
            infeasible[k] += 1
            continue
        # a search that never backtracks makes exactly n assignments
        try:
            assert _k_colorable(g, k, node_budget=n) == want
        except SearchBudgetExceeded:
            backtracked[k] += 1
    assert min(infeasible.values()) >= 50, infeasible
    assert backtracked[3] >= 20 and backtracked[4] >= 20, backtracked


def test_budget_exceeded_only_when_a_budget_is_given():
    ico = Graph.from_edges(nx.icosahedral_graph().edges())
    unbudgeted = chromatic_number_exact(ico, 4)
    assert unbudgeted.value == 4
    assert chromatic_number_exact(ico, 4, node_budget=10**6) == unbudgeted
    for budget in (0, 1, ico.n):
        with pytest.raises(SearchBudgetExceeded):
            chromatic_number_exact(ico, 4, node_budget=budget)
    # no search runs on the empty graph or above the clique bound
    assert chromatic_number_exact(Graph.empty(), 4, node_budget=0).value == 0
    assert chromatic_number_exact(named("k5"), 4, node_budget=0).value is None


def test_list_color_exact_agrees_with_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = oracles.random_connected_graph(n, rng, p=0.5)
        lists = {v: set(rng.sample(range(1, 5), rng.randint(1, 3)))
                 for v in g.vertices()}
        got = list_color_exact(g, lists)
        want = oracles.naive_list_colorable(g, lists)
        assert (got is not None) == want
        if got is not None:
            assert is_proper(g, got)
            assert all(got[v] in lists[v] for v in g.vertices())


def test_list_color_exact_matches_the_recursive_search():
    """Same feasibility on larger lists instances; on lists that are all
    {1..k} the search is the k-coloring search, witness included."""
    infeasible = 0
    for seed in range(600):
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        g = _random_tree_plus_edges(n, rng, min(n - 1, rng.uniform(2, 6)))
        if seed % 3:
            lists = {v: set(rng.sample(range(1, 6), rng.randint(1, 4)))
                     for v in g.vertices()}
        else:
            k = rng.randint(2, 4)
            lists = {v: set(range(1, k + 1)) for v in g.vertices()}
        got = list_color_exact(g, lists)
        want = oracles.list_color_recursive(g, lists)
        assert (got is None) == (want is None), seed
        if seed % 3 == 0:
            assert got == _k_colorable(g, k)
        infeasible += got is None
    assert 100 <= infeasible <= 500, infeasible


def _path(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize("search", ["wd", "list", "list-uneven",
                                    "canonical"])
def test_searches_are_not_bound_by_the_recursion_limit(search):
    """Every answer on a long path is immediate; a recursive search to
    depth n overflows Python's recursion limit here."""
    g = _path(5000)
    if search == "wd":
        res = wd_number_exact(g, 3, 6)
        assert res.value == 2
        assert is_weak_dynamic(g, res.witness, 3)[0]
    elif search == "canonical":
        first = next(canonical_colorings(g))
        assert is_weak_dynamic(g, first, 3)[0]
    else:
        if search == "list":
            lists = {v: {1, 2} for v in g.vertices()}
        else:
            lists = {v: {v % 3 + 1, (v + 1) % 3 + 1} for v in g.vertices()}
        got = list_color_exact(g, lists)
        assert got is not None and is_proper(g, got)
        assert all(got[v] in lists[v] for v in g.vertices())


def test_list_color_exact_requires_all_lists():
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(KeyError):
        list_color_exact(g, {0: {1}})


def test_product_coloring_is_dynamic():
    rng = random.Random(21)
    for _ in range(25):
        g = oracles.random_connected_graph(rng.randint(2, 7), rng, p=0.5)
        k = rng.choice((2, 3))
        chi = chromatic_number_exact(g, g.n)
        wd = wd_number_exact(g, k, g.n)
        combo = product_coloring(g, chi.witness, wd.witness, k)
        assert is_dynamic(g, combo, k)
        # the palette is at most chi * wd, witnessing the product bound
        assert len(set(combo.values())) <= chi.value * wd.value


def test_exact_result_shape():
    r = ExactResult(3, {0: 1})
    assert r.feasible
    assert not ExactResult(None, None).feasible
