"""Constructive list coloring: greedy slack, complete graphs, odd cycles,
the degree-choosability machinery, and the routines that color on an
adjacency against the Graph-based ones they replaced."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from hubs import HUB_FAMILIES, radial
from wdcolor import listcolor, pipeline, reductions
from wdcolor.exact import list_color_exact
from wdcolor.generators import named, triangulation
from wdcolor.graphs import Graph, block_kind, blocks
from wdcolor.listcolor import (DependencyColoringError,
                               color_complete_with_lists,
                               color_dependency_graph,
                               color_odd_cycle_with_lists, degree_choose,
                               greedy_with_slack, pick_color)
from wdcolor.pipeline import wd3_color_planar
from wdcolor.reductions import (PALETTE, SHORT_KINDS, LiftError,
                                certify_lemma)


def subsets(universe, size):
    return [frozenset(c) for c in itertools.combinations(universe, size)]


def check_in_lists(g, lists, c):
    assert set(c) == set(g.vertices())
    for v in g.vertices():
        assert c[v] in lists[v]
    for u, v in g.edges():
        assert c[u] != c[v]


def test_output_checks_survive_optimized_mode():
    """Under ``python -O`` a wrong coloring still raises: the output
    checks are explicit raises, not ``assert`` statements."""
    script = (
        "from wdcolor import listcolor\n"
        "from wdcolor.graphs import Graph\n"
        "listcolor.pick_color = lambda avail, order=None: 1\n"
        "g = Graph.from_edges([(0, 1), (1, 2)])\n"
        "listcolor.greedy_with_slack(g, {v: {1, 2} for v in range(3)}, 0)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert "AssertionError" in run.stderr


def test_pick_color_prefers_order_then_smallest():
    assert pick_color({3, 1, 2}) == 1
    assert pick_color({3, 1, 2}, order=(2, 9, 3)) == 2
    assert pick_color({8, 9}, order=(1, 2)) == 8
    with pytest.raises(ValueError):
        pick_color([])


def test_greedy_with_slack_on_random_graphs():
    rng = random.Random(2)
    for _ in range(40):
        g = oracles.random_connected_graph(rng.randint(2, 7), rng, p=0.5)
        slack = rng.choice(g.vertices())
        lists = {}
        for v in g.vertices():
            size = g.degree(v) + (1 if v == slack else 0)
            size = max(size, 1)
            lists[v] = frozenset(rng.sample(range(1, 9), size))
        c = greedy_with_slack(g, lists, slack)
        check_in_lists(g, lists, c)


def test_greedy_with_slack_rejects_bad_input():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    tight = {v: frozenset({1, 2}) for v in g.vertices()}
    with pytest.raises(ValueError):
        greedy_with_slack(g, tight, 0)  # no slack at the slack vertex
    with pytest.raises(ValueError):
        greedy_with_slack(Graph.from_edges([(0, 1), (2, 3)]),
                          {v: frozenset({1, 2}) for v in range(4)}, 0)


def test_complete_lists_exhaustive_small():
    # every list pattern from a 4-color universe on K3 and K4
    for n in (2, 3, 4):
        vs = list(range(n))
        options = subsets(range(1, 5), n - 1)
        for pattern in itertools.product(options, repeat=n):
            lists = dict(zip(vs, pattern))
            if set(lists[vs[0]]) == set(lists[vs[-1]]):
                with pytest.raises(ValueError):
                    color_complete_with_lists(vs, lists)
                continue
            c = color_complete_with_lists(vs, lists)
            assert len(set(c.values())) == n
            for v in vs:
                assert c[v] in lists[v]


def test_odd_cycle_lists_exhaustive_triangle_and_c5():
    for k in (3, 5):
        cycle = list(range(k))
        options = subsets(range(1, 5), 2)
        for pattern in itertools.product(options, repeat=k):
            lists = dict(zip(cycle, pattern))
            if set(lists[0]) == set(lists[k - 1]):
                continue
            c = color_odd_cycle_with_lists(cycle, lists)
            g = Graph.from_edges([(i, (i + 1) % k) for i in range(k)])
            check_in_lists(g, lists, c)


def test_odd_cycle_rejects_even_or_equal_end_lists():
    with pytest.raises(ValueError):
        color_odd_cycle_with_lists([0, 1, 2, 3],
                                   {v: frozenset({1, 2}) for v in range(4)})
    with pytest.raises(ValueError):
        color_odd_cycle_with_lists([0, 1, 2],
                                   {v: frozenset({1, 2}) for v in range(3)})


def test_degree_choose_output_or_principled_refusal():
    rng = random.Random(6)
    successes = refusals = 0
    for _ in range(150):
        g = oracles.random_connected_graph(rng.randint(2, 8), rng, p=0.45)
        lists = {v: frozenset(rng.sample(range(1, 9),
                                         max(1, g.degree(v))))
                 for v in g.vertices()}
        c = degree_choose(g, lists)
        if c is None:
            refusals += 1
            # refusal is only allowed in the tight Gallai-tree case
            assert all(len(lists[v]) == g.degree(v) for v in g.vertices())
        else:
            successes += 1
            check_in_lists(g, lists, c)
            assert list_color_exact(
                g, {v: set(lists[v]) for v in g.vertices()}) is not None
    assert successes >= 50


def test_degree_choose_slack_always_succeeds():
    rng = random.Random(8)
    for _ in range(40):
        g = oracles.random_connected_graph(rng.randint(2, 7), rng, p=0.5)
        lists = {v: frozenset(rng.sample(range(1, 10), g.degree(v) + 1))
                 for v in g.vertices()}
        c = degree_choose(g, lists)
        assert c is not None
        check_in_lists(g, lists, c)


def test_degree_choose_refuses_odd_cycle_with_equal_lists():
    c5 = Graph.from_edges([(i, (i + 1) % 5) for i in range(5)])
    lists = {v: frozenset({1, 2}) for v in range(5)}
    assert degree_choose(c5, lists) is None  # genuinely uncolorable
    assert list_color_exact(c5, {v: {1, 2} for v in range(5)}) is None


def test_degree_choose_non_gallai_tight_lists_succeed():
    # even cycle with tight equal lists: not a Gallai tree, must succeed
    c6 = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])
    lists = {v: frozenset({1, 2}) for v in range(6)}
    c = degree_choose(c6, lists)
    assert c is not None
    check_in_lists(c6, lists, c)


def test_degree_choose_validates_input():
    g = Graph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        degree_choose(g, {v: frozenset({1}) for v in range(4)})
    tri = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        degree_choose(tri, {0: frozenset({1}), 1: frozenset({1, 2}),
                            2: frozenset({1, 2})})


def test_color_dependency_graph_components_and_hooks():
    # two components: a triangle with rainbow-capable lists and an edge
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)])
    lists = {0: [1, 2], 1: [2, 3], 2: [1, 3], 3: [1], 4: [1, 2]}
    c = color_dependency_graph(g, lists)
    check_in_lists(g, {v: frozenset(lists[v]) for v in lists}, c)

    # blocked component: C5 with equal 2-lists; the hook widens one list
    c5 = Graph.from_edges([(i, (i + 1) % 5) for i in range(5)])
    blocked = {v: [1, 2] for v in range(5)}
    calls = []

    def hook(component):
        calls.append(sorted(component))
        fresh = {v: [1, 2] for v in range(5)}
        fresh[0] = [1, 2, 3]
        return fresh

    c = color_dependency_graph(c5, blocked, perturbation_hook=hook)
    assert calls == [[0, 1, 2, 3, 4]]
    assert all(c[u] != c[v] for u, v in c5.edges())

    with pytest.raises(DependencyColoringError):
        color_dependency_graph(c5, blocked)
    with pytest.raises(DependencyColoringError):
        color_dependency_graph(c5, blocked,
                               perturbation_hook=lambda comp: None)
    with pytest.raises(ValueError):
        color_dependency_graph(c5, {v: [1] for v in range(5)})


def test_a_gallai_tree_is_split_into_blocks_once(monkeypatch):
    """degree_choose refuses a Gallai tree after splitting it into
    blocks; the propositions then take those blocks, with no split of
    their own."""
    calls = []

    def spy(g):
        calls.append(g)
        return blocks(g)

    monkeypatch.setattr(listcolor, "blocks", spy)
    bowtie = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                               (0, 4)])
    lists = {0: [1, 2, 3, 4], 1: [1, 2], 2: [1, 2], 3: [1, 3], 4: [1, 3]}
    c = color_dependency_graph(bowtie, lists)
    check_in_lists(bowtie, {v: frozenset(lists[v]) for v in lists}, c)
    assert len(calls) == 1


def _cycle(k, offset=0):
    return [(offset + i, offset + (i + 1) % k) for i in range(k)]


@pytest.mark.parametrize("g,size", [
    (Graph.from_edges(_cycle(24)), 2),
    (Graph.from_edges(_cycle(100)), 2),
    (Graph.from_edges(_cycle(12) + _cycle(12, 12)
                      + [(i, 12 + i) for i in range(12)]), 3),
    (Graph.from_edges(_cycle(50) + _cycle(50, 50)
                      + [(i, 50 + i) for i in range(50)]), 3),
], ids=["C24", "C100", "C12xK2", "C50xK2"])
def test_large_tight_blocks_with_equal_lists_color_fast(g, size):
    # a regular block with one list everywhere leaves no slack and no pair
    # of differing lists, so only the equal-lists step can color it
    lists = {v: set(range(1, size + 1)) for v in g.vertices()}
    for solve in (degree_choose, color_dependency_graph):
        start = time.perf_counter()
        c = solve(g, lists)
        assert time.perf_counter() - start < 1.0
        check_in_lists(g, lists, c)


@pytest.mark.parametrize("edges", [
    # triangular prism: vertex 0's first neighbor pair is adjacent
    _cycle(3) + _cycle(3, 3) + [(0, 3), (1, 4), (2, 5)],
    # two K4 - e joined at their ends: removing 1 and 2, vertex 0's first
    # non-adjacent neighbor pair, cuts the graph in two
    [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (4, 6), (4, 7), (5, 6),
     (5, 7), (6, 7), (1, 4), (2, 5)],
], ids=["C3xK2", "two-K4-e"])
def test_equal_lists_share_a_color_on_a_pair_that_keeps_the_block_whole(
        edges):
    g = Graph.from_edges(edges)
    lists = {v: {1, 2, 3} for v in g.vertices()}
    check_in_lists(g, lists, degree_choose(g, lists))


_C4 = Graph.from_edges(_cycle(4))
_CUBE = named("cube")
_K4_MINUS_03 = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


@pytest.mark.parametrize("g,lists,order,expected", [
    (_C4, {v: {1, 2} for v in range(4)}, None,
     {0: 1, 1: 2, 2: 1, 3: 2}),
    (_C4, {0: {1, 2}, 1: {1, 3}, 2: {2, 3}, 3: {1, 2}}, None,
     {0: 2, 1: 1, 2: 2, 3: 1}),
    (_CUBE, {v: {1, 2, 3} for v in range(8)}, None,
     {0: 2, 1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1, 7: 2}),
    (_K4_MINUS_03, {0: {1, 2}, 1: {1, 2, 3}, 2: {1, 2, 3}, 3: {2, 3}}, None,
     {0: 2, 1: 3, 2: 1, 3: 2}),
    (_C4, {v: {1, 2} for v in range(4)}, (3, 1, 2, 4, 5, 6),
     {0: 1, 1: 2, 2: 1, 3: 2}),
    (_C4, {0: {1, 2}, 1: {1, 3}, 2: {2, 3}, 3: {1, 2}}, (3, 1, 2, 4, 5, 6),
     {0: 2, 1: 1, 2: 3, 3: 1}),
    (_CUBE, {v: {1, 2, 3} for v in range(8)}, (3, 1, 2, 4, 5, 6),
     {0: 1, 1: 3, 2: 1, 3: 3, 4: 3, 5: 1, 6: 3, 7: 1}),
    (_K4_MINUS_03, {0: {1, 2}, 1: {1, 2, 3}, 2: {1, 2, 3}, 3: {2, 3}},
     (3, 1, 2, 4, 5, 6), {0: 2, 1: 3, 2: 1, 3: 2}),
], ids=["C4-even-cycle", "C4-precolor", "cube-lovasz-pair", "K4-e-precolor",
        "C4-even-cycle-ordered", "C4-precolor-ordered",
        "cube-lovasz-pair-ordered", "K4-e-precolor-ordered"])
def test_tight_blocks_color_as_pinned(monkeypatch, g, lists, order,
                                      expected):
    """Every list has exactly its vertex's degree and no block is complete
    or an odd cycle, so ``degree_choose`` must go through ``_color_block``:
    the even-cycle alternation, a precolored vertex whose list its neighbor
    lacks, or a Lovász pair sharing one color.  The colorings are pinned."""
    calls = []

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    real = listcolor._color_block
    monkeypatch.setattr(listcolor, "_color_block", spy)
    got = degree_choose(g, lists, order)
    assert calls, "the tight block path did not run"
    assert got == expected
    check_in_lists(g, lists, got)


def _gallai_tree(n, rng):
    """A connected graph on n vertices whose blocks are all complete graphs
    or odd cycles, glued at random cut vertices."""
    edges, size = [], 1
    while size < n:
        at = rng.randrange(size)
        k = rng.choice((2, 3, 4, 5))
        if size + k - 1 > n:
            k = n - size + 1
        ring = [at] + list(range(size, size + k - 1))
        if k == 5 and rng.random() < 0.5:
            edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
        else:
            edges += list(itertools.combinations(ring, 2))
        size += k - 1
    return Graph.from_edges(edges)


def test_tight_lists_color_whenever_colorable():
    # |L(v)| = d(v) from a small palette: equal lists are common, so the
    # Gallai-tree inputs exercise each block as the core with the
    # propositions, and the others the non-Gallai block step
    rng = random.Random(13)
    non_gallai = gallai_colored = refused = 0
    for trial in range(6000):
        n = rng.randint(3, 10)
        g = (_gallai_tree(n, rng) if trial % 2
             else oracles.random_connected_graph(n, rng, p=0.4))
        palette = range(1, max(g.degree(v) for v in g.vertices()) + 2)
        lists = {v: set(rng.sample(palette, g.degree(v)))
                 for v in g.vertices()}
        if any(block_kind(g, b) == "other" for b in blocks(g)):
            non_gallai += 1
            check_in_lists(g, lists, degree_choose(g, lists))
            continue
        assert degree_choose(g, lists) is None
        try:
            c = color_dependency_graph(g, lists)
        except DependencyColoringError:
            refused += 1
            assert list_color_exact(g, lists) is None, (sorted(g.edges()),
                                                        lists)
            continue
        gallai_colored += 1
        check_in_lists(g, lists, c)
    assert non_gallai >= 1500 and gallai_colored >= 3000 and refused >= 100


# ---------------------------------------------------------------------------
# the adjacency-based routines give what the Graph-based ones gave
# ---------------------------------------------------------------------------


def outcome(solve, *args):
    """What ``solve`` returns, or the type of the exception it raises."""
    try:
        return solve(*args)
    except (ValueError, DependencyColoringError, LiftError) as exc:
        return type(exc)


def assert_colors_as_on_copies(d, lists, order, hooks=(None, None)):
    got = outcome(color_dependency_graph, d, lists, hooks[0], order)
    want = outcome(oracles.color_dependency_graph_on_copies, d, lists,
                   hooks[1], order)
    assert got == want, (sorted(d.edges()), lists, order)
    return got


def test_dependency_instances_of_the_lifts_match_the_graph_based_code(
        monkeypatch):
    """On every lift of the certification runs, from a cold memo of
    dependency templates, and on two graphs that share a group's neighbor
    sets with the memo warm from the other one."""
    real = reductions._dependency_instance
    reductions._dependency_template.cache_clear()
    seen = []

    def both(g, coloring, group, order):
        got = outcome(real, g, coloring, group, order)
        want = outcome(oracles.dependency_instance_by_probes, g, coloring,
                       group, order)
        assert got == want, (sorted(group), dict(coloring))
        if isinstance(got, tuple):
            assert_colors_as_on_copies(*got, order)
        seen.append(group)
        return real(g, coloring, group, order)

    monkeypatch.setattr(reductions, "_dependency_instance", both)
    for label in SHORT_KINDS:
        assert certify_lemma(label, budget=20).ok, label
    assert len(seen) > 30000
    # the outsider 3 touches the triangle once; with its extra colored
    # neighbor 8 it already sees three colors and asks the triangle for none
    a = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5),
                          (3, 6), (3, 7)])
    b = oracles.plus_edges(a, (3, 8))
    coloring = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1, 7: 2, 8: 3}
    group = frozenset({0, 1, 2})
    got = []
    for warm, g in ((b, a), (a, b)):
        reductions._dependency_template.cache_clear()
        real(warm, coloring, group, PALETTE)
        got.append(real(g, coloring, group, PALETTE))
        assert reductions._dependency_template.cache_info().hits == 1
        assert got[-1] == oracles.dependency_instance_by_probes(
            g, coloring, group, PALETTE)
    assert got[0][1] != got[1][1]


def test_anchor_assemblies_match_the_graph_based_code(monkeypatch):
    real = pipeline.color_dependency_graph
    calls = []

    def both(d, lists, *args):
        assert not args
        calls.append(d.n)
        assert_colors_as_on_copies(d, lists, None)
        return real(d, lists)

    monkeypatch.setattr(pipeline, "color_dependency_graph", both)
    graphs = [radial(triangulation(n, random.Random(n)))
              for n in range(4, 40, 5)]
    graphs += [radial(family(d)) for family in HUB_FAMILIES.values()
               for d in (4, 7, 12, 30)]
    for g in graphs:
        wd3_color_planar(g)
    assert len(calls) == len(graphs) and max(calls) > 50


def _random_instance(rng, slack):
    """A graph of one to three random components, and random lists that
    cover the degrees exactly, or with one more color at some vertices."""
    edges, top = [], 0
    for _ in range(rng.choice((1, 1, 2, 3))):
        part = oracles.random_connected_graph(rng.randint(1, 7), rng,
                                              p=rng.choice((0.3, 0.5, 0.8)))
        edges += [(u + top, v + top) for u, v in part.edges()]
        top += part.n
    g = Graph.from_edges(edges, vertices=range(top))
    palette = range(1, max(g.degree(v) for v in g.vertices()) + 3)
    lists = {v: set(rng.sample(palette, g.degree(v)
                               + (slack and rng.random() < 0.3)))
             for v in g.vertices()}
    return g, lists


def widen(lists):
    """A perturbation hook that adds a color at the stuck component's
    smallest vertex, once, and then gives up."""
    calls = []

    def hook(stuck):
        if calls:
            return None
        calls.append(stuck)
        fresh = {v: set(lists[v]) for v in lists}
        fresh[min(stuck)].add(10)
        return fresh
    return hook


def test_random_instances_color_as_on_copies():
    rng = random.Random(19)
    colored = refused = 0
    for trial in range(3000):
        g, lists = _random_instance(rng, slack=trial % 2)
        order = (None if trial % 3 == 0
                 else tuple(rng.sample(range(1, 10), 9)))
        assert outcome(degree_choose, g, lists, order) == outcome(
            lambda *a: oracles.degree_choose_on_graph(*a)[0], g, lists,
            order)
        slack = next((v for v in g.vertices()
                      if len(lists[v]) > g.degree(v)), None)
        if slack is not None:
            assert outcome(greedy_with_slack, g, lists, slack, order) \
                == outcome(oracles.greedy_with_slack_on_graph, g, lists,
                           slack, order)
        got = assert_colors_as_on_copies(g, lists, order,
                                         (widen(lists), widen(lists)))
        if isinstance(got, dict):
            colored += 1
        else:
            refused += 1
    assert colored > 2500 and refused > 50
