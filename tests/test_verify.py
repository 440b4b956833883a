"""Coloring verifiers, cross-checked against the naive oracles."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wdcolor.generators import named, random_planar, triangulation
from wdcolor.graphs import Graph
from wdcolor.verify import (Hypergraph, _weak_dynamic_violations,
                            is_dynamic, is_proper,
                            is_proper_hypergraph_coloring,
                            is_satisfied_general, is_weak_dynamic,
                            neighborhood_hypergraph, palette_size,
                            seen_colors)


def c5():
    return named("c5")


def test_c5_three_coloring_is_2_weak_dynamic():
    # around the cycle: 1,1,2,2,3 — every vertex sees two colors
    c = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}
    ok, violations = is_weak_dynamic(c5(), c, 2)
    assert ok and violations == []


def test_dynamic_means_proper_and_weak_dynamic():
    # 1,2,1,2,3 around the cycle is proper but vertex 1 sees only color 1
    c = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3}
    assert is_proper(c5(), c)
    ok, _ = is_weak_dynamic(c5(), c, 2)
    assert not ok
    assert not is_dynamic(c5(), c, 2)
    rainbow = {v: v + 1 for v in range(5)}
    assert is_dynamic(c5(), rainbow, 2)


def test_violation_list_is_sorted_and_descriptive():
    c = {v: 1 for v in range(5)}
    ok, violations = is_weak_dynamic(c5(), c, 2)
    assert not ok
    assert [v.vertex for v in violations] == [0, 1, 2, 3, 4]
    for v in violations:
        assert v.seen == 1 and v.required == 2
    # a set or dict of vertices is walked in its own order, and what it
    # finds still comes out ascending
    ring = (40, 3, 17, 8, 1)
    adj = Graph.from_edges(zip(ring, ring[1:] + ring[:1])).adjacency()
    for vs in (set(ring), dict.fromkeys(reversed(ring))):
        assert list(vs) != sorted(vs)
        found = _weak_dynamic_violations(adj, dict.fromkeys(ring, 1), 2, vs)
        assert [v.vertex for v in found] == sorted(ring)


def test_monochromatic_is_fine_when_k_or_degree_is_low():
    path = Graph.from_edges([(0, 1)])
    ok, _ = is_weak_dynamic(path, {0: 1, 1: 1}, 3)
    assert ok  # degree-1 vertices only need one color seen


def test_seen_colors_and_palette_size():
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    c = {0: 5, 1: 1, 2: 1, 3: 2}
    assert seen_colors(g, c, 0) == {1, 2}
    # palette size is the largest color id: palettes are 1-based prefixes
    assert palette_size(c) == 5
    assert palette_size({0: 1, 1: 2}) == 2
    assert palette_size({}) == 0


def test_is_satisfied_examples():
    star5 = Graph.from_edges([(0, i) for i in range(1, 6)])
    partial = {1: 1, 2: 2, 3: 3, 4: 1}
    assert is_satisfied_general(star5, partial, 0, 3)  # sees 3 >= min(5,3)
    assert not is_satisfied_general(star5, {1: 1, 2: 1}, 0, 3)
    assert is_satisfied_general(star5, {1: 1, 2: 2}, 0, 2)
    leaf_graph = Graph.from_edges([(0, 1)])
    assert is_satisfied_general(leaf_graph, {1: 4}, 0, 3)
    assert not is_satisfied_general(leaf_graph, {}, 0, 3)


def test_neighborhood_hypergraph_shape():
    h = neighborhood_hypergraph(c5())
    assert isinstance(h, Hypergraph)
    assert sorted(sorted(e) for e in h.hyperedges) == sorted(
        sorted({(v - 1) % 5, (v + 1) % 5}) for v in range(5))


def test_c5_hypergraph_2_coloring_infeasible():
    h = neighborhood_hypergraph(c5())
    assert not any(
        is_proper_hypergraph_coloring(h, c)
        for c in oracles.all_colorings(range(5), (1, 2)))
    assert any(
        is_proper_hypergraph_coloring(h, c)
        for c in oracles.all_colorings(range(5), (1, 2, 3)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_verifiers_agree_with_oracles(data):
    n = data.draw(st.integers(1, 7), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges") \
        if pairs else set()
    g = Graph.from_edges(sorted(edges), vertices=range(n))
    colors = data.draw(
        st.lists(st.integers(1, 4), min_size=n, max_size=n), label="colors")
    c = dict(enumerate(colors))
    k = data.draw(st.integers(1, 4), label="k")
    ok, violations = is_weak_dynamic(g, c, k)
    assert ok == oracles.naive_is_weak_dynamic(g, c, k)
    assert ok == (not violations)
    for v in violations:
        assert v.seen == len(oracles.colors_seen(g, c, v.vertex))
        assert v.required == min(g.degree(v.vertex), k)
    assert is_proper(g, c) == oracles.naive_is_proper(g, c)
    assert is_dynamic(g, c, k) == oracles.naive_is_dynamic(g, c, k)


def test_weak_dynamic_never_requires_more_than_degree_or_k():
    rng = random.Random(11)
    for _ in range(30):
        g = oracles.random_connected_graph(6, rng)
        c = {v: rng.randint(1, 3) for v in g.vertices()}
        _, violations = is_weak_dynamic(g, c, 3)
        for v in violations:
            assert v.required <= min(g.degree(v.vertex), 3)
            assert v.seen < v.required


def test_violations_stop_counting_at_the_requirement_and_stay_exact():
    """Counting a vertex's colors only until it has seen ``min(d, k)``
    gives the full count's violations, seen counts included, on graphs
    with hubs, under random colorings and under colorings that starve
    chosen vertices."""
    rng = random.Random(29)
    graphs = [random_planar(rng.randint(5, 120), rng.choice((0.4, 0.7, 1.0)),
                            seed) for seed in range(24)]
    graphs += [triangulation(n, random.Random(n)) for n in (60, 300)]
    found = 0
    for g in graphs:
        adj = g.adjacency()
        vs = list(adj)
        for trial in range(6):
            c = {v: rng.randint(1, rng.choice((2, 3, 6))) for v in vs}
            for v in rng.sample(vs, min(len(vs), trial)):
                col = rng.randint(1, 6)  # every neighbor of v on one color
                for u in adj[v]:
                    c[u] = col
            for k in (1, 2, 3, 4):
                for some in (vs, rng.sample(vs, len(vs) // 3)):
                    got = [(x.vertex, x.seen, x.required) for x in
                           _weak_dynamic_violations(adj, c, k, some)]
                    assert got == oracles.weak_dynamic_violations_full(
                        adj, c, k, some)
                    found += len(got)
    assert found > 1000
