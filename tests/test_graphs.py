"""Graph container: construction, mutation-by-copy, traversal."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_connected_graph, to_networkx
from wdcolor.generators import random_planar
from wdcolor.graphs import Graph, rings
from wdcolor.reductions import _ball


def small_graph_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs)) if pairs
                     else st.just(set()))
        return Graph.from_edges(sorted(edges), vertices=range(n))
    return build()


def test_from_edges_basics():
    g = Graph.from_edges([(0, 1), (1, 2)], vertices=range(4))
    assert g.n == 4 and g.m == 2
    assert g.vertices() == (0, 1, 2, 3)
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degree(3) == 0
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert 3 in g and 9 not in g


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 0)])


def test_duplicate_edges_collapse():
    g = Graph.from_edges([(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_edges_are_each_reported_once():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    es = list(g.edges())
    assert len(es) == 3
    assert {tuple(sorted(e)) for e in es} == {(0, 1), (0, 2), (1, 2)}


def test_delete_edge_and_vertex_are_persistent_copies():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
    g2 = g.delete_edge(0, 1)
    assert g.m == 3 and g2.m == 2
    g3 = g.delete_vertex(2)
    assert g3.n == 2 and g3.m == 1 and g.n == 3


def test_induced_subgraph():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    sub = g.induced_subgraph([0, 1, 2])
    assert sub.n == 3
    assert {tuple(sorted(e)) for e in sub.edges()} == {(0, 1), (1, 2), (0, 2)}


def test_add_edge_and_vertex():
    g = Graph.from_edges([(0, 1)])
    g2 = g.add_edge(0, 2)
    assert g2.has_edge(0, 2) and not g.has_edge(0, 2)
    g3 = g.add_vertex(7)
    assert 7 in g3 and g3.degree(7) == 0


def test_contract_edge_merges_neighborhoods():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 3)])
    merged, w = g.contract_edge(0, 1)
    assert merged.n == 3
    assert merged.neighbors(w) == frozenset({2, 3})


def test_identify_nonadjacent_vertices():
    g = Graph.from_edges([(0, 1), (2, 3)])
    merged, w = g.identify_vertices(0, 2)
    assert merged.n == 3
    assert merged.neighbors(w) == frozenset({1, 3})


def test_connected_components_and_bfs():
    g = Graph.from_edges([(0, 1), (2, 3)], vertices=range(5))
    comps = sorted(g.connected_components(), key=min)
    assert [sorted(c) for c in comps] == [[0, 1], [2, 3], [4]]
    first = g.connected_components()
    assert g.connected_components() == first
    first.clear()  # the graph keeps its own copy
    assert g.connected_components() == comps
    assert not g.is_connected()
    d = g.bfs_distances([0])
    assert d == {0: 0, 1: 1}
    assert g.bfs_distances([4, 3, 0]) == {0: 0, 1: 1, 2: 1, 3: 0, 4: 0}


def test_rings_are_the_networkx_distances_by_layer():
    """Multi-source rings, distances and balls of radius 0-3 on seeded
    planar graphs, and on a disjoint union with isolated vertices."""
    rng = random.Random(5)
    a, b = random_planar(20, 0.8, 7), random_planar(15, 1.0, 8)
    union = Graph.from_edges(
        [*a.edges(), *((u + 100, v + 100) for u, v in b.edges())],
        vertices=[*a.vertices(), *(v + 100 for v in b.vertices()), 200, 201])
    cases = [(union, [200]), (union, [0, 201]), (union, [3, 104, 200])]
    for seed, n in enumerate((1, 12, 40, 90)):
        g = random_planar(n, 0.6, seed)
        cases += [(g, rng.sample(g.vertices(), min(k, n))) for k in (1, 2, 3)]
    for g, sources in cases:
        dist = nx.multi_source_dijkstra_path_length(to_networkx(g), sources)
        layers = [set() for _ in range(max(dist.values()) + 1)]
        for v, d in dist.items():
            layers[d].add(v)
        assert list(rings(g.adjacency(), sources)) == layers
        assert g.bfs_distances(sources) == dist
        for radius in range(4):
            assert _ball(g.adjacency(), sources, radius) == {
                v for v, d in dist.items() if d <= radius}


def test_equality_and_hash_are_structural():
    a = Graph.from_edges([(0, 1), (1, 2)])
    b = Graph.from_edges([(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != a.delete_edge(0, 1)


@settings(max_examples=60, deadline=None)
@given(small_graph_strategy())
def test_handshake_and_component_partition(g):
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m
    comps = g.connected_components()
    seen = sorted(v for c in comps for v in c)
    assert seen == sorted(g.vertices())


@settings(max_examples=40, deadline=None)
@given(small_graph_strategy())
def test_contract_any_edge_drops_one_vertex(g):
    es = list(g.edges())
    if not es:
        return
    u, v = es[0]
    merged, w = g.contract_edge(u, v)
    assert merged.n == g.n - 1
    assert w in merged
    assert not any(x in (u, v) and x != w for x in merged.vertices())


def test_random_connected_graphs_are_connected():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(6, rng)
        assert g.is_connected()
