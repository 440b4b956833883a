"""Properties of the benchmark's seeded radial graphs."""

import random

import networkx as nx
import pytest

import gen


def _graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@pytest.mark.parametrize("n", [6, 9, 81, 249])
def test_eulerian_triangulation(n):
    edges, faces = gen.eulerian_triangulation(n, random.Random(n))
    g = _graph(n, edges)
    assert g.number_of_edges() == 3 * n - 6
    assert len(faces) == 2 * n - 4
    assert nx.check_planarity(g)[0]
    assert all(d >= 4 and d % 2 == 0 for _, d in g.degree())
    assert all(g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
               for a, b, c in faces)


@pytest.mark.parametrize("n", [6, 7, 60, 250])
def test_split_triangulation(n):
    edges, faces = gen.split_triangulation(n, random.Random(n))
    g = _graph(n, edges)
    assert g.number_of_edges() == 3 * n - 6
    assert len(set(faces)) == 2 * n - 4
    assert nx.check_planarity(g)[0]
    assert min(d for _, d in g.degree()) == 4
    assert all(g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
               for a, b, c in faces)


@pytest.mark.parametrize("n, seed, kind", [
    (81, 0, "eulerian"), (126, 7, "eulerian"), (249, 3, "eulerian"),
    (100, 0, "split"), (250, 2, "split")])
def test_radial_graph(n, seed, kind):
    nv, edges = gen.radial_graph(n, seed, kind)
    g = _graph(nv, edges)
    assert nv == 3 * n - 4
    assert nx.check_planarity(g)[0]
    assert nx.is_bipartite(g)
    faces = range(n, nv)
    for f in faces:
        assert g.degree(f) == 3
        assert all(g.degree(u) >= 4 for u in g[f])


@pytest.mark.parametrize("kind", ["eulerian", "split"])
def test_same_seed_same_graph(kind):
    assert gen.radial_graph(126, 5, kind) == gen.radial_graph(126, 5, kind)
    assert gen.radial_graph(126, 5, kind) != gen.radial_graph(126, 6, kind)


@pytest.mark.parametrize("n, seed", [(6, 0), (8, 1), (48, 2), (70, 3)])
def test_triangulation_plus_edge_is_nonplanar(n, seed):
    edges = gen.triangulation_plus_edge(n, seed)
    assert len(set(edges)) == 3 * n - 5
    assert not nx.check_planarity(_graph(n, edges))[0]
    assert edges == gen.triangulation_plus_edge(n, seed)


def test_k5_and_k33_are_nonplanar():
    assert not nx.check_planarity(_graph(5, gen.K5))[0]
    assert not nx.check_planarity(_graph(6, gen.K33))[0]
