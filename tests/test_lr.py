"""The package's left-right planarity test against networkx's: the same
rotation on every planar input, the same verdict on every input, and
edge cases that the driver's inputs rarely reach."""

import itertools
import random
import time

import networkx as nx
import pytest

import oracles
from wdcolor.generators import named, random_planar, triangulation
from wdcolor.graphs import Graph
from wdcolor.lr import lr_planarity
from wdcolor.planarity import is_planar, validate_rotation


def nx_rotation(g: Graph):
    """networkx's rotation of ``g``, built in ascending order, or None."""
    ok, emb = nx.check_planarity(oracles.to_networkx(g))
    if not ok:
        return None
    data = emb.get_data()
    return {v: tuple(data.get(v, ())) for v in g.vertices()}


def same_as_networkx(g: Graph) -> None:
    rotation = lr_planarity(g.adjacency())
    assert rotation == nx_rotation(g)
    assert rotation is not None and validate_rotation(g, rotation)
    assert lr_planarity(g.adjacency(), embed=False) == {}


def subdivided(edges, length: int) -> Graph:
    """The graph of ``edges`` with each edge replaced by a path of
    ``length`` inner vertices."""
    out, fresh = [], 1000
    for u, v in edges:
        path = [u, *range(fresh, fresh + length), v]
        fresh += length
        out += zip(path, path[1:])
    return Graph.from_edges(out)


def test_rotation_equals_networkx_on_random_planar_graphs():
    rng = random.Random(12)
    for seed in range(120):
        g = random_planar(rng.randint(4, 63),
                          rng.choice((0.3, 0.5, 0.7, 0.85, 1.0)), seed)
        same_as_networkx(g)


def test_rotation_equals_networkx_on_hub_heavy_triangulations():
    for n, seed in ((10, 1), (50, 2), (300, 3), (1000, 4), (3000, 1)):
        g = triangulation(n, random.Random(seed))
        same_as_networkx(g)


def test_verdict_agrees_with_networkx_on_random_graphs():
    rng = random.Random(7)
    verdicts = set()
    for seed in range(150):
        n = rng.randint(2, 40)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
        G = nx.gnm_random_graph(n, m, seed=seed)
        g = Graph.from_edges(G.edges(), vertices=G.nodes())
        expected = nx_rotation(g)
        verdicts.add(expected is None)
        assert lr_planarity(g.adjacency()) == expected
        assert (lr_planarity(g.adjacency(), embed=False) is None) == \
            (expected is None)
        # the verdict-only test also reads a networkx adjacency
        assert (lr_planarity(G.adj, embed=False) is None) == \
            (expected is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["k5", "k33"])
def test_long_subdivisions_of_k5_and_k33_are_nonplanar(name):
    edges = list(named(name).edges())
    g = subdivided(edges, 40)
    assert lr_planarity(g.adjacency()) is None
    assert lr_planarity(g.adjacency(), embed=False) is None
    assert nx_rotation(g) is None
    # one path fewer makes it planar
    same_as_networkx(subdivided(edges[1:], 40))


def test_trivial_graphs():
    assert lr_planarity({}) == {}
    assert lr_planarity({}, embed=False) == {}
    assert lr_planarity(Graph.from_edges([], vertices=[0]).adjacency()) \
        == {0: ()}
    assert lr_planarity(Graph.from_edges([(0, 1)]).adjacency()) \
        == {0: (1,), 1: (0,)}
    for g in (Graph.empty(), Graph.from_edges([], vertices=[3]),
              Graph.from_edges([(0, 1)])):
        assert is_planar(g).is_planar


def test_isolated_vertices_and_disconnected_graphs():
    k4 = list(named("k4").edges())
    cube = [(u + 10, v + 10) for u, v in named("cube").edges()]
    g = Graph.from_edges(k4 + cube + [(30, 31)], vertices=[5, 6, 40])
    same_as_networkx(g)
    rotation = lr_planarity(g.adjacency())
    assert rotation[5] == rotation[6] == rotation[40] == ()
    # a nonplanar component makes the whole graph nonplanar
    k5 = [(u + 50, v + 50) for u, v in named("k5").edges()]
    assert lr_planarity(Graph.from_edges(k4 + cube + k5).adjacency()) \
        is None


def test_huge_and_sparse_vertex_ids():
    rng = random.Random(3)
    tri = triangulation(60, rng)
    ids = rng.sample(range(10**15), tri.n)
    g = Graph.from_edges([(ids[u], ids[v]) for u, v in tri.edges()])
    same_as_networkx(g)
    k33 = [(ids[u], ids[v]) for u, v in named("k33").edges()]
    assert lr_planarity(Graph.from_edges(k33).adjacency()) is None


def test_more_than_3n_minus_6_edges_is_nonplanar():
    for n in (5, 6, 9):
        g = Graph.from_edges(itertools.combinations(range(n), 2))
        assert g.m > 3 * n - 6
        assert lr_planarity(g.adjacency()) is None
        assert lr_planarity(g.adjacency(), embed=False) is None
    # a triangulation has exactly 3n - 6 edges, one more is too many
    tri = triangulation(40, random.Random(5))
    assert tri.m == 3 * 40 - 6
    same_as_networkx(tri)
    u, v = next((u, v) for u, v in itertools.combinations(range(40), 2)
                if not tri.has_edge(u, v))
    assert lr_planarity(oracles.plus_edges(tri, (u, v)).adjacency()) is None


def star(leaves: int) -> Graph:
    return Graph.from_edges((0, i) for i in range(1, leaves + 1))


def best_time(g: Graph) -> float:
    """The fastest of three LR tests of ``g``, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        lr_planarity(g.adjacency())
        times.append(time.perf_counter() - start)
    return min(times)


def test_long_path_gets_a_validated_rotation():
    # a recursive DFS overflows the interpreter's stack here
    g = Graph.from_edges((i, i + 1) for i in range(19999))
    cert = is_planar(g)
    assert cert.is_planar and validate_rotation(g, cert.rotation)
    assert cert.rotation == nx_rotation(g)


def test_big_star_gets_a_validated_rotation_in_linear_time():
    g = star(10**4)
    cert = is_planar(g)
    assert cert.is_planar and validate_rotation(g, cert.rotation)
    assert cert.rotation == nx_rotation(g)
    # a scan that restarts at the hub's list after each child is quadratic
    # in the leaves: four times the leaves would cost 16 times, not 4
    assert best_time(g) < 10 * best_time(star(2500))
