"""Planarity certificates: embeddings checked by Euler's formula,
nonplanarity witnessed by explicit minor branch sets."""

import itertools
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import edited, plus_edges, random_connected_graph
from wdcolor import planarity
from wdcolor.generators import named, random_planar, triangulation
from wdcolor.graphs import EditableGraph, Graph
from wdcolor.planarity import (count_faces, is_planar, validate_minor_model,
                               validate_rotation)


def euler_checks(g: Graph):
    """Validate a planar certificate independently: the rotation system
    must cover exactly the graph's adjacencies, and its face count must
    satisfy Euler's formula n - m + f = 2c component-wise (count_faces
    counts one face per dart orbit, plus one for each isolated vertex)."""
    cert = is_planar(g)
    assert cert.is_planar
    rot = cert.rotation
    assert rot is not None and set(rot) == set(g.vertices())
    for v, around in rot.items():
        assert sorted(around) == sorted(g.neighbors(v))
    for comp in g.connected_components():
        sub = g.induced_subgraph(comp)
        assert sub.n - sub.m + count_faces({v: rot[v] for v in comp}) == 2


def validate_minor(g: Graph, cert):
    """The branch sets must be disjoint, connected, and pairwise adjacent
    in the pattern demanded by the claimed minor."""
    assert cert.minor_kind in ("K5", "K33")
    sets = cert.branch_sets
    assert sets is not None
    for a, b in itertools.combinations(sets, 2):
        assert not (a & b)
    for s in sets:
        assert g.induced_subgraph(s).is_connected()

    def touching(a, b):
        return any(g.has_edge(x, y) for x in a for y in b)

    if cert.minor_kind == "K5":
        assert len(sets) == 5
        assert all(touching(a, b)
                   for a, b in itertools.combinations(sets, 2))
    else:
        assert len(sets) == 6
        left, right = sets[:3], sets[3:]
        assert all(touching(a, b) for a in left for b in right)


def test_named_planar_graphs_certified():
    for name in ("c5", "k4", "k4_subdivided", "cube", "fig7a", "fig7b"):
        euler_checks(named(name))


def test_cube_embedding_has_six_faces():
    cert = is_planar(named("cube"))
    assert count_faces(cert.rotation) == 6
    tri = is_planar(Graph.from_edges([(0, 1), (1, 2), (0, 2)]))
    assert count_faces(tri.rotation) == 2


def test_k5_and_k33_rejected_with_valid_minors():
    for name in ("k5", "k33"):
        g = named(name)
        cert = is_planar(g)
        assert not cert.is_planar
        validate_minor(g, cert)


def test_k5_minus_edge_and_k33_minus_edge_planar():
    k5 = named("k5")
    euler_checks(edited(k5, EditableGraph.delete_edge, 0, 1)[0])
    k33 = named("k33")
    euler_checks(edited(k33, EditableGraph.delete_edge, 0, 3)[0])


def test_subdivided_k5_is_still_nonplanar():
    g = named("k5")
    for u, v in list(g.edges())[:4]:
        g, _ = edited(g, EditableGraph.delete_edge, u, v)
        w = g.next_fresh
        g = plus_edges(g, (u, w), (w, v))
    cert = is_planar(g)
    assert not cert.is_planar
    validate_minor(g, cert)


def test_edge_bound_is_respected_by_planar_verdicts():
    rng = random.Random(3)
    for _ in range(40):
        g = random_connected_graph(7, rng, p=0.65)
        cert = is_planar(g)
        if g.n >= 3 and g.m > 3 * g.n - 6:
            assert not cert.is_planar
        if cert.is_planar:
            euler_checks(g)
        else:
            validate_minor(g, cert)


def test_random_planar_instances_have_embeddings():
    for seed in range(10):
        euler_checks(random_planar(11, 0.8, seed))


def test_disconnected_and_trivial_graphs():
    euler_checks(Graph.from_edges([(0, 1), (2, 3)], vertices=range(5)))
    assert is_planar(Graph.from_edges([], vertices=[0])).is_planar
    assert is_planar(Graph.empty()).is_planar


def plus_non_edges(g: Graph, rng: random.Random, count: int) -> Graph:
    """``g`` with ``count`` random non-edges added."""
    missing = [(u, v) for u, v in itertools.combinations(g.vertices(), 2)
               if not g.has_edge(u, v)]
    return plus_edges(g, *rng.sample(missing, count))


def plus_random_edge(g: Graph, rng: random.Random) -> Graph:
    """``g`` with one random non-edge added, drawn without listing them."""
    vertices = g.vertices()
    while True:
        u, v = rng.sample(vertices, 2)
        if not g.has_edge(u, v):
            return plus_edges(g, (u, v))


def until_nonplanar(g: Graph, rng: random.Random) -> Graph:
    """``g`` with random non-edges added until it is nonplanar."""
    while nx.check_planarity(oracles.to_networkx(g))[0]:
        g = plus_random_edge(g, rng)
    return g


def grid_with_diagonals(k: int) -> Graph:
    """The k-by-k grid plus both corner-to-corner diagonals, which cross
    in the outer face, the only face holding all four corners."""
    edges = [(r * k + c, r * k + c + 1)
             for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c)
              for r in range(k - 1) for c in range(k)]
    return Graph.from_edges(edges + [(0, k * k - 1), (k - 1, k * k - k)])


def lr_test_count(monkeypatch) -> list[int]:
    """A one-item list counting the LR tests run from now on."""
    calls = [0]
    check = planarity.lr_planarity

    def spy(*args, **kwargs):
        calls[0] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(planarity, "lr_planarity", spy)
    return calls


def test_triangulations_plus_an_edge_get_models_at_every_size():
    for n in (70, 100):
        rng = random.Random(n)
        g = plus_non_edges(triangulation(n, rng), rng, 1)
        cert = is_planar(g)
        assert not cert.is_planar
        validate_minor(g, cert)


def test_triangulation_plus_an_edge_needs_few_lr_tests(monkeypatch):
    # one test per vertex, as a deletion pass needs, would be over 1000
    g = plus_random_edge(triangulation(1000, random.Random(1)),
                         random.Random(2))
    calls = lr_test_count(monkeypatch)
    cert = is_planar(g)
    assert calls[0] <= 300
    validate_minor(g, cert)


def test_grid_with_long_diagonals_gets_a_model():
    g = grid_with_diagonals(15)
    cert = is_planar(g)
    assert not cert.is_planar
    validate_minor(g, cert)


def test_long_subdivided_k33_gets_a_model():
    edges, fresh = [], 6
    for a in range(3):
        for b in range(3, 6):
            path = [a, *range(fresh, fresh + 60), b]
            fresh += 60
            edges += zip(path, path[1:])
    g = Graph.from_edges(edges)
    assert g.n == 546
    cert = is_planar(g)
    assert cert.minor_kind == "K33"
    validate_minor(g, cert)


def test_disjoint_k5_beside_a_planar_graph_is_found_by_its_block(
        monkeypatch):
    tri = list(triangulation(500, random.Random(1)).edges())
    k5 = list(itertools.combinations(range(5), 2))
    for g, k5_vertices in (
            (Graph.from_edges(tri + [(u + 500, v + 500) for u, v in k5]),
             set(range(500, 505))),
            (Graph.from_edges([(u + 5, v + 5) for u, v in tri] + k5),
             set(range(5)))):
        calls = lr_test_count(monkeypatch)
        cert = is_planar(g)
        # the triangulation's block is tested at most once, never shrunk
        assert calls[0] <= 30
        assert cert.minor_kind == "K5"
        assert set().union(*cert.branch_sets) == k5_vertices
        validate_minor(g, cert)


def test_random_planar_graphs_plus_edges_get_models():
    rng = random.Random(300)
    for density, seed in ((0.3, 1), (0.7, 11), (1.0, 2)):
        g = until_nonplanar(random_planar(300, density, seed), rng)
        cert = is_planar(g)
        assert not cert.is_planar
        validate_minor(g, cert)


def test_minor_models_equal_the_networkx_search():
    """The search on the package's graphs returns exactly the model of the
    same search run on networkx copies."""
    k5 = list(itertools.combinations(range(5), 2))
    tri = triangulation(200, random.Random(4))
    inputs = [named("k5"), named("k33"),
              Graph.from_edges([(u + 200, v + 200) for u, v in k5]
                               + list(tri.edges()))]
    for n in (8, 20, 60, 150, 400, 1000):
        rng = random.Random(n)
        inputs.append(plus_non_edges(triangulation(n, rng), rng, 1))
    rng = random.Random(5)
    for density, seed in ((0.3, 3), (0.6, 4), (0.9, 5)):
        inputs.append(until_nonplanar(random_planar(120, density, seed), rng))
    g = triangulation(3000, random.Random(1))  # the CI guard's input
    inputs.append(plus_edges(g, (0, next(v for v in g.vertices()
                                         if v != 0 and not g.has_edge(0, v)))))
    for g in inputs:
        cert = is_planar(g)
        assert (cert.minor_kind, cert.branch_sets) == \
            oracles.kuratowski_model_nx(g)


@st.composite
def relabelled_nonplanar_beside_planar(draw):
    """A nonplanar graph under random labels, disjoint from a random
    planar graph under others."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    base = draw(st.sampled_from(("k5", "k33", "tri", "random")))
    if base in ("k5", "k33"):
        g = named(base)
    elif base == "tri":
        g = plus_random_edge(triangulation(rng.randint(6, 40), rng), rng)
    else:
        g = until_nonplanar(random_planar(rng.randint(6, 40), 0.7,
                                          rng.randrange(10**6)), rng)
    side = random_planar(draw(st.integers(1, 40)),
                         draw(st.sampled_from((0.3, 0.7, 1.0))),
                         draw(st.integers(0, 10**6)))
    labels = draw(st.lists(st.integers(0, 10**4), unique=True,
                           min_size=g.n + side.n, max_size=g.n + side.n))
    mine = dict(zip(g.vertices(), labels))
    theirs = dict(zip(side.vertices(), labels[g.n:]))
    edges = [(mine[u], mine[v]) for u, v in g.edges()]
    edges += [(theirs[u], theirs[v]) for u, v in side.edges()]
    return Graph.from_edges(edges, vertices=labels)


@settings(max_examples=40, deadline=None)
@given(relabelled_nonplanar_beside_planar())
def test_relabelled_nonplanar_graphs_beside_planar_ones_get_models(g):
    cert = is_planar(g)
    assert not cert.is_planar
    assert validate_minor_model(g, cert.minor_kind, cert.branch_sets)


def test_random_nonplanar_graphs_get_valid_models():
    rng = random.Random(11)
    for seed in range(30):
        g = random_planar(rng.randint(6, 30), rng.choice((0.3, 0.7, 1.0)),
                          seed)
        while is_planar(g).is_planar:
            g = plus_non_edges(g, rng, 1)
        validate_minor(g, is_planar(g))


def test_certificate_does_not_depend_on_construction_order():
    rng = random.Random(5)
    for g in (named("k33"), plus_non_edges(triangulation(24, rng), rng, 2),
              random_planar(20, 0.8, 5),
              plus_random_edge(triangulation(200, rng), rng),
              until_nonplanar(random_planar(300, 0.7, 5), rng),
              grid_with_diagonals(15)):
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in g.edges()]
        rng.shuffle(edges)
        vertices = list(g.vertices())
        rng.shuffle(vertices)
        again = Graph.from_edges(edges, vertices=vertices)
        assert is_planar(again) == is_planar(g)


def test_validate_rotation_rejects_a_twisted_component():
    k4 = named("k4")
    rot = dict(is_planar(k4).rotation)
    assert validate_rotation(k4, rot)
    rot[0] = rot[0][::-1]
    assert not validate_rotation(k4, rot)
    # a planar triangle beside the twisted K4 must not make up for it
    both = Graph.from_edges(list(k4.edges())
                            + [(10, 11), (11, 12), (10, 12)])
    tri_rot = {10: (11, 12), 11: (10, 12), 12: (10, 11)}
    assert not validate_rotation(both, {**rot, **tri_rot})
    alone = Graph.from_edges([(10, 11), (11, 12), (10, 12)], vertices=[20])
    assert validate_rotation(alone, {**tri_rot, 20: ()})
