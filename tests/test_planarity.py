"""Planarity certificates: embeddings checked by Euler's formula,
nonplanarity witnessed by explicit minor branch sets."""

import itertools
import random

from oracles import random_connected_graph
from wdcolor.generators import named, random_planar, triangulation
from wdcolor.graphs import Graph
from wdcolor.planarity import count_faces, is_planar, validate_rotation


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
    euler_checks(k5.delete_edge(0, 1))
    k33 = named("k33")
    euler_checks(k33.delete_edge(0, 3))


def test_subdivided_k5_is_still_nonplanar():
    g = named("k5")
    for u, v in list(g.edges())[:4]:
        g = g.delete_edge(u, v)
        w = g.next_fresh
        g = g.add_vertex(w).add_edge(u, w).add_edge(w, v)
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
    for u, v in rng.sample(missing, count):
        g = g.add_edge(u, v)
    return g


def test_triangulations_plus_an_edge_get_models_at_every_size():
    for n in (70, 100):
        rng = random.Random(n)
        g = plus_non_edges(triangulation(n, rng), rng, 1)
        cert = is_planar(g)
        assert not cert.is_planar
        validate_minor(g, cert)


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
              random_planar(20, 0.8, 5)):
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
