"""Tests for the planar 3-weak-dynamic coloring pipeline.

The heart of this module is an exhaustive check that a proper coloring of
the witness-clique graph G' is always 3-weak-dynamic on the original graph,
over every connected graph on at most seven vertices and every proper
partition of its G'.  The remaining tests pin the vertex classification,
the anchor-graph construction, the assembly step, and the driver's
fallback behavior.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import random
import signal
import time

import networkx as nx
import pytest

import oracles
from hubs import HUB_FAMILIES, bipyramid, radial, wheel
from oracles import connected_atlas, proper_partitions, reduce_fully
from wdcolor.exact import wd_number_exact
from wdcolor.generators import named, random_planar, triangulation
from wdcolor.graphs import EditableGraph, Graph
from wdcolor.planarity import count_faces, is_planar, validate_rotation
from wdcolor.pipeline import (
    InvariantBreachError,
    NonplanarInputError,
    PipelineIncompleteError,
    assemble_and_color,
    build_Gprime,
    build_H,
    classify,
    four_color_H,
    wd3_color_planar,
)
from wdcolor import reductions
from wdcolor.reductions import (KIND_L1A, LiftError, detect_configuration,
                                reduce_in_place)
from wdcolor.verify import is_proper, is_weak_dynamic, palette_size

import wdcolor.hosts as hosts_module
import wdcolor.pipeline as pipeline_module


# A vertex qualifying for the special degree-3 class: 0 has neighbors
# 1, 2 (degree 3, each with the two degree-4 neighbors 4 and 5) and 3
# (all of whose neighbors have degree 3).
A3STAR_GADGET = [
    (0, 1), (0, 2), (0, 3),
    (1, 4), (1, 5), (2, 4), (2, 5),
    (3, 6), (6, 7), (6, 8),
    (4, 9), (4, 10), (5, 11), (5, 12),
]

# Degree-4 hub 0 whose neighbors 1 and 2 are both in the special class.
# Its three-element neighborhood pick must dodge one of them, then take
# the lexicographically smallest choice.
HITS_TIE_GADGET = [
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 5), (1, 6), (2, 7), (2, 8),
    (5, 9), (5, 10), (6, 9), (6, 10),
    (7, 9), (7, 10), (8, 9), (8, 10),
    (3, 11), (3, 12), (4, 13), (4, 14),
]

# Connected planar graph on which the anchor-graph coverage check fires:
# it is NOT reduction-free, so the driver never hands it to the
# constructive stage directly, but calling the stage on it raises.
COVERAGE_BREACH_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 3), (1, 8),
    (1, 9), (2, 3), (2, 5), (2, 6), (2, 8), (3, 4), (3, 7), (4, 7),
    (6, 8), (8, 9),
]


def wd3_ok(g: Graph, coloring: dict[int, int]) -> bool:
    ok, _ = is_weak_dynamic(g, coloring, 3)
    return ok


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


class TestClassify:
    def test_cubic_graph_has_no_anchors(self):
        cube = named("cube")
        cls = classify(cube)
        assert cls.A4 == frozenset()
        assert cls.A3star == frozenset()
        # Degree-3 vertices keep their whole neighborhood.
        for v in cube.vertices():
            assert cls.Nstar[v] == cube.neighbors(v)

    def test_star_center_is_anchor_with_lex_smallest_pick(self):
        star = Graph.from_edges([(0, i) for i in range(1, 6)])
        cls = classify(star)
        assert cls.A4 == frozenset({0})
        assert cls.A3star == frozenset()
        assert cls.Nstar[0] == frozenset({1, 2, 3})
        for leaf in range(1, 6):
            assert cls.Nstar[leaf] == frozenset({0})

    def test_low_degree_vertices_keep_whole_neighborhood(self):
        path = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        cls = classify(path)
        assert cls.Nstar[0] == frozenset({1})
        assert cls.Nstar[1] == frozenset({0, 2})
        assert cls.Nstar[2] == frozenset({1, 3})

    def test_a3star_membership(self):
        g = Graph.from_edges(A3STAR_GADGET)
        cls = classify(g)
        assert 0 in cls.A3star
        # Degree-4 vertices are anchors, never in the degree-3 class.
        assert cls.A3star & cls.A4 == frozenset()
        assert {4, 5} <= cls.A4

    def test_a3star_requires_every_condition(self):
        # Dropping edge (6, 8) lowers the degree of 6, so vertex 3 no
        # longer has an all-degree-3 neighborhood and no labeling of 0's
        # neighbors works any more.
        edges = [e for e in A3STAR_GADGET if e != (6, 8)]
        cls = classify(Graph.from_edges(edges))
        assert 0 not in cls.A3star

    def test_pick_minimizes_special_class_hits_then_lex(self):
        g = Graph.from_edges(HITS_TIE_GADGET)
        cls = classify(g)
        assert cls.A3star == frozenset({1, 2})
        # {1,3,4} and {2,3,4} both hit the class once; lexicographic
        # order decides.
        assert cls.Nstar[0] == frozenset({1, 3, 4})

    def test_pick_breaks_ties_by_induced_edges(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)])
        cls = classify(g)
        assert cls.A3star == frozenset()
        # Both {1,3,4} and {2,3,4} contain the edge (3,4); lexicographic
        # order picks the first.
        assert cls.Nstar[0] == frozenset({1, 3, 4})

    def test_every_vertex_is_classified(self):
        g = random_planar(14, 0.8, 77)
        cls = classify(g)
        for v in g.vertices():
            assert v in cls.Nstar
            size = min(g.degree(v), 3)
            assert len(cls.Nstar[v]) == size
            assert cls.Nstar[v] <= g.neighbors(v)


# ---------------------------------------------------------------------------
# build_Gprime
# ---------------------------------------------------------------------------


class TestBuildGprime:
    def test_claw_becomes_leaf_triangle(self):
        claw = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        gp = build_Gprime(claw, classify(claw))
        assert gp.vertices() == claw.vertices()
        assert sorted(gp.edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_five_cycle_becomes_distance_two_cycle(self):
        c5 = named("c5")
        gp = build_Gprime(c5, classify(c5))
        assert sorted(gp.edges()) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]

    def test_path_connects_endpoints(self):
        p3 = Graph.from_edges([(0, 1), (1, 2)])
        gp = build_Gprime(p3, classify(p3))
        assert sorted(gp.edges()) == [(0, 2)]

    def test_proper_witness_coloring_is_weak_dynamic_exhaustive(self):
        """Core invariant, exhaustively on all connected graphs up to 7
        vertices: every proper coloring of G' (up to 6 color classes) is
        3-weak-dynamic on the original graph."""
        graphs = connected_atlas(7)
        assert len(graphs) == 996
        colorings_checked = 0
        for g in graphs:
            gp = build_Gprime(g, classify(g))
            for coloring in proper_partitions(gp, 6):
                colorings_checked += 1
                assert wd3_ok(g, coloring), (
                    f"proper G' coloring not 3-weak-dynamic on "
                    f"{sorted(g.edges())}: {coloring}")
        assert colorings_checked > 60000


# ---------------------------------------------------------------------------
# build_H
# ---------------------------------------------------------------------------


class TestBuildH:
    def test_star_collapses_to_single_anchor(self):
        star = Graph.from_edges([(0, i) for i in range(1, 6)])
        h = build_H(star, build_Gprime(star, classify(star)), classify(star),
                    is_planar(star).rotation)
        assert h.vertices() == (0,)
        assert h.m == 0

    def test_no_anchors_gives_empty_graph(self):
        cube = named("cube")
        h = build_H(cube, build_Gprime(cube, classify(cube)), classify(cube),
                    is_planar(cube).rotation)
        assert h.n == 0

    def test_kept_induced_edges_survive(self):
        g = Graph.from_edges([
            (0, 1),
            (0, 2), (0, 3), (0, 4),
            (1, 5), (1, 6), (1, 7),
        ])
        cls = classify(g)
        assert cls.A4 == frozenset({0, 1})
        h = build_H(g, build_Gprime(g, cls), cls, is_planar(g).rotation)
        assert h.has_edge(0, 1)

    def test_dissolved_vertex_links_its_kept_neighbors(self):
        # 0 and 1 are non-adjacent anchors sharing the degree-2 vertex 2,
        # which is dissolved into an edge between them.
        g = Graph.from_edges([
            (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 2), (1, 6), (1, 7), (1, 8),
        ])
        cls = classify(g)
        assert cls.A4 == frozenset({0, 1})
        h = build_H(g, build_Gprime(g, cls), cls, is_planar(g).rotation)
        assert h.vertices() == (0, 1)
        assert h.has_edge(0, 1)

    def test_h_stays_planar_when_construction_succeeds(self):
        # Arbitrary (unreduced) planar inputs may trip the coverage
        # check, which is legitimate; whenever the construction goes
        # through, the anchor graph must be planar.
        succeeded = 0
        for seed in range(12):
            g = random_planar(12, 0.85, seed)
            cls = classify(g)
            try:
                h = build_H(g, build_Gprime(g, cls), cls,
                            is_planar(g).rotation)
            except InvariantBreachError:
                continue
            succeeded += 1
            assert is_planar(h).is_planar
        assert succeeded >= 4

    def test_equals_the_anchor_graph_built_from_the_edges(self):
        graphs = [reduce_fully(random_planar(n, density, seed))[0]
                  for n, density, seed in ((40, 1.0, 1), (80, 0.9, 2),
                                           (150, 0.8, 3), (300, 1.0, 4))]
        graphs += [radial(family(d)) for family in HUB_FAMILIES.values()
                   for d in (4, 7, 12)]
        # every graph that reducing a certification host passes through;
        # a graph that still reduces may trip the coverage check instead
        for kind, bases in hosts_module._BASES.items():
            for i in range(len(bases)):
                core, stack = reduce_fully(hosts_module.host_for(kind, i))
                graphs += [before for before, _ in stack] + [core]
        compared = 0
        for g in graphs:
            cls = classify(g)
            try:
                h = build_H(g, build_Gprime(g, cls), cls,
                            is_planar(g).rotation)
            except InvariantBreachError as e:
                assert "witness-clique" in str(e)
                assert detect_configuration(g) is not None
                continue
            compared += 1
            assert h == oracles.anchor_graph_from_edges(g,
                                                        cls.A4 | cls.A3star)
        assert compared >= len(graphs) - 12

    @pytest.mark.parametrize("fault", ["missing", "repeated"])
    def test_a_faulty_derived_rotation_is_a_breach(self, monkeypatch, fault):
        real = pipeline_module._dissolved_rotation

        def patched(rotation, kept):
            out = real(rotation, kept)
            a = min(v for v in out if out[v])
            ring = out[a]
            out[a] = ring[1:] if fault == "missing" else ring + ring[:1]
            return out

        monkeypatch.setattr(pipeline_module, "_dissolved_rotation", patched)
        g = radial(bipyramid(12))
        cls = classify(g)
        with pytest.raises(InvariantBreachError, match="Euler"):
            build_H(g, build_Gprime(g, cls), cls, is_planar(g).rotation)

    def test_coverage_check_fires_on_unreduced_input(self):
        g = Graph.from_edges(COVERAGE_BREACH_EDGES)
        cls = classify(g)
        gp = build_Gprime(g, cls)
        with pytest.raises(InvariantBreachError, match="witness-clique edge"):
            build_H(g, gp, cls, is_planar(g).rotation)
        # The driver never sees this state: the graph is still reducible.
        assert detect_configuration(g) is not None


def _leaves(hubs, first):
    """Three new leaves on each hub, so every hub has degree four or more."""
    return [(h, first + 3 * i + j) for i, h in enumerate(hubs)
            for j in range(3)]


def _derived_rotation(g):
    """H and its rotation derived from a planar rotation of ``g``, checked
    by the Euler validation; build_H raises when that check fails."""
    cls = classify(g)
    rotation = is_planar(g).rotation
    h = build_H(g, build_Gprime(g, cls), cls, rotation)
    derived = pipeline_module._dissolved_rotation(rotation,
                                                  cls.A4 | cls.A3star)
    assert validate_rotation(h, derived)
    return h, derived


class TestDerivedRotation:
    def test_degree_two_non_anchor_is_suppressed(self):
        # 2 joins the non-adjacent anchors 0 and 1
        g = Graph.from_edges([(0, 2), (1, 2)] + _leaves((0, 1), 3))
        h, derived = _derived_rotation(g)
        assert sorted(h.edges()) == [(0, 1)]
        assert derived == {0: (1,), 1: (0,)}

    def test_non_anchor_next_to_a_non_anchor(self):
        # 2 and 3 are adjacent degree-3 non-anchors on the anchors 0, 1:
        # each drops the edge 2-3, then dissolves into a copy of 0-1
        g = Graph.from_edges([(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
                             + _leaves((0, 1), 4))
        h, derived = _derived_rotation(g)
        assert sorted(h.edges()) == [(0, 1)]
        assert derived == {0: (1,), 1: (0,)}

    def test_parallel_copies_on_one_anchor_triple_kept_once(self):
        # 3 and 4 both see the anchors 0, 1, 2: each Y-Delta step gives a
        # triangle, and each pair keeps one of its two copies at both ends
        g = Graph.from_edges([(a, v) for a in (0, 1, 2) for v in (3, 4)]
                             + _leaves((0, 1, 2), 5))
        h, derived = _derived_rotation(g)
        assert sorted(h.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert all(sorted(derived[a]) == sorted({0, 1, 2} - {a})
                   for a in (0, 1, 2))

    def test_parallel_copies_around_an_anchor_kept_as_one_copy(self):
        # 4 and 5 both dissolve into a copy of 0-1, and the anchor 2 lies
        # between the copies: keeping 4's copy at 0 and 5's at 1 would
        # put 0-1 on both sides of 2, which the Euler check refuses
        g = Graph.from_edges([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4),
                              (0, 5), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)])
        rotation = {0: (3, 4, 2, 5), 1: (5, 2, 4, 3), 2: (0, 6, 1, 7),
                    3: (0, 8, 1, 9), 4: (0, 1), 5: (0, 1), 6: (2,), 7: (2,),
                    8: (3,), 9: (3,)}
        assert validate_rotation(g, rotation)
        assert classify(g).A4 == frozenset({0, 1, 2, 3})
        derived = pipeline_module._dissolved_rotation(rotation,
                                                      frozenset({0, 1, 2, 3}))
        h = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert validate_rotation(h, derived)
        assert derived[0] == (3, 1, 2) and derived[1] == (2, 0, 3)

    def test_non_anchor_on_an_anchor_edge(self):
        # 2's anchor pair 0-1 is already an edge of g; g's own copy stays
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)] + _leaves((0, 1), 3))
        h, derived = _derived_rotation(g)
        assert sorted(h.edges()) == [(0, 1)]
        assert derived == {0: (1,), 1: (0,)}

    def test_radial_graphs_of_hubs_and_triangulations(self):
        for g in (radial(bipyramid(12)), radial(wheel(9)), RADIAL_OCTAHEDRON,
                  radial(random_planar(40, 1.0, 3))):
            h, _ = _derived_rotation(g)
            assert h.n > 0

    def test_genus_one_rotation_is_refused(self):
        # every octahedron vertex has degree 4, so H is g itself; swapping
        # two neighbors at vertex 0 leaves 6 faces, V - E + F = 0
        g = OCTAHEDRON
        cls = classify(g)
        assert cls.A4 == frozenset(g.vertices())
        rotation = dict(is_planar(g).rotation)
        first, second, *rest = rotation[0]
        rotation[0] = (second, first, *rest)
        assert g.n - g.m + count_faces(rotation) == 0
        with pytest.raises(InvariantBreachError, match="Euler"):
            build_H(g, build_Gprime(g, cls), cls, rotation)


# ---------------------------------------------------------------------------
# four_color_H
# ---------------------------------------------------------------------------


def _nx_graph(nxg) -> Graph:
    nxg = nx.convert_node_labels_to_integers(nxg, ordering="sorted")
    return Graph.from_edges(nxg.edges(), vertices=nxg.nodes())


LARGE_ANCHOR_GRAPHS = {
    "grid-40x40": lambda: _nx_graph(nx.grid_2d_graph(40, 40)),
    "icosahedron": lambda: _nx_graph(nx.icosahedral_graph()),
    "random-planar-1200": lambda: random_planar(1200, 1.0, 1),
}

# Radial graph of the octahedron: its six vertices and one vertex per face
# joined to the face's three corners.  Nothing reduces it.
OCTAHEDRON_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
                    (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1)]
RADIAL_OCTAHEDRON = Graph.from_edges(
    [(c, 6 + i) for i, face in enumerate(OCTAHEDRON_FACES) for c in face])
OCTAHEDRON = Graph.from_edges(
    {(min(u, v), max(u, v)) for face in OCTAHEDRON_FACES
     for u, v in itertools.combinations(face, 2)})


class TestFourColorH:
    def test_empty_graph(self):
        assert four_color_H(Graph.empty()) == {}

    def test_single_edge(self):
        coloring = four_color_H(Graph.from_edges([(0, 1)]))
        assert coloring[0] != coloring[1]
        assert set(coloring.values()) <= {1, 2, 3, 4}

    def test_complete_graph_needs_four(self):
        coloring = four_color_H(named("k4"))
        assert is_proper(named("k4"), coloring)
        assert set(coloring.values()) == {1, 2, 3, 4}

    def test_no_four_coloring_raises(self):
        with pytest.raises(InvariantBreachError, match="no proper 4-coloring"):
            four_color_H(named("k5"))

    def test_clique_of_five_raises_before_any_search(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_node_budget", lambda h: 0)
        with pytest.raises(InvariantBreachError, match="no proper 4-coloring"):
            four_color_H(named("k5"))

    @pytest.mark.parametrize("budget", ["default", None, 0])
    @pytest.mark.parametrize("name", ["grid-40x40", "icosahedron",
                                      "random-planar-1200"])
    def test_large_anchor_graphs(self, monkeypatch, name, budget):
        # 1600 grid vertices pass the recursion limit; budget 0 forces Kempe
        h = LARGE_ANCHOR_GRAPHS[name]()
        if budget != "default":
            monkeypatch.setattr(pipeline_module, "_node_budget",
                                lambda h: budget)
        coloring = four_color_H(h)
        assert is_proper(h, coloring)
        assert set(coloring.values()) <= {1, 2, 3, 4}

    def test_budget_zero_returns_kempes_coloring(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_node_budget", lambda h: 0)
        for h in (_nx_graph(nx.icosahedral_graph()),
                  random_planar(300, 1.0, 4)):
            assert four_color_H(h) == pipeline_module._kempe_four_color(h)

    def test_kempe_swap_frees_a_color(self):
        # v = 0 sees the 4-cycle 1-2-3-4 colored 1, 2, 3, 4: the 1/3 chain
        # through 1 is {1} alone, so 1 turns 3 and color 1 is free
        h = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4),
                              (1, 2), (2, 3), (3, 4), (4, 1)])
        adj = h.adjacency()
        color = {1: 1, 2: 2, 3: 3, 4: 4}
        assert pipeline_module._kempe_free(adj, color, [1, 2, 3, 4]) == 1
        assert color == {1: 3, 2: 2, 3: 3, 4: 4}

    def test_kempe_gives_up_on_a_clique_of_five(self):
        with pytest.raises(PipelineIncompleteError,
                           match="4 colored neighbors"):
            pipeline_module._kempe_four_color(named("k5"))


# ---------------------------------------------------------------------------
# assemble_and_color
# ---------------------------------------------------------------------------


def _four_anchor_gadget() -> tuple[Graph, dict[int, int]]:
    """Vertex 0 acquires four anchor neighbors in G' (via the two degree-3
    hubs 1 and 2), so its list is the palette minus their colors."""
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    for anchor, base in ((3, 7), (4, 10), (5, 13), (6, 16)):
        edges += [(anchor, base), (anchor, base + 1), (anchor, base + 2)]
    return Graph.from_edges(edges), {3: 1, 4: 2, 5: 1, 6: 3}


class TestAssembleAndColor:
    def test_anchor_colors_carry_through_and_lists_shrink(self):
        g, ch = _four_anchor_gadget()
        cls = classify(g)
        assert cls.A4 == frozenset({3, 4, 5, 6})
        gp = build_Gprime(g, cls)
        assert {u for u in gp.neighbors(0)} == {3, 4, 5, 6}
        combined = assemble_and_color(g, gp, cls, ch)
        # Anchors keep their colors.
        for v, c in ch.items():
            assert combined[v] == c
        # Vertex 0 sees anchor colors {1, 2, 3}, so its own color comes
        # from the other half of the palette.
        assert combined[0] in {4, 5, 6}
        assert is_proper(gp, combined)
        assert wd3_ok(g, combined)

    def test_improper_anchor_coloring_is_caught(self):
        g, ch = _four_anchor_gadget()
        cls = classify(g)
        gp = build_Gprime(g, cls)
        bad = dict(ch)
        bad[4] = bad[3]  # edge (3,4) lies in G' via hub 1's clique
        with pytest.raises(InvariantBreachError, match="not proper"):
            assemble_and_color(g, gp, cls, bad)

    def test_full_constructive_stage_on_driver_style_inputs(self):
        # Reduction-free cores reached by the driver always pass through
        # the constructive stage; emulate it end to end on graphs that
        # happen to be irreducible or get there quickly.
        cube = named("cube")
        cls = classify(cube)
        gp = build_Gprime(cube, cls)
        h = build_H(cube, gp, cls, is_planar(cube).rotation)
        combined = assemble_and_color(cube, gp, cls, four_color_H(h))
        assert wd3_ok(cube, combined)
        assert palette_size(combined) <= 6


# ---------------------------------------------------------------------------
# wd3_color_planar driver
# ---------------------------------------------------------------------------


class TestDriver:
    @pytest.mark.parametrize(
        "name", ["c5", "k4", "k4_subdivided", "cube", "fig7a", "fig7b"])
    def test_named_planar_graphs(self, name):
        g = named(name)
        coloring = wd3_color_planar(g)
        assert set(coloring) == set(g.vertices())
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6

    @pytest.mark.parametrize("name", ["k5", "k33"])
    def test_nonplanar_rejected(self, name):
        with pytest.raises(NonplanarInputError, match="K"):
            wd3_color_planar(named(name))

    def test_empty_and_single_vertex(self):
        assert wd3_color_planar(Graph.empty()) == {}
        g = Graph.from_edges([], vertices=[9])
        assert wd3_color_planar(g) == {9: 1}

    def test_disconnected_with_isolated_vertex(self):
        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)],
            vertices=[0, 1, 2, 5, 10, 11, 12])
        coloring = wd3_color_planar(g)
        assert coloring[5] == 1
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6

    def test_deterministic(self):
        g = random_planar(13, 0.8, 4242)
        first = wd3_color_planar(g)
        second = wd3_color_planar(Graph.from_edges(sorted(g.edges())))
        assert first == second

    def test_trace_collects_reduction_steps(self):
        g = random_planar(12, 0.6, 7)
        assert g.is_connected()
        trace: list[dict] = []
        coloring = wd3_color_planar(g, trace=trace)
        assert trace, "a sparse planar graph must admit reductions"
        assert trace == [s.to_json_dict(before)
                         for before, s in reduce_fully(g)[1]]
        assert wd3_ok(g, coloring)

    def test_trace_records_components_in_order(self):
        # two K4s: each reduces by an L4 contraction, and both take their
        # fresh id from the whole graph's next_fresh
        k4 = list(named("k4").edges())
        g = Graph.from_edges(k4 + [(u + 4, v + 4) for u, v in k4])
        trace: list[dict] = []
        wd3_color_planar(g, trace=trace)
        want = []
        for comp in sorted(g.connected_components(), key=min):
            stack = reduce_fully(g.induced_subgraph(comp))[1]
            want += [s.to_json_dict(before) for before, s in stack]
        assert trace == want
        assert [r["fresh"] for r in trace if r["kind"].startswith("L4")] \
            == [g.next_fresh, g.next_fresh]

    def test_random_planar_sample_verifier_clean(self):
        for seed in range(25):
            g = random_planar(4 + seed % 9, 0.5 + (seed % 5) * 0.125, seed)
            coloring = wd3_color_planar(g)
            assert wd3_ok(g, coloring), f"seed {seed}"
            assert palette_size(coloring) <= 6

    def test_never_beats_the_exact_optimum(self):
        for seed in range(8):
            g = random_planar(9, 0.7, 100 + seed)
            coloring = wd3_color_planar(g)
            exact = wd_number_exact(g, 3, max_colors=6)
            assert exact.value is not None
            assert exact.value <= palette_size(coloring) <= 6

    def test_radial_bipyramid_hub_colors_without_the_exact_fallback(
            self, monkeypatch):
        # nothing reduces the radial graph of the 200-gonal bipyramid, so
        # the construction meets its two apexes at degree 200
        g = radial(bipyramid(200))
        assert g.n == 602
        calls = []
        real = pipeline_module._exact_wd3_cap6

        def exact_spy(g, why):
            calls.append(why)
            return real(g, why)

        monkeypatch.setattr(pipeline_module, "_exact_wd3_cap6", exact_spy)
        start = time.perf_counter()
        coloring = wd3_color_planar(g)
        took = time.perf_counter() - start
        assert calls == []
        assert wd3_ok(g, coloring)
        assert took < 2.0, f"{took:.2f} s"

    def test_one_planarity_test_when_nothing_reduces(self, monkeypatch):
        # the input's certificate serves H; a reduced core gets its own
        calls = []
        real = pipeline_module.is_planar

        def spy(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(pipeline_module, "is_planar", spy)
        wd3_color_planar(RADIAL_OCTAHEDRON)
        assert calls == [14]
        calls.clear()
        g = random_planar(150, 1.0, 7000)
        e = EditableGraph(g)
        assert reduce_in_place(e) and e.n
        wd3_color_planar(g)
        assert calls == [150, e.n]

    def test_driver_four_colors_its_anchor_graphs(self, four_color_calls):
        wd3_color_planar(random_planar(12, 0.9, 5))
        assert four_color_calls
        for h, coloring in four_color_calls:
            assert is_proper(h, coloring)
            assert palette_size(coloring) <= 4


# ---------------------------------------------------------------------------
# Driver fallbacks (forced via monkeypatching internals)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the test once ``seconds`` have passed in the block, so a
    search that does not end fails its test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        # the traceback through a suspended generator can lack line
        # numbers, which pytest cannot render: report the expiry alone
        raise pytest.fail.Exception(f"no result within {seconds} s",
                                    pytrace=False) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestDriverFallbacks:
    def test_constructive_refusal_falls_back(self, monkeypatch, caplog):
        def refuse(g, rotation):
            raise PipelineIncompleteError("forced refusal")

        monkeypatch.setattr(pipeline_module, "_construct_wd3", refuse)
        g = random_planar(9, 0.8, 11)
        with caplog.at_level(logging.INFO, logger="wdcolor.pipeline"):
            coloring = wd3_color_planar(g)
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6
        assert any("forced refusal" in r.message for r in caplog.records)

    def test_invariant_breach_falls_back_with_warning(self, monkeypatch,
                                                      caplog):
        def breach(g, rotation):
            raise InvariantBreachError("forced breach")

        monkeypatch.setattr(pipeline_module, "_construct_wd3", breach)
        g = random_planar(9, 0.8, 12)
        with caplog.at_level(logging.WARNING, logger="wdcolor.pipeline"):
            coloring = wd3_color_planar(g)
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6
        assert any(r.levelno == logging.WARNING for r in caplog.records)

    def test_kempe_giving_up_falls_back_to_exact(self, monkeypatch):
        def give_up(h):
            raise PipelineIncompleteError("forced Kempe refusal")

        calls = []
        real = pipeline_module._exact_wd3_cap6

        def exact_spy(g, why):
            calls.append(why)
            return real(g, why)

        monkeypatch.setattr(pipeline_module, "_node_budget", lambda h: 0)
        monkeypatch.setattr(pipeline_module, "_kempe_four_color", give_up)
        monkeypatch.setattr(pipeline_module, "_exact_wd3_cap6", exact_spy)
        g = RADIAL_OCTAHEDRON
        coloring = wd3_color_planar(g)
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6
        assert calls == ["construction refused: forced Kempe refusal"]

    def test_lift_failure_falls_back_per_level(self, monkeypatch):
        def broken_lift(g, step, coloring, **kwargs):
            raise LiftError("forced lift failure")

        monkeypatch.setattr(pipeline_module, "lift_coloring", broken_lift)
        g = random_planar(8, 0.6, 13)
        coloring = wd3_color_planar(g)
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6

    def test_one_failed_lift_falls_back_within_seconds(self, monkeypatch):
        # the last L1a lift fails, on a 58-vertex graph: the fallback must
        # take the first coloring within six colors, not seek the fewest
        g = triangulation(60, random.Random(1))
        e = EditableGraph(g)
        left = sum(s.kind == KIND_L1A for s in reduce_in_place(e))
        row = reductions._KINDS[KIND_L1A]
        failed = []

        def fail_last(g, step, c, order, stats):
            nonlocal left
            left -= 1
            if not left:
                failed.append(g.n)
                raise LiftError("forced lift failure")
            row.lift(g, step, c, order, stats)

        monkeypatch.setitem(reductions._KINDS, KIND_L1A,
                            row._replace(lift=fail_last))
        with deadline(10):
            coloring = wd3_color_planar(g)
        assert failed == [58]
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6

    def test_refused_construction_falls_back_within_seconds(
            self, monkeypatch):
        def refuse(g, rotation):
            raise PipelineIncompleteError("forced refusal")

        monkeypatch.setattr(pipeline_module, "_construct_wd3", refuse)
        g = triangulation(2000, random.Random(1))
        with deadline(10):
            coloring = wd3_color_planar(g)
        assert wd3_ok(g, coloring)
        assert palette_size(coloring) <= 6


def test_rejection_names_a_minor_only_when_the_certificate_has_one():
    # every nonplanar certificate now carries a model, at every size
    g = triangulation(70, random.Random(1))
    u, v = next((u, v) for u in g.vertices() for v in g.vertices()
                if u < v and not g.has_edge(u, v))
    with pytest.raises(NonplanarInputError) as info:
        wd3_color_planar(oracles.plus_edges(g, (u, v)))
    assert str(info.value) in ("input is not planar (contains a K5 minor)",
                               "input is not planar (contains a K33 minor)")
