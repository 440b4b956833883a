"""``classify`` against the enumeration it replaced.

``classify`` picks each witness set N*(w) by a search over the edges of
N(w) (``pipeline._witness_set``) and reads the A3star facts from flags
computed once.  ``oracles.classify_by_enumeration`` tries every labeling
and every 3-subset.  The two must agree on ``(A4, A3star, Nstar)`` for
golden inputs and their cores, seeded random planar graphs, hand-made
gadgets, certification hosts and hub families with their radial graphs.
"""

from __future__ import annotations

import itertools
import random

import pytest

from hubs import HUB_FAMILIES, radial
from oracles import classify_by_enumeration, witness_set_by_enumeration
from test_golden import corpus
from test_pipeline import A3STAR_GADGET, HITS_TIE_GADGET
from wdcolor.generators import random_planar
from wdcolor.graphs import EditableGraph, Graph
from wdcolor.hosts import host_for
from wdcolor.pipeline import _witness_set, classify
from wdcolor.reductions import KIND_ORDER, reduce_in_place


def assert_matches_enumeration(g: Graph) -> None:
    cls = classify(g)
    assert (cls.A4, cls.A3star, cls.Nstar) == classify_by_enumeration(g), \
        sorted(g.edges())


def _span(g: Graph, triple) -> int:
    return sum(g.has_edge(x, y) for x, y in itertools.combinations(triple, 2))


def test_golden_inputs_and_their_cores():
    cores = 0
    for _, g in corpus():
        assert_matches_enumeration(g)
        for comp in g.connected_components():
            e = EditableGraph(g.induced_subgraph(comp))
            reduce_in_place(e)
            core = e.snapshot()
            if core.n:
                cores += 1
                assert_matches_enumeration(core)
    assert cores >= 20


def test_seeded_random_planar_graphs():
    for seed in range(1000):
        n = 4 + seed % 37
        assert_matches_enumeration(
            random_planar(n, (0.3, 0.5, 0.7, 0.85, 1.0)[seed % 5], seed))


def _relabelings(edges):
    """The gadget, mirrored, and every rotation of its vertex names."""
    n = max(max(e) for e in edges) + 1
    for shift in range(n):
        for flip in (False, True):
            def perm(v):
                w = (v + shift) % n
                return n - 1 - w if flip else w
            yield [(perm(u), perm(v)) for u, v in edges]


@pytest.mark.parametrize("gadget", [A3STAR_GADGET, HITS_TIE_GADGET])
def test_gadget_variants(gadget):
    for edges in _relabelings(gadget):
        assert_matches_enumeration(Graph.from_edges(edges))
        for drop in edges:
            assert_matches_enumeration(
                Graph.from_edges([e for e in edges if e != drop]))


def test_certification_hosts():
    for kind in KIND_ORDER:
        for index in range(16):
            assert_matches_enumeration(host_for(kind, index))


@pytest.mark.parametrize("family", sorted(HUB_FAMILIES))
def test_hub_families_and_their_radial_graphs(family):
    for d in (3, 4, 5, 6, 9, 16, 33):
        g = HUB_FAMILIES[family](d)
        assert_matches_enumeration(g)
        assert_matches_enumeration(radial(g))


def test_radial_graphs_of_triangulations():
    for seed in range(12):
        assert_matches_enumeration(
            radial(random_planar(8 + 3 * seed, 1.0, seed)))


# ---------------------------------------------------------------------------
# hubs whose witness set must meet A3star
# ---------------------------------------------------------------------------


class _Hub:
    """Hub 0 and its neighborhood, built one neighbor at a time.

    A neighbor ``b`` in A3star has ``w = 0`` as its ``u3``, which asks
    every neighbor of the hub to have degree 3, and two degree-3 neighbors
    ``p``, ``q`` with two neighbors of degree at least four each.  ``p``
    and ``q`` may lie in N(w), where ``w`` is one of their two.  Every
    gadget built here is planar.
    """

    def __init__(self) -> None:
        self.edges: list[tuple[int, int]] = []
        self.top = 0

    def fresh(self) -> int:
        self.top += 1
        return self.top

    def high(self, u: int) -> None:
        """A new degree-4 neighbor of ``u``, padded with leaves."""
        r = self.fresh()
        self.edges += [(r, u)] + [(r, self.fresh()) for _ in range(3)]

    def leaf_padded(self, u: int, leaves: int) -> None:
        self.edges += [(u, self.fresh()) for _ in range(leaves)]

    def plain(self) -> int:
        """A neighbor of the hub, to be completed to degree 3 later."""
        y = self.fresh()
        self.edges.append((0, y))
        return y

    def good(self) -> int:
        """A degree-3 neighbor outside A3star: two leaves."""
        y = self.plain()
        self.leaf_padded(y, 2)
        return y

    def bad(self, inside: tuple[int, ...] = ()) -> int:
        """A neighbor in A3star whose ``p``, ``q`` include ``inside``
        (plain neighbors of the hub), the rest new vertices outside."""
        b = self.plain()
        for p in inside:
            self.edges.append((b, p))
            self.high(p)
        for _ in range(2 - len(inside)):
            p = self.fresh()
            self.edges.append((b, p))
            self.high(p)
            self.high(p)
        return b

    def graph(self) -> Graph:
        return Graph.from_edges(self.edges)


def _span3_next_to_a3star():
    hub = _Hub()
    x, y, z = (hub.plain() for _ in range(3))
    hub.edges += [(x, y), (y, z), (x, z)]
    b = hub.bad()
    return hub.graph(), {b}, (x, y, z), 3, 0


def _span2_centred_at_a3star():
    hub = _Hub()
    p, q = hub.plain(), hub.plain()
    b1 = hub.bad(inside=(p, q))
    b2 = hub.bad()
    return hub.graph(), {b1, b2}, (p, q, b1), 2, 1


def _span1_through_a3star():
    hub = _Hub()
    p = hub.plain()
    b1 = hub.bad(inside=(p,))
    b2 = hub.bad()
    g = hub.good()
    return hub.graph(), {b1, b2}, (p, b1, g), 1, 1


def _span1_between_good_vertices():
    hub = _Hub()
    b1 = hub.bad()
    y1, y2 = hub.plain(), hub.plain()
    hub.edges.append((y1, y2))
    hub.leaf_padded(y1, 1)
    hub.leaf_padded(y2, 1)
    b2 = hub.bad()
    return hub.graph(), {b1, b2}, (b1, y1, y2), 1, 1


def _span0_two_hits():
    hub = _Hub()
    b1, b2, b3 = hub.bad(), hub.bad(), hub.bad()
    g = hub.good()
    return hub.graph(), {b1, b2, b3}, (b1, b2, g), 0, 2


def _span0_three_hits():
    hub = _Hub()
    bs = [hub.bad() for _ in range(5)]
    return hub.graph(), set(bs), tuple(bs[:3]), 0, 3


@pytest.mark.parametrize("build", [
    _span3_next_to_a3star, _span2_centred_at_a3star, _span1_through_a3star,
    _span1_between_good_vertices, _span0_two_hits, _span0_three_hits])
def test_forced_a3star_hits_at_every_span(build):
    g, bad, triple, span, hits = build()
    cls = classify(g)
    assert cls.A3star & g.neighbors(0) == bad
    assert cls.Nstar[0] == frozenset(triple)
    assert _span(g, triple) == span
    assert len(bad & set(triple)) == hits
    assert_matches_enumeration(g)


def test_witness_search_against_every_subset_with_any_avoided_set():
    """``_witness_set`` with an arbitrary set to avoid: no graph has an
    A3star vertex inside a triangle of N(w), so span-3 wins with forced
    hits exist only this way."""
    rng = random.Random(5)
    spans = set()
    for _ in range(3000):
        n = rng.randint(5, 10)
        p = rng.random()
        g = Graph.from_edges([(u, v) for u, v in itertools.combinations(
            range(n), 2) if rng.random() < p], vertices=range(n))
        adj = g.adjacency()
        avoid = frozenset(v for v in range(n) if rng.random() < 0.5)
        for w in range(n):
            if len(adj[w]) < 4:
                continue
            want = witness_set_by_enumeration(g, w, avoid)
            assert _witness_set(adj[w], adj, avoid) == want
            if any(x in avoid for x in want):
                spans.add(_span(g, want))
    assert spans == {0, 1, 2, 3}
