"""Each reduce-and-lift step is checked and edited locally; these tests pin
down why that is sound.

* A lift is verified on the matched vertices and the closed neighborhood
  of every vertex whose color changed.  Whatever a lifter recolors, the
  local verdict must equal the verdict of the full rule on the graph.
* A reduction changes adjacency only inside the closed neighborhood of
  the matched vertices (plus the fresh vertex it may create), which is
  what makes the local verdict complete.
* Derived graphs carry their edge count and ``next_fresh`` instead of
  recounting, and never touch the graph they were derived from.
"""

from __future__ import annotations

import random

import pytest

import oracles
from oracles import reduce_fully
from wdcolor import reductions
from wdcolor.exact import wd_number_exact
from wdcolor.generators import random_planar, triangulation
from wdcolor.graphs import Graph
from wdcolor.hosts import host_for
from wdcolor.reductions import (KIND_ORDER, PALETTE, LiftError,
                                apply_reduction, detect_configuration,
                                lift_coloring)
from wdcolor.verify import is_weak_dynamic

HOSTS_PER_KIND = 4


def host_steps():
    """(graph, step) for a few curated hosts of every kind."""
    for kind in KIND_ORDER:
        for idx in range(HOSTS_PER_KIND):
            g = host_for(kind, idx)
            conf = detect_configuration(g, kind=kind)
            assert conf is not None
            yield (g, *apply_reduction(g, conf))


def random_stacks(count: int):
    """Full reduction stacks of seeded random planar graphs."""
    rng = random.Random(5)
    for seed in range(count):
        g = random_planar(rng.randint(6, 30), rng.choice((0.4, 0.7, 1.0)),
                          seed)
        yield reduce_fully(g)


def random_steps(count: int):
    """(graph, reduced graph, step) along random reduction stacks."""
    for core, stack in random_stacks(count):
        afters = [before for before, _ in stack[1:]] + [core]
        for (before, step), after in zip(stack, afters):
            yield before, after, step


def valid_inputs():
    """(graph, step, valid coloring of the reduced graph) triples."""
    for g, reduced, step in host_steps():
        yield g, step, wd_number_exact(reduced, 3, 6).witness
    for core, stack in random_stacks(25):
        coloring = wd_number_exact(core, 3, 6).witness
        for before, step in reversed(stack):
            yield before, step, coloring
            coloring = lift_coloring(before, step, coloring)


def closed_neighborhood(g: Graph, vs) -> set[int]:
    out = set(vs)
    for v in vs:
        out |= g.neighbors(v)
    return out


def test_local_verdict_equals_full_verdict_under_any_recoloring(monkeypatch):
    cases = list(valid_inputs())
    rng = random.Random(11)
    outcomes = {"rejected": 0, "accepted": 0}
    for g, step, c_reduced in cases:
        row = reductions._KINDS[step.kind]

        def recolor_anywhere(g, step, c, order, stats, honest=row.lift):
            honest(g, step, c, order, stats)
            c[rng.choice(g.vertices())] = rng.choice(PALETTE)

        monkeypatch.setitem(reductions._KINDS, step.kind,
                            row._replace(lift=recolor_anywhere))
        try:
            lifted = lift_coloring(g, step, c_reduced)
        except LiftError as e:
            assert not is_weak_dynamic(g, e.coloring, 3)[0], step.kind
            outcomes["rejected"] += 1
        else:
            assert is_weak_dynamic(g, lifted, 3)[0], step.kind
            outcomes["accepted"] += 1
        monkeypatch.undo()
    assert min(outcomes.values()) >= 20, outcomes


def test_far_recoloring_is_caught(monkeypatch):
    # a triangle with a path hanging off it: the L1a step at the end of
    # the path matches nothing next to vertex 0
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    reduced, step = apply_reduction(g, detect_configuration(g))
    assert step.kind == "L1a-degree1"
    assert closed_neighborhood(g, [v for _, v in step.matched]) == {3, 4, 5}
    c_reduced = wd_number_exact(reduced, 3, 6).witness
    row = reductions._KINDS[step.kind]

    def lifter(g, step, c, order, stats):
        row.lift(g, step, c, order, stats)
        c[0] = c[1]                     # vertex 2 now sees two colors

    monkeypatch.setitem(reductions._KINDS, step.kind,
                        row._replace(lift=lifter))
    with pytest.raises(LiftError, match="vertex=2"):
        lift_coloring(g, step, c_reduced)


def test_l2_lift_checks_the_deleted_edge_ends():
    # the octahedron: every vertex has degree 4, so L2 deletes the edge
    # v1v2 and its lift writes nothing; only the check at v1 and v2,
    # which the deleted edge joined, can see that v1 has too few colors
    g = Graph.from_edges([(u, v) for u in range(6) for v in range(u + 1, 6)
                          if u + v != 5])
    reduced, step = apply_reduction(g, detect_configuration(g))
    assert step.kind == "L2-adjacent-4plus"
    v1 = step.roles()["v1"]
    u = min(reduced.neighbors(v1))
    # v1 sees two colors in the reduced graph, and v2 carries one of them
    c_reduced = {v: 2 if v == u else 1 for v in reduced.vertices()}
    with pytest.raises(LiftError, match=f"vertex={v1}, seen=2"):
        lift_coloring(g, step, c_reduced)


def test_reductions_change_adjacency_only_near_the_match():
    kinds = set()
    steps = [(g, reduced, step) for g, reduced, step in host_steps()]
    steps += list(random_steps(40))
    for g, reduced, step in steps:
        a, b = g.adjacency(), reduced.adjacency()
        changed = {v for v in a.keys() | b.keys() if a.get(v) != b.get(v)}
        near = closed_neighborhood(g, [v for _, v in step.matched])
        assert changed <= near | {step.fresh}, step.kind
        kinds.add(step.kind)
    assert kinds == set(KIND_ORDER)


def snapshot(g: Graph):
    return dict(g.adjacency()), g.m, g.next_fresh


def recount(g: Graph) -> int:
    return sum(len(nbrs) for nbrs in g.adjacency().values()) // 2


def derived_graphs(g: Graph, rng: random.Random):
    """(name, derived graph, next_fresh it must carry) for random edits."""
    vs = list(g.vertices())
    top = g.next_fresh
    u, v = rng.choice(list(g.edges()))
    yield "delete_edge", g.delete_edge(u, v), top
    dead = rng.sample(vs, rng.randint(1, max(1, len(vs) // 3)))
    yield "delete_vertices", g.delete_vertices(dead), top
    yield "delete_vertex", g.delete_vertex(dead[0]), top
    yield "induced_subgraph", g.induced_subgraph(vs[::2]), top
    a, b = rng.sample(vs, 2)
    yield "add_edge", g.add_edge(a, b), top
    yield "add_edge new", g.add_edge(a, top + 5), top + 6
    yield "add_vertex", g.add_vertex(top + 2), top + 3
    merged, fresh = g.contract_edge(u, v)
    assert fresh == top
    yield "contract_edge", merged, top + 1
    merged, fresh = g.identify_vertices(a, b)
    assert fresh == top and not merged.has_vertex(a)
    yield "identify_vertices", merged, top + 1


def test_derived_graphs_carry_counts_and_leave_the_source_alone():
    rng = random.Random(3)
    for seed in range(60):
        g = random_planar(rng.randint(3, 40), rng.random(), seed)
        if rng.random() < 0.5 and g.n >= 4:
            g, _ = g.contract_edge(*next(g.edges()))   # ids with gaps
        before = snapshot(g)
        for name, h, next_fresh in derived_graphs(g, rng):
            adj = h.adjacency()
            assert all(v in adj[w] for v in adj for w in adj[v]), name
            assert h.m == recount(h), name
            assert h.next_fresh == next_fresh, name
            assert snapshot(g) == before, name


def test_untouched_neighbor_sets_are_shared():
    g = random_planar(30, 0.8, 1)
    u, v = next(g.edges())
    h = g.delete_edge(u, v)
    assert all(h.neighbors(w) is g.neighbors(w)
               for w in g.vertices() if w not in (u, v))
    h = g.delete_vertices([u])
    assert all(h.neighbors(w) is g.neighbors(w)
               for w in h.vertices() if w not in g.neighbors(u))


def test_protection_sets_stop_once_the_target_is_satisfied():
    """``_satisfy_through`` returns as soon as the fixed colors reach
    ``min(d, 3)``; on partial colorings with pending vertices, at every
    target and for every count of incoming colors, it gives what the full
    count gives."""
    rng = random.Random(31)
    graphs = [random_planar(rng.randint(4, 80), rng.choice((0.4, 0.7, 1.0)),
                            seed) for seed in range(20)]
    graphs += [triangulation(n, random.Random(n)) for n in (40, 200)]
    designated = 0
    for g in graphs:
        vs = list(g.vertices())
        for _ in range(4):
            c = {v: rng.randint(1, rng.choice((2, 3, 6))) for v in vs
                 if rng.random() < 0.8}
            pending = set(rng.sample(vs, len(vs) // 5))
            order = tuple(rng.sample(PALETTE, len(PALETTE)))
            for x in vs:
                for incoming in (0, 1, 2, 3):
                    got = reductions._satisfy_through(
                        g, c, x, pending, incoming, color_order=order)
                    assert got == oracles.satisfy_through_full(
                        g, c, x, pending, incoming, color_order=order)
                    designated += bool(got)
    assert designated > 1000
