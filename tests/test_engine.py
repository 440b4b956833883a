"""The in-place reduce-and-lift engine against the plain definitions.

* ``DetectionIndex`` picks, kind by kind and at every step, what the full
  scan ``detect_configuration(graph, kind=k)`` picks on the same graph,
  including "none", whether it is asked every step or only now and then;
  its pick is the full scan's ``detect_configuration(graph)``, of every
  kind.  After a miss, a cycle kind (L9, L10) rescans only the components
  of 3-vertices near the edits, and finds there what the full scan finds.
* ``EditableGraph.undo`` restores each graph before its step exactly, and
  ``changed_since`` names every vertex whose neighbor set changed.
* Lifting in place through one ``LiftColoring`` gives the colorings that
  the public ``lift_coloring`` gives on immutable graphs and plain dicts.
* The driver survives a lifter that recolors a vertex far from its step.
* The chordless-cycle enumeration skips only starts that cannot yield,
  and restricted to a vertex set walks the components of 3-vertices that
  meet it, in the full enumeration's order.
* The matchers that skip sorting and pair trials give, at every anchor in
  their range, the roles of the matchers as first written.
* ``reduce_in_place`` runs the full scan ``detect_configuration`` only
  after a step: on an irreducible graph the index's first pick is it.
"""

from __future__ import annotations

import logging
import math
import random

import networkx as nx

import oracles
from hubs import HUB_FAMILIES, bipyramid, radial
from oracles import reduce_fully
from wdcolor import reductions
from wdcolor.exact import wd_number_exact
from wdcolor.generators import named, random_planar, triangulation
from wdcolor.graphs import EditableGraph, Graph
from wdcolor.hosts import host_for
from wdcolor.pipeline import wd3_color_planar
from wdcolor.reductions import (KIND_L2, KIND_L9, KIND_L10, KIND_ORDER,
                                PALETTE, Configuration, DetectionIndex,
                                LiftColoring, apply_reduction,
                                detect_configuration, lift_coloring,
                                reduce_in_place, unwind)
from wdcolor.verify import is_weak_dynamic


def radial_graph(g: Graph) -> Graph:
    """The vertex-face incidence graph of a planar embedding of ``g``:
    each face becomes a new vertex joined to the vertices around it."""
    ok, emb = nx.check_planarity(nx.Graph(list(g.edges())))
    assert ok
    marked: set = set()
    faces = []
    for u, v in emb.edges():
        if (u, v) not in marked:
            faces.append(set(emb.traverse_face(u, v, mark_half_edges=marked)))
    top = g.next_fresh
    return Graph.from_edges([(x, top + i) for i, face in enumerate(faces)
                             for x in sorted(face)])


def prism(k: int) -> Graph:
    """Two k-cycles joined by a perfect matching: cubic and planar."""
    return Graph.from_edges([(i, (i + 1) % k) for i in range(k)]
                            + [(k + i, k + (i + 1) % k) for i in range(k)]
                            + [(i, k + i) for i in range(k)])


def random_graphs(count: int, seed: int):
    rng = random.Random(seed)
    for s in range(count):
        yield random_planar(rng.randint(6, 40),
                            rng.choice((0.3, 0.5, 0.7, 0.85, 1.0)), s)


def host_graphs(per_kind: int = 8):
    """The certification hosts of every kind; no kind has more than eight
    base graphs."""
    for kind in KIND_ORDER:
        for idx in range(per_kind):
            yield host_for(kind, idx)


def radial_graphs():
    for n in range(4, 13):
        yield radial_graph(triangulation(n, random.Random(n)))


def test_index_picks_what_the_full_scan_picks():
    graphs = (list(random_graphs(40, 21)) + list(host_graphs())
              + list(radial_graphs()))
    rng = random.Random(8)
    found: set[str] = set()
    steps = 0
    for every_step in (True, False):
        for g in graphs:
            e = EditableGraph(g)
            index = DetectionIndex(e)
            while True:
                snap = e.snapshot()
                if every_step or rng.random() < 0.2:
                    for kind in KIND_ORDER:
                        want = detect_configuration(snap, kind=kind)
                        assert index.first(kind) == want, kind
                        if want is not None:
                            found.add(kind)
                conf = index.pick()
                assert conf == detect_configuration(snap)
                if conf is None:
                    break
                apply_reduction(e, conf)
                steps += 1
    assert found == set(KIND_ORDER)
    assert steps > 2000


def test_undo_restores_each_graph_before_its_step():
    graphs = list(random_graphs(30, 4)) + list(host_graphs(2))
    for g in graphs:
        core, stack = reduce_fully(g)
        cur = g
        for before, step in stack:
            assert before == cur
            assert (before.m, before.next_fresh) == (cur.m, cur.next_fresh)
            conf = Configuration(step.kind, step.matched)
            cur, replayed = apply_reduction(cur, conf)
            assert replayed == step
        assert core == cur and (core.m, core.next_fresh) == (cur.m,
                                                            cur.next_fresh)


def adjacency_state(e: EditableGraph):
    return dict(e.adjacency()), e.m, e.next_fresh


def random_edit(e: EditableGraph, rng: random.Random) -> None:
    vs = list(e.vertices())
    edges = list(e.edges())
    op = rng.randrange(4)
    if op == 0 and edges:
        e.delete_edge(*rng.choice(edges))
    elif op == 1 and edges:
        e.contract_edge(*rng.choice(edges))
    elif op == 2 and len(vs) >= 2:
        e.identify_vertices(*rng.sample(vs, 2))
    elif vs:
        e.delete_vertices(rng.sample(vs, rng.randint(1, min(3, len(vs)))))


def test_editable_graph_undo_and_changed_since():
    rng = random.Random(17)
    for seed in range(40):
        e = EditableGraph(random_planar(rng.randint(4, 30), rng.random(),
                                        seed))
        states = [adjacency_state(e)]
        for _ in range(rng.randint(1, 8)):
            e.checkpoint()
            for _ in range(rng.randint(1, 2)):
                random_edit(e, rng)
            adj = e.adjacency()
            assert all(v in adj[w] for v in adj for w in adj[v])
            assert e.m == sum(len(n) for n in adj.values()) // 2
            states.append(adjacency_state(e))
        now = states[-1][0]
        for depth, (then, _, _) in enumerate(states[:-1]):
            changed = e.changed_since(depth)
            assert {v for v in then.keys() | now.keys()
                    if then.get(v) != now.get(v)} <= changed.keys()
            assert all(old == then.get(v) for v, old in changed.items())
        while e.depth:
            states.pop()
            e.undo()
            assert adjacency_state(e) == states[-1]


def test_in_place_lifts_equal_public_lifts():
    rng = random.Random(5)
    lifts = 0
    for seed in range(25):
        g = random_planar(rng.randint(6, 30), rng.choice((0.4, 0.7, 1.0)),
                          seed)
        core, stack = reduce_fully(g)
        base = wd_number_exact(core, 3, 6).witness
        public = []
        c = base
        for before, step in reversed(stack):
            c = lift_coloring(before, step, c)
            public.append(c)
        e = EditableGraph(g)
        steps = reduce_in_place(e)
        assert steps == [step for _, step in stack]
        shared = LiftColoring(base, e.adjacency().keys())
        for step, want in zip(unwind(e, steps), public):
            assert lift_coloring(e, step, shared) is shared
            assert shared == want
            lifts += 1
    assert lifts > 200


def first_use_order(c: dict) -> tuple[int, ...]:
    order: list[int] = []
    for v in sorted(c):
        if c[v] not in order:
            order.append(c[v])
    return tuple(order + [col for col in PALETTE if col not in order])


def test_lift_coloring_records_writes_and_keeps_the_color_order():
    """The kept order equals the first-use order after every mutation,
    whether it moves a color's first vertex or not."""
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 12)
        c = LiftColoring({v: rng.choice(PALETTE) for v in range(n)},
                         set(range(n)))
        c.begin()
        wrote: set[int] = set()
        for _ in range(rng.randint(1, 12)):
            firsts = {}
            for v in sorted(c):
                firsts.setdefault(c[v], v)
            v = rng.randrange(n + 4)
            if firsts and rng.random() < 0.4:  # aim at a first vertex
                v = rng.choice(list(firsts.values()))
            op = rng.randrange(7)
            if op == 0:
                c[v] = rng.choice(PALETTE)
                wrote.add(v)
            elif op == 1:
                part = {w: rng.choice(PALETTE) for w in rng.sample(
                    range(n + 4), 2)}
                c.update(part)
                wrote |= part.keys()
            elif op == 2:
                if v not in c:
                    wrote.add(v)
                c.setdefault(v, rng.choice(PALETTE))
            elif op == 3:
                c.pop(v, None)
            elif op == 4 and v in c:
                del c[v]
            elif op == 5 and c:
                c.popitem()
            elif op == 6 and rng.random() < 0.1:
                c.clear()
            assert c.written == wrote
            assert c.color_order() == first_use_order(c)


def test_driver_catches_a_far_recoloring_and_falls_back(monkeypatch, caplog):
    """The last lift, the one that colors the input graph itself, also
    recolors a vertex three or more steps from the step's vertices, so
    that some vertex stops seeing enough colors.  No later lift can notice
    it; the lift's own check must, and the driver must fall back and
    still return a valid coloring."""
    g = random_planar(14, 0.6, 3)
    lifts = len(reduce_fully(g)[1])
    honest = dict(reductions._KINDS)
    calls: list[str] = []
    corrupted: list[int] = []

    def spoil(kind):
        def lifter(h, step, c, order, stats):
            honest[kind].lift(h, step, c, order, stats)
            calls.append(kind)
            if len(calls) != lifts:
                return
            adj = h.adjacency()
            near = {v for _, v in step.matched}
            for _ in range(2):
                near |= {w for v in near for w in adj[v]}
            for v in sorted(adj.keys() - near):
                for col in PALETTE:
                    trial = dict(c)
                    trial[v] = col
                    if not is_weak_dynamic(h, trial, 3)[0]:
                        c[v] = col
                        corrupted.append(v)
                        return
        return lifter

    for kind in KIND_ORDER:
        monkeypatch.setitem(reductions._KINDS, kind,
                            honest[kind]._replace(lift=spoil(kind)))
    with caplog.at_level(logging.WARNING, logger="wdcolor.pipeline"):
        coloring = wd3_color_planar(g)
    assert corrupted and len(calls) == lifts
    assert is_weak_dynamic(g, coloring, 3)[0]
    assert max(coloring.values()) <= 6
    failed = [r.message for r in caplog.records if "lift failed" in r.message]
    assert len(failed) == 1
    assert failed[0].startswith(f"lift failed at a {calls[-1]} step")


def test_chordless_cycles_skip_only_starts_that_cannot_yield():
    cycles = 0
    for g in cycle_test_graphs():
        got = list(reductions._chordless_deg3_cycles(g))
        assert got == list(oracles.chordless_deg3_cycles_by_length_scan(g))
        cycles += len(got)
    assert cycles > 100


def cycle_test_graphs():
    return (list(random_graphs(60, 9)) + list(radial_graphs())
            + [prism(k) for k in range(3, 7)] + [named("cube")]
            + [host_for(kind, i) for kind in (KIND_L9, KIND_L10)
               for i in range(6)])


def deg3_component(g: Graph, v: int) -> set[int]:
    """The component of ``v`` in the subgraph the 3-vertices induce."""
    comp = {v}
    todo = [v]
    while todo:
        for w in g.neighbors(todo.pop()):
            if w not in comp and g.degree(w) == 3:
                comp.add(w)
                todo.append(w)
    return comp


def test_chordless_cycles_near_a_set_walk_the_components_it_meets():
    rng = random.Random(12)
    cycles = 0
    for g in cycle_test_graphs():
        every = list(oracles.chordless_deg3_cycles_by_length_scan(g))
        vs = list(g.vertices())
        for size in (0, 1, 3, len(vs) // 4):
            near = set(rng.sample(vs, min(size, len(vs))))
            met = set()
            for v in near:
                if g.degree(v) == 3:
                    met |= deg3_component(g, v)
            want = [c for c in every if c[0] in met]
            assert list(reductions._chordless_deg3_cycles(g, near)) == want
            cycles += len(want)
    assert cycles > 100


def test_a_cycle_kind_rescans_near_the_edits_after_a_miss(monkeypatch):
    """The 4-cycle 0-1-2-3 of 3-vertices has the hubs 10 and 11 at its
    even positions and the 3-vertices 12 and 13 at its odd ones.  The edge
    between the 4+ hubs 10 and 11 blocks L10; an L2 step deletes it and
    touches no vertex of degree three, so only a rescan that reaches one
    vertex beyond the replaced sets finds the cycle again."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 10), (2, 11), (1, 12),
             (3, 13), (10, 11), (12, 26), (12, 27), (13, 28), (13, 29)]
    edges += [(10, 20 + i) for i in range(3)]
    edges += [(11, 23 + i) for i in range(3)]
    e = EditableGraph(Graph.from_edges(edges))
    index = DetectionIndex(e)
    walked = []
    full_walk = reductions._chordless_deg3_cycles

    def spy(g, near=None):
        walked.append(near)
        return full_walk(g, near)

    monkeypatch.setattr(reductions, "_chordless_deg3_cycles", spy)
    assert index.first(KIND_L10) is None and walked == [None]
    apply_reduction(e, Configuration(KIND_L2, (("v1", 10), ("v2", 11))))
    got = index.first(KIND_L10)
    near = walked[1]
    assert near is not None and 0 in near and 12 not in near
    want = detect_configuration(e.snapshot(), kind=KIND_L10)
    assert want is not None and got == want
    assert walked[2:] == [None]


def matcher_test_graphs():
    rng = random.Random(18)
    graphs = [random_planar(rng.randint(6, 500),
                            rng.choice((0.3, 0.5, 0.7, 0.85, 1.0)), s)
              for s in range(60)]
    graphs += [triangulation(n, random.Random(n)) for n in range(4, 600, 10)]
    for family in HUB_FAMILIES.values():
        for d in (3, 4, 5, 6, 9, 16, 33):
            graphs += [family(d), radial(family(d))]
    # the graphs a reduction passes through, where 3-vertices abound
    for g in random_graphs(10, 18):
        graphs += [before for before, _ in reduce_fully(g)[1]]
    return graphs + list(host_graphs())


def test_matchers_give_the_roles_of_the_sorting_matchers():
    pairs = [
        (reductions._match_l2, oracles.match_l2_by_sorting, 4, math.inf),
        (reductions._deg3_partners, oracles.deg3_partners_by_sorting, 3, 3),
        (reductions._match_l6, oracles.match_l6_at_every_neighbor, 3, 3),
        (reductions._match_apex_triangle,
         oracles.match_apex_triangle_at_every_pair, 4, math.inf),
    ]
    calls = 0
    matched = [0] * len(pairs)
    for g in matcher_test_graphs():
        adj = g.adjacency()
        for v in g.vertices():
            for i, (fast, plain, lo, hi) in enumerate(pairs):
                if lo <= len(adj[v]) <= hi:
                    want = plain(adj, v)
                    assert fast(adj, v) == want, (fast.__name__, v)
                    calls += 1
                    matched[i] += bool(want)
    assert calls > 30000 and all(matched), (calls, matched)


def test_an_irreducible_graph_is_scanned_once(monkeypatch):
    """The index's first pick on an untouched graph is the full scan, so
    the confirming ``detect_configuration`` runs only after a step."""
    calls = []
    scan = reductions.detect_configuration

    def spy(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(reductions, "detect_configuration", spy)
    for d in (4, 6, 50):
        g = radial(bipyramid(d))
        e = EditableGraph(g)
        assert reduce_in_place(e) == [] and e.snapshot() == g
        assert scan(g) is None
    assert calls == []
    e = EditableGraph(random_planar(60, 0.8, 2))
    assert reduce_in_place(e)
    assert len(calls) == 1 and scan(e.snapshot()) is None
