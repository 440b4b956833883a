"""Reducible configurations: detection, application, lifting, certification."""

import itertools
import random

import networkx as nx
import pytest

import oracles
from oracles import reduce_fully
from wdcolor import reductions
from wdcolor.exact import wd_number_exact
from wdcolor.generators import named, random_planar
from wdcolor.graphs import EditableGraph, Graph
from wdcolor.hosts import host_for
from wdcolor.planarity import is_planar
from wdcolor.reductions import (KIND_L10, KIND_ORDER, SHORT_KINDS,
                                Configuration, LiftError, ReductionError,
                                StaleConfigurationError, apply_reduction,
                                canonical_colorings, certify_lemma,
                                detect_configuration, lift_coloring,
                                reduce_in_place, validate_configuration)
from wdcolor.verify import is_weak_dynamic


def color_classes(c):
    groups = {}
    for v, col in c.items():
        groups.setdefault(col, set()).add(v)
    return {frozenset(s) for s in groups.values()}


def test_detection_order_first_match_wins():
    assert detect_configuration(Graph.from_edges([(0, 1)])).kind \
        == "L1a-degree1"
    assert detect_configuration(named("c5")).kind == "L1b-2vertex-3minus"
    assert detect_configuration(named("k4")).kind == "L4-adjacent-3faces"
    assert detect_configuration(named("cube")).kind \
        == "L9-3regular-cycle-with-free-vertex"


def test_reduction_free_graphs_yield_none():
    assert detect_configuration(Graph.empty()) is None
    assert detect_configuration(Graph.from_edges([], vertices=[0, 1])) is None


def test_targeted_detection_finds_later_kinds():
    # these hosts contain earlier patterns, but the targeted scan must
    # still locate the requested one
    for kind in KIND_ORDER:
        g = host_for(kind, 0)
        conf = detect_configuration(g, kind=kind)
        assert conf is not None and conf.kind == kind
        assert validate_configuration(g, conf)


def test_targeted_detection_unknown_kind_raises():
    with pytest.raises(ReductionError):
        detect_configuration(named("c5"), kind="L0-bogus")


def test_configuration_roles_point_at_real_vertices():
    g = named("k4")
    conf = detect_configuration(g)
    roles = conf.roles()
    assert roles and all(v in g for v in roles.values())


def test_step_record_boundary_is_the_ring_within_distance_two():
    for seed in range(6):
        g = random_planar(30, 0.7, 300 + seed)
        for before, step in reduce_fully(g)[1]:
            members = {v for _, v in step.matched}
            dist = nx.multi_source_dijkstra_path_length(
                oracles.to_networkx(before), members, cutoff=2)
            assert step.to_json_dict(before)["boundary"] == sorted(
                v for v, d in dist.items() if d > 0)


def test_apply_reduction_strictly_shrinks():
    g = random_planar(12, 0.9, 3)
    seen_kinds = set()
    while True:
        conf = detect_configuration(g)
        if conf is None:
            break
        reduced, step = apply_reduction(g, conf)
        assert reduced.m < g.m
        assert step.kind == conf.kind
        seen_kinds.add(step.kind)
        g = reduced
    assert seen_kinds


def test_apply_reduction_stale_configuration_rejected():
    g = named("c5")
    conf = detect_configuration(g)
    mutated = g.add_edge(0, 2)
    with pytest.raises(StaleConfigurationError):
        apply_reduction(mutated, conf)


def test_lift_rejects_wrong_vertex_cover():
    g = Graph.from_edges([(0, 1), (1, 2)])
    conf = detect_configuration(g)
    reduced, step = apply_reduction(g, conf)
    good = wd_number_exact(reduced, 3, 6).witness
    bad = dict(good)
    bad[99] = 1
    with pytest.raises(LiftError):
        lift_coloring(g, step, bad)


def test_lift_replays_only_on_the_neighbor_sets_of_its_step():
    """Equal neighbor sets that are other objects pass the lift's check;
    a matched vertex whose neighbor set changed makes the step stale."""
    rng = random.Random(3)
    checked = 0
    for seed in range(12):
        g = random_planar(rng.randint(8, 30), rng.choice((0.5, 1.0)), seed)
        conf = detect_configuration(g)
        if conf is None:
            continue
        reduced, step = apply_reduction(g, conf)
        base = wd_number_exact(reduced, 3, 6).witness
        rebuilt = Graph.from_edges(list(g.edges()), vertices=g.vertices())
        assert lift_coloring(rebuilt, step, base) == lift_coloring(g, step,
                                                                   base)
        for v in sorted(conf.vertices()):
            w = next((w for w in g.vertices()
                      if w != v and not g.has_edge(v, w)), None)
            if w is None:
                continue
            with pytest.raises(StaleConfigurationError):
                lift_coloring(g.add_edge(v, w), step, base)
            checked += 1
    assert checked > 20


def test_full_reduce_and_lift_roundtrip():
    rng = random.Random(0)
    total_steps = 0
    for trial in range(25):
        n = rng.randint(4, 13)
        g = random_planar(n, rng.choice((0.5, 0.8, 1.0)), 1000 + trial)
        stack = []
        cur = g
        while True:
            conf = detect_configuration(cur)
            if conf is None:
                break
            before = cur
            cur, step = apply_reduction(cur, conf)
            stack.append((before, step))
        coloring = wd_number_exact(cur, 3, 6).witness
        assert coloring is not None
        for before, step in reversed(stack):
            coloring = lift_coloring(before, step, coloring)
            total_steps += 1
        ok, violations = is_weak_dynamic(g, coloring, 3)
        assert ok, violations
        assert max(coloring.values(), default=0) <= 6
    assert total_steps > 100


def test_canonical_colorings_match_naive_enumeration():
    rng = random.Random(14)
    for _ in range(12):
        g = oracles.random_connected_graph(rng.randint(1, 5), rng, p=0.5)
        canon = list(canonical_colorings(g, 3))
        keys = {oracles.canonical_form(c) for c in canon}
        assert len(keys) == len(canon)  # no duplicates
        naive = {
            oracles.canonical_form(c)
            for c in oracles.all_colorings(g.vertices(), range(1, 7))
            if oracles.naive_is_weak_dynamic(g, c, 3)}
        assert keys == naive
        for c in canon:
            ok, _ = is_weak_dynamic(g, c, 3)
            assert ok


def test_canonical_colorings_match_the_recursive_enumeration():
    """Same colorings, same order, same key order, on every reduced host
    the certification enumerates at budget 16."""
    hosts = colorings = 0
    for kind in KIND_ORDER:
        for i in range(16):
            g = host_for(kind, i)
            if g is None:
                continue
            reduced, _ = apply_reduction(
                g, detect_configuration(g, kind=kind))
            got = [list(c.items()) for c in canonical_colorings(reduced)]
            want = [list(c.items()) for c in
                    oracles.canonical_colorings_recursive(reduced)]
            assert got == want, (kind, i)
            hosts += 1
            colorings += len(got)
    assert hosts >= 100 and colorings > 50_000, (hosts, colorings)


def test_lift_is_equivariant_up_to_color_classes():
    g = host_for("L1a-degree1", 0)
    conf = detect_configuration(g, kind="L1a-degree1")
    reduced, step = apply_reduction(g, conf)
    perm = {1: 3, 2: 1, 3: 2, 4: 5, 5: 6, 6: 4}
    checked = 0
    for c in itertools.islice(canonical_colorings(reduced, 3), 40):
        base = lift_coloring(g, step, c)
        permuted = lift_coloring(g, step, {v: perm[col]
                                           for v, col in c.items()})
        assert color_classes(base) == color_classes(permuted)
        checked += 1
    assert checked


def test_hosts_are_planar_and_contain_their_pattern():
    for kind in KIND_ORDER:
        for index in range(6):
            g = host_for(kind, index)
            assert g is not None
            assert is_planar(g).is_planar
            conf = detect_configuration(g, kind=kind)
            assert conf is not None and conf.kind == kind


def test_host_for_unknown_kind_or_negative_index():
    assert host_for("L0-bogus", 0) is None
    assert host_for("L1a-degree1", -1) is None


def test_certify_smoke_two_kinds():
    for label in ("L1", "L4"):
        report = certify_lemma(label, budget=6)
        assert report.ok, (report.embed_failures, report.lift_failures,
                           report.equivariance_failures)
        assert report.hosts_checked == 6
        assert report.colorings_checked == report.lifts_succeeded > 0
        assert report.to_json_dict()["kind"] == label


def test_certification_rejects_a_reduced_coloring_off_its_graph(monkeypatch):
    """A reduced coloring that misses a vertex, or uses a color outside
    the palette, is a lift failure in the report, not an exception."""

    def broken(reduced):
        c = next(canonical_colorings(reduced))
        yield {v: col for v, col in c.items() if v != min(c)}
        yield {**c, min(c): 7}

    monkeypatch.setattr(reductions, "canonical_colorings", broken)
    report = certify_lemma("L2", budget=1)
    assert not report.ok
    assert report.colorings_checked == 2 and report.lifts_succeeded == 0
    assert len(report.lift_failures) == 2
    assert "covers" in report.lift_failures[0]
    assert "palette" in report.lift_failures[1]


def test_l4_lift_certified_with_both_shared_neighbors_of_degree_4plus():
    """The double diamond: poles 0 and 1, and k disjoint edges a_i b_i
    with each end joined to both poles.  Its first configuration is L4
    with the poles, of degree 2k, as v2 and v4, which no host of
    ``wdcolor.hosts`` gives; every canonical coloring of the reduced
    graph lifts through the ``both-4plus`` branch."""
    for k, colorings in ((2, 3), (3, 63)):
        g = Graph.from_edges(
            e for a in range(2, 2 + 2 * k, 2)
            for e in ((a, a + 1), (0, a), (1, a), (0, a + 1), (1, a + 1)))
        assert is_planar(g).is_planar
        conf = detect_configuration(g)
        assert conf.kind == "L4-adjacent-3faces"
        assert {conf.roles()["v2"], conf.roles()["v4"]} == {0, 1}
        reduced, step = apply_reduction(g, conf)
        hits = {}
        for c in canonical_colorings(reduced):
            lift_coloring(g, step, c, stats=hits)
        assert hits == {"L4-adjacent-3faces:both-4plus": colorings}, k


def coinciding_hubs() -> Graph:
    """The 4-cycle 0-1-2-3 of 3-vertices whose even positions share the
    4+ hub 4 and whose odd positions share the 3-hub 5: L10 with w1 = w3,
    which no host of ``wdcolor.hosts`` gives."""
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2),
                             (4, 6), (4, 7), (5, 1), (5, 3), (5, 8)])


def test_l10_lift_certified_with_coinciding_4plus_hubs():
    """The step deletes the cycle and merges nothing, and every canonical
    coloring of the reduced graph lifts."""
    g = coinciding_hubs()
    assert is_planar(g).is_planar
    conf = detect_configuration(g, kind=KIND_L10)
    assert conf.roles()["w1"] == conf.roles()["w3"] == 4
    reduced, step = apply_reduction(g, conf)
    assert step.identified is None and step.fresh is None
    lifted = 0
    for c in canonical_colorings(reduced):
        assert is_weak_dynamic(g, lift_coloring(g, step, c), 3)[0]
        lifted += 1
    assert lifted == 37


def test_the_edit_of_each_row_is_the_edit_by_cases():
    """The table-driven edit against the per-kind branches it replaced
    (``tests/oracles.py``): on every configuration at every seed of the
    first 20 hosts of each kind and of ``coinciding_hubs``, and at every
    step of two reductions, one with an L10 identification, one with L7
    and L9 steps, the steps and the graphs after them must be equal.  The
    kind order and the short labels that the rows derive are pinned as
    they were written out."""
    assert KIND_ORDER == (
        "L1a-degree1", "L1b-2vertex-3minus", "L2-adjacent-4plus",
        "L3-4334", "L4-adjacent-3faces", "L5-3regular-triangle",
        "L6-triangle-pair", "L7-triangle-deg4-apex",
        "L8-triangle-deg5plus-apex", "L9-3regular-cycle-with-free-vertex",
        "L10-3regular-cycle")
    assert SHORT_KINDS == {"L1": KIND_ORDER[:2], **{
        f"L{i}": (KIND_ORDER[i],) for i in range(2, 11)}}

    def same_edit(g, conf):
        table, cases = EditableGraph(g), EditableGraph(g)
        step = reductions._reduce_in_place(table, conf)
        assert step == oracles.reduce_in_place_by_cases(cases, conf), conf
        assert table.adjacency() == cases.adjacency(), conf
        assert (table.m, table.next_fresh) == (cases.m, cases.next_fresh)
        return step

    def shape(step):
        return step.kind, bool(step.contracted), bool(step.identified)

    shapes = set()
    hosts = [host_for(kind, i) for kind in KIND_ORDER for i in range(20)]
    for g in hosts + [coinciding_hubs()]:
        adj = g.adjacency()
        for row in reductions._KINDS.values():
            if row.anchor:
                found = [row.match_at(adj, v) for v in g.vertices()]
            else:
                found = [row.match(adj, cycle) for cycle in
                         reductions._chordless_deg3_cycles(g)]
            for roles in filter(None, found):
                conf = Configuration(row.kind, tuple(roles))
                shapes.add(shape(same_edit(g, conf)))
    for seed, want in ((1, {(KIND_L10, False, True)}),
                       (6, {(KIND_ORDER[7], True, False),
                            (KIND_ORDER[9], False, False)})):
        e = EditableGraph(random_planar(500, 1.0, seed))
        steps = reduce_in_place(e)
        for step in reductions.unwind(e, steps):
            conf = Configuration(step.kind, step.matched)
            assert same_edit(e.snapshot(), conf) == step
        assert want <= {shape(step) for step in steps}, seed
        shapes |= want
    assert shapes == {(kind, kind in KIND_ORDER[4:8:3], False)
                      for kind in KIND_ORDER} | {(KIND_L10, False, True)}


def test_dependency_lifts_copy_no_graph(monkeypatch):
    """The L9 and L10 lifts list-color their dependency graphs on the
    graphs' own adjacency: no component is copied out as an induced
    subgraph.  Coloring each component on a copy took 11 836 copies for
    L9 at budget 5 and 2 512 for L10 at budget 4."""
    calls = []
    induced = Graph.induced_subgraph

    def spy(g, vs):
        calls.append(g.n)
        return induced(g, vs)

    monkeypatch.setattr(Graph, "induced_subgraph", spy)
    for label, budget in (("L9", 5), ("L10", 4)):
        report = certify_lemma(label, budget=budget)
        assert report.ok and report.lifts_succeeded > 1000
    assert calls == []


def test_free_hub_hook_matches_the_two_pass_version():
    """Certification never recolors a hub, so the hook is driven directly:
    on the first canonical colorings of the reduced L9 and L10 hosts,
    pulled back onto the host, from every nonempty stuck set of cycle
    vertices, three calls in a row.  Each hook works on its own copy of
    the coloring and log; the lists, colorings and logs must agree."""
    calls = recolored = 0
    for kind in (reductions.KIND_L9, reductions.KIND_L10):
        for i in range(12):
            g = host_for(kind, i)
            reduced, step = apply_reduction(
                g, detect_configuration(g, kind=kind))
            r = step.roles()
            cycle = reductions._cycle_of(r)
            stucks = [frozenset(s) for size in range(1, len(cycle) + 1)
                      for s in itertools.combinations(cycle, size)]
            for c in itertools.islice(canonical_colorings(reduced), 150):
                order = reductions.LiftColoring(
                    c, reduced.adjacency().keys()).color_order()
                base = dict(c)
                if step.fresh is not None:
                    base[r["w1"]] = base[r["w3"]] = base.pop(step.fresh)
                for stuck in stucks:
                    runs = []
                    for make in (reductions._free_hub_hook,
                                 oracles.free_hub_hook_by_probes):
                        coloring, log = dict(base), []
                        hook = make(g, coloring, cycle, order, log)
                        got = [hook(stuck) for _ in range(3)]
                        runs.append((got, coloring, log))
                    assert runs[0] == runs[1], (kind, i, c, sorted(stuck))
                    calls += 3
                    recolored += len(runs[0][2])
    assert calls > 100000 and recolored > 50000


def test_certify_accepts_full_kind_strings():
    report = certify_lemma("L4-adjacent-3faces", budget=3)
    assert report.kind == "L4" and report.ok


def test_certify_unknown_kind():
    with pytest.raises(ValueError):
        certify_lemma("L11")


def test_short_kind_table_covers_order():
    flattened = [k for ks in SHORT_KINDS.values() for k in ks]
    assert sorted(flattened) == sorted(KIND_ORDER)
    assert len(KIND_ORDER) == 11  # ten rules; the first has two shapes
