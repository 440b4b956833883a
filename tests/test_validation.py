"""Validation re-matches each kind's one matcher at the recorded seed.

* Every fresh detection of every kind validates.
* The re-match accepts a subset of what the hand-written check it replaced
  accepted (kept as ``oracles.validate_configuration_by_cases``): after the
  roles are permuted, and after one to three random edits of the graph, it
  never accepts a configuration that the old check rejects, and it does
  reject some that the old check accepted.
* The L9/L10 seed check accepts exactly the chordless cycles of
  3-vertices, and an L10 configuration re-validates only in its recorded
  rotation.
"""

from __future__ import annotations

import itertools
import random

import oracles
from oracles import reduce_fully
from test_engine import host_graphs, prism, random_edit, random_graphs
from wdcolor import reductions
from wdcolor.generators import named
from wdcolor.graphs import EditableGraph, Graph
from wdcolor.hosts import host_for
from wdcolor.reductions import (KIND_L9, KIND_L10, KIND_ORDER, Configuration,
                                detect_configuration, validate_configuration)


def detections():
    """(graph, configuration) pairs: each kind's first match on random
    planar graphs and on the certification hosts, and every step of their
    full reductions."""
    for g in list(random_graphs(30, 31)) + list(host_graphs()):
        for kind in KIND_ORDER:
            conf = detect_configuration(g, kind=kind)
            if conf is not None:
                yield g, conf
        for before, step in reduce_fully(g)[1]:
            yield before, Configuration(step.kind, step.matched)


def relabeled(conf: Configuration, vertices) -> Configuration:
    roles = [r for r, _ in conf.matched]
    return Configuration(conf.kind, tuple(zip(roles, vertices)))


def permuted(conf: Configuration, rng: random.Random):
    """The configuration with its vertices moved among its roles: every
    swap of two roles, a few shuffles, and for L9/L10 every rotation and
    reflection of the cycle."""
    vs = [v for _, v in conf.matched]
    for i, j in itertools.combinations(range(len(vs)), 2):
        swapped = vs[:]
        swapped[i], swapped[j] = vs[j], vs[i]
        yield relabeled(conf, swapped)
    for _ in range(3):
        yield relabeled(conf, rng.sample(vs, len(vs)))
    if conf.kind in (KIND_L9, KIND_L10):
        cycle = reductions._cycle_of(conf.roles())
        k = len(cycle)
        for variant in (cycle, cycle[::-1]):
            for s in range(k):
                yield relabeled(conf,
                                variant[s:] + variant[:s] + tuple(vs[k:]))


def test_re_matching_accepts_a_subset_of_the_case_by_case_check():
    rng = random.Random(12)
    kinds: set[str] = set()
    cases = tightened = kept_after_edits = 0
    for g, conf in detections():
        assert validate_configuration(g, conf)
        assert oracles.validate_configuration_by_cases(g, conf)
        kinds.add(conf.kind)
        variants = [(g, c) for c in permuted(conf, rng)]
        for _ in range(3):
            e = EditableGraph(g)
            for _ in range(rng.randint(1, 3)):
                random_edit(e, rng)
            variants.append((e, conf))
        for h, c in variants:
            new = validate_configuration(h, c)
            old = oracles.validate_configuration_by_cases(h, c)
            assert old or not new, (c, h.adjacency())
            cases += 1
            tightened += old and not new
            kept_after_edits += new and h is not g
    assert kinds == set(KIND_ORDER)
    assert cases > 15000
    assert tightened > 1000 and kept_after_edits > 1000


def test_cycle_seed_check_accepts_exactly_chordless_cycles_of_3_vertices():
    graphs = (list(random_graphs(60, 9)) + [prism(k) for k in range(3, 7)]
              + [named("cube")]
              + [host_for(kind, i) for kind in (KIND_L9, KIND_L10)
                 for i in range(6)])
    is_seed = reductions._is_chordless_deg3_cycle
    cycles = 0
    for g in graphs:
        adj = g.adjacency()
        for cycle in reductions._chordless_deg3_cycles(g):
            cycles += 1
            k = len(cycle)
            for variant in (cycle, cycle[::-1]):
                for s in range(k):
                    rot = variant[s:] + variant[:s]
                    assert is_seed(adj, rot)
                    assert reductions._canonical_cycle(rot) == cycle
            assert not is_seed(adj, cycle + cycle[:1])
            assert not is_seed(adj, cycle[:1] + cycle[1:-1] + cycle[:1])
            assert not is_seed(adj, cycle[:-1])
            pendant = g.add_edge(cycle[0], g.next_fresh)
            assert not is_seed(pendant.adjacency(), cycle)
    assert cycles > 100
    # chords: a 4-cycle of K4, and a 5-cycle of the triangular prism with
    # the chord 0-2; every vertex on them has degree 3
    k4 = Graph.from_edges(itertools.combinations(range(4), 2))
    assert not is_seed(k4.adjacency(), (0, 1, 2, 3))
    assert is_seed(k4.adjacency(), (0, 1, 2))
    assert not is_seed(prism(3).adjacency(), (0, 1, 2, 5, 3))
    assert is_seed(prism(3).adjacency(), (0, 1, 4, 3))


def test_l10_revalidates_only_in_its_recorded_rotation():
    other_accepted = 0
    for i in range(16):
        g = host_for(KIND_L10, i)
        conf = detect_configuration(g, kind=KIND_L10)
        adj = g.adjacency()
        r = conf.roles()
        cycle = reductions._cycle_of(r)
        k = len(cycle)
        for variant in (cycle, cycle[::-1]):
            for s in range(k):
                rot = variant[s:] + variant[:s]
                hubs = reductions._cycle_hubs(adj, rot)
                for w1, w3 in {(r["w1"], r["w3"]), (hubs[0], hubs[2])}:
                    c = Configuration(
                        KIND_L10, tuple((f"v{j + 1}", rot[j])
                                        for j in range(k))
                        + (("w1", w1), ("w3", w3)))
                    recorded = c.matched == conf.matched
                    assert validate_configuration(g, c) == recorded
                    other_accepted += (not recorded and oracles
                                       .validate_configuration_by_cases(g, c))
    assert other_accepted > 0
