"""Acceptance suite: nine criteria, one test (and one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
verdict lines.  Each test prints a short summary (visible with ``-s`` or
``-rA``) and enforces the stated runtime budget.
"""

from __future__ import annotations

import itertools
import random
import time

import networkx as nx

from oracles import (
    all_colorings,
    connected_atlas,
    labeled_graphs,
    naive_wd_number,
    random_connected_graph,
)
from wdcolor.exact import (
    chromatic_number_exact,
    list_color_exact,
    product_coloring,
    wd_number_exact,
)
from wdcolor.generators import named, random_planar
from wdcolor.graphs import Graph
from wdcolor.listcolor import (
    color_complete_with_lists,
    color_odd_cycle_with_lists,
    degree_choose,
)
from wdcolor.pipeline import wd3_color_planar
from wdcolor.reductions import SHORT_KINDS, certify_lemma
from wdcolor.verify import (
    is_dynamic,
    is_proper,
    is_proper_hypergraph_coloring,
    is_weak_dynamic,
    neighborhood_hypergraph,
    palette_size,
)

# Shared between criterion 3 (producer) and criterion 9 (consumer): every
# anchor-graph 4-coloring call the pipeline suite makes, with its outcome.
CRITERION_STATE: dict[str, list] = {}


def _wd3_clean(g: Graph, coloring: dict[int, int]) -> bool:
    ok, _ = is_weak_dynamic(g, coloring, 3)
    return ok and palette_size(coloring) <= 6


def test_criterion_1_exact_values():
    cases = [
        ("c5", 2, 3),
        ("k4_subdivided", 2, 4),
        ("k4", 3, 4),
        ("k1_3", 3, 3),
    ]
    claw = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    for name, k, expected in cases:
        g = claw if name == "k1_3" else named(name)
        t0 = time.perf_counter()
        res = wd_number_exact(g, k, max_colors=6)
        elapsed = time.perf_counter() - t0
        assert res.value == expected, (name, k, res.value)
        assert elapsed < 1.0, (name, elapsed)
    print("criterion 1: PASS — wd2(C5)=3, wd2(subdivided K4)=4, "
          "wd3(K4)=4, wd3(K1,3)=3, each under 1 s")


def test_criterion_2_five_color_examples():
    for name in ("fig7a", "fig7b"):
        g = named(name)
        t0 = time.perf_counter()
        res = wd_number_exact(g, 3, max_colors=6)
        elapsed = time.perf_counter() - t0
        assert res.value == 5, (name, res.value)
        assert elapsed < 10.0, (name, elapsed)
    print("criterion 2: PASS — both encoded tight examples have wd3 = 5")


def test_criterion_3_planar_six_color_theorem_at_desk_scale(
        four_color_calls):
    t0 = time.perf_counter()
    sizes = list(range(4, 15))
    densities = [0.3, 0.5, 0.7, 0.85, 1.0]
    instances = 500
    CRITERION_STATE["four_color_calls"] = four_color_calls
    failures = []
    for i in range(instances):
        n = sizes[i % len(sizes)]
        density = densities[i % len(densities)]
        g = random_planar(n, density, i)
        exact = wd_number_exact(g, 3, max_colors=6)
        if exact.value is None or exact.value > 6:
            failures.append((i, "exact", exact.value))
            continue
        coloring = wd3_color_planar(g)
        if not _wd3_clean(g, coloring):
            failures.append((i, "pipeline", coloring))
    elapsed = time.perf_counter() - t0
    assert not failures, failures[:5]
    assert elapsed < 600.0, elapsed
    print(f"criterion 3: PASS — {instances} seeded planar graphs "
          f"(4–14 vertices): exact wd3 <= 6 and verifier-clean "
          f"pipeline colorings, {elapsed:.1f} s")


def test_criterion_4_lemma_certification():
    t0 = time.perf_counter()
    details = []
    for label in SHORT_KINDS:
        report = certify_lemma(label, budget=20)
        assert report.ok, (label, report.to_json_dict())
        assert report.hosts_checked == 20, label
        assert report.lift_failures == []
        assert report.embed_failures == []
        assert report.equivariance_failures == []
        assert report.lifts_succeeded == report.colorings_checked > 0
        details.append(f"{label}:{report.lifts_succeeded}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, elapsed
    print(f"criterion 4: PASS — all ten rules certified on 20 hosts each, "
          f"every coloring lifted ({', '.join(details)}), {elapsed:.1f} s")


def test_criterion_5_exact_solver_equals_naive_enumeration():
    graphs = connected_atlas(7)
    sample = [g for g in graphs if g.n <= 6] + [g for g in graphs
                                                if g.n == 7][::5]
    assert len(sample) >= 300
    for g in sample:
        for k in (2, 3):
            naive_value, _ = naive_wd_number(g, k, 7)
            res = wd_number_exact(g, k, max_colors=7)
            assert res.value == naive_value, (sorted(g.edges()), k)
    print(f"criterion 5: PASS — branch-and-bound equals naive enumeration "
          f"on {len(sample)} connected graphs (k = 2 and 3)")


def test_criterion_6_hypergraph_correspondence():
    graphs_checked = 0
    colorings_checked = 0
    for n in range(3, 7):
        for g in labeled_graphs(n, min_degree=2, connected_only=True):
            hyper = neighborhood_hypergraph(g)
            graphs_checked += 1
            for coloring in all_colorings(sorted(g.vertices()), (1, 2, 3)):
                wd2_ok, _ = is_weak_dynamic(g, coloring, 2)
                hyper_ok = is_proper_hypergraph_coloring(hyper, coloring)
                assert wd2_ok == hyper_ok, (sorted(g.edges()), coloring)
                colorings_checked += 1
    assert graphs_checked == 12322
    print(f"criterion 6: PASS — wd2-validity matches neighborhood-"
          f"hypergraph properness on all {colorings_checked} total "
          f"3-colorings of all {graphs_checked} connected min-degree-2 "
          f"graphs up to 6 vertices")


def test_criterion_7_product_coloring_is_dynamic():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 8)
        g = random_connected_graph(n, rng, p=0.5)
        k = 2 + checked % 2
        chromatic = chromatic_number_exact(g, ub=g.n)
        wd = wd_number_exact(g, k, max_colors=8)
        assert chromatic.witness is not None and wd.witness is not None
        product = product_coloring(g, chromatic.witness, wd.witness, k)
        assert is_dynamic(g, product, k)
        assert len(set(product.values())) <= chromatic.value * wd.value
        checked += 1
    print(f"criterion 7: PASS — {checked} product colorings are "
          f"k-dynamic within the chromatic-times-wd bound")


def _complete_graph_patterns(n: int):
    """All list patterns from the 4-color universe meeting the
    complete-graph procedure's precondition: every list of size n-1,
    first and last lists different."""
    subsets = [frozenset(s)
               for s in itertools.combinations((1, 2, 3, 4), n - 1)]
    for pattern in itertools.product(subsets, repeat=n):
        if pattern[0] != pattern[-1]:
            yield pattern


def test_criterion_8_list_coloring_soundness():
    # Part 1: the complete-graph procedure on every qualifying pattern.
    complete_counts = {}
    for n in range(2, 6):
        vertices = list(range(n))
        count = 0
        for pattern in _complete_graph_patterns(n):
            lists = {v: set(pattern[v]) for v in vertices}
            coloring = color_complete_with_lists(vertices, lists)
            assert len(set(coloring.values())) == n
            assert all(coloring[v] in lists[v] for v in vertices)
            count += 1
        complete_counts[n] = count
    # n = 5 needs size-4 lists; the universe has only one, so the
    # first-differs-from-last precondition is unsatisfiable.
    assert complete_counts[5] == 0
    assert complete_counts[2] > 0 and complete_counts[3] > 0
    assert complete_counts[4] > 0

    # Part 2: the odd-cycle procedure on every qualifying pattern.
    two_subsets = [frozenset(s)
                   for s in itertools.combinations((1, 2, 3, 4), 2)]
    cycle_counts = {}
    for length in (3, 5, 7):
        cycle = list(range(length))
        edges = [(i, (i + 1) % length) for i in range(length)]
        count = 0
        for pattern in itertools.product(two_subsets, repeat=length):
            if pattern[0] == pattern[-1]:
                continue
            lists = {v: set(pattern[v]) for v in cycle}
            coloring = color_odd_cycle_with_lists(cycle, lists)
            assert all(coloring[u] != coloring[v] for u, v in edges)
            assert all(coloring[v] in lists[v] for v in cycle)
            count += 1
        cycle_counts[length] = count
    assert cycle_counts == {3: 180, 5: 6480, 7: 233280}

    # Part 3: degree_choose agrees with exact list-coloring feasibility
    # whenever its structural precondition holds (some slack, or some
    # block that is neither complete nor an odd cycle).
    rng = random.Random(88)
    agreeing = 0
    attempts = 0
    while agreeing < 100 and attempts < 1000:
        attempts += 1
        n = rng.randint(3, 9)
        g = random_connected_graph(n, rng, p=0.45)
        lists = {}
        for v in g.vertices():
            size = g.degree(v) + rng.choice((0, 0, 1))
            lists[v] = set(rng.sample(range(1, 10), size)) if size else set()
        if any(len(lists[v]) < g.degree(v) for v in g.vertices()):
            continue
        has_slack = any(len(lists[v]) > g.degree(v) for v in g.vertices())
        nxg = nx.Graph(sorted(g.edges()))
        nxg.add_nodes_from(g.vertices())
        non_gallai_block = False
        for block in nx.biconnected_components(nxg):
            sub = g.induced_subgraph(block)
            complete = sub.m == sub.n * (sub.n - 1) // 2
            odd_cycle = (sub.n >= 3 and sub.n % 2 == 1
                         and all(sub.degree(v) == 2 for v in sub.vertices()))
            if not complete and not odd_cycle:
                non_gallai_block = True
        if not (has_slack or non_gallai_block):
            continue
        coloring = degree_choose(g, lists)
        assert coloring is not None, (sorted(g.edges()), lists)
        assert is_proper(g, coloring)
        assert all(coloring[v] in lists[v] for v in g.vertices())
        assert list_color_exact(
            g, {v: set(lists[v]) for v in g.vertices()}) is not None
        agreeing += 1
    assert agreeing >= 100
    print(f"criterion 8: PASS — complete-graph patterns "
          f"{complete_counts}, odd-cycle patterns {cycle_counts} all "
          f"colored from their lists; degree_choose agreed with exact "
          f"feasibility on {agreeing} structurally-qualified inputs")


def test_criterion_9_four_color_step_always_feasible(four_color_calls):
    calls = CRITERION_STATE.get("four_color_calls")
    source = "the planar suite"
    if calls is None:
        # Standalone run: produce a fresh batch of anchor graphs.
        calls = four_color_calls
        for seed in range(60):
            wd3_color_planar(random_planar(4 + seed % 11, 0.8, seed))
        source = "a standalone batch"
    assert calls, "the pipeline made no 4-coloring calls"
    raised = [(sorted(h.edges()), out) for h, out in calls
              if isinstance(out, Exception)]
    assert not raised, raised[:5]
    bad = [sorted(h.edges()) for h, coloring in calls
           if not is_proper(h, coloring) or palette_size(coloring) > 4]
    assert not bad, bad[:5]
    print(f"criterion 9: PASS — {len(calls)} anchor-graph 4-coloring "
          f"calls from {source}, each a proper coloring with at most "
          f"four colors")
