"""Tests for the graph catalog and the random planar generator."""

from __future__ import annotations

import random

import pytest

import oracles
from wdcolor.exact import wd_number_exact
from wdcolor.generators import (
    NAMED_GRAPH_NAMES,
    named,
    random_planar,
    triangulation,
)
from wdcolor.planarity import is_planar

EXPECTED_SIZES = {
    "c5": (5, 5),
    "cube": (8, 12),
    "fig7a": (6, 10),
    "fig7b": (7, 10),
    "k33": (6, 9),
    "k4": (4, 6),
    "k4_subdivided": (10, 12),
    "k5": (5, 10),
}


class TestNamed:
    def test_catalog_is_complete_and_sorted(self):
        assert NAMED_GRAPH_NAMES == tuple(sorted(EXPECTED_SIZES))

    @pytest.mark.parametrize("name", sorted(EXPECTED_SIZES))
    def test_sizes(self, name):
        g = named(name)
        assert (g.n, g.m) == EXPECTED_SIZES[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_SIZES))
    def test_planarity_verdicts(self, name):
        cert = is_planar(named(name))
        assert cert.is_planar == (name not in ("k5", "k33"))

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="cube"):
            named("does-not-exist")

    def test_named_returns_fresh_copies(self):
        a = named("c5")
        b = named("c5")
        assert a == b
        assert a is not b

    def test_subdivided_k4_structure(self):
        g = named("k4_subdivided")
        degrees = sorted(g.degree(v) for v in g.vertices())
        # Four original vertices of degree 3, six midpoints of degree 2.
        assert degrees == [2] * 6 + [3] * 4

    @pytest.mark.parametrize("name,expected", [("fig7a", 5), ("fig7b", 5)])
    def test_tight_examples_need_five_colors(self, name, expected):
        res = wd_number_exact(named(name), 3, max_colors=6)
        assert res.value == expected


class TestTriangulation:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_edge_count_and_planarity(self, n):
        rng = random.Random(n * 17)
        g = triangulation(n, rng)
        assert g.n == n
        assert g.m == 3 * n - 6
        assert is_planar(g).is_planar

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            triangulation(2, random.Random(0))

    def test_varies_with_rng(self):
        graphs = {
            tuple(sorted(triangulation(9, random.Random(seed)).edges()))
            for seed in range(10)
        }
        assert len(graphs) > 1


class TestRandomPlanar:
    def test_deterministic_for_seed(self):
        a = random_planar(12, 0.7, 99)
        b = random_planar(12, 0.7, 99)
        assert a == b

    def test_different_seeds_differ(self):
        edge_sets = {
            tuple(sorted(random_planar(12, 0.7, seed).edges()))
            for seed in range(8)
        }
        assert len(edge_sets) > 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_trivial_sizes(self, n):
        g = random_planar(n, 0.5, 3)
        assert g.n == n
        assert g.m == (0 if n == 1 else 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_connected_planar_within_bounds(self, seed):
        n = 4 + seed
        g = random_planar(n, 0.25 + (seed % 4) * 0.25, seed)
        assert g.n == n
        assert n - 1 <= g.m <= 3 * n - 6
        assert len(g.connected_components()) == 1
        assert is_planar(g).is_planar

    def test_density_one_keeps_triangulation(self):
        g = random_planar(10, 1.0, 5)
        assert g.m == 3 * 10 - 6

    def test_density_zero_still_connected(self):
        for seed in range(5):
            g = random_planar(10, 0.0, seed)
            assert g.m >= 10 - 1
            assert len(g.connected_components()) == 1

    def test_density_orders_edge_counts_on_average(self):
        sparse = sum(random_planar(12, 0.2, s).m for s in range(6))
        dense = sum(random_planar(12, 0.9, s).m for s in range(6))
        assert sparse < dense

    def test_same_graphs_as_thinning_by_whole_copies(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 60)
            d = rng.choice((0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
            seed = rng.randrange(10**6)
            g = random_planar(n, d, seed)
            old = oracles.random_planar_by_copies(n, d, seed)
            assert g == old, (n, d, seed)
            assert (g.m, g.next_fresh) == (old.m, old.next_fresh)

    def test_same_graphs_as_thinning_by_whole_copies_at_scale(self):
        # the sizes of the benchmark's tri-reduce workload
        for i, (n, d) in enumerate(((150, 1.0), (200, 0.9), (250, 1.0),
                                    (300, 0.8), (500, 0.6), (700, 0.4))):
            assert random_planar(n, d, 7000 + i) \
                == oracles.random_planar_by_copies(n, d, 7000 + i), n
