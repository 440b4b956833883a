"""Named example graphs and seeded random planar instances.

The named catalog holds the small graphs the test and acceptance suites
refer to by name, including two six- and seven-vertex planar graphs
(``fig7a``, ``fig7b``) whose 3-weak-dynamic number is exactly five — the
known worst cases below the general six-color bound.  Random instances are
built as point-insertion triangulations (exactly ``3n - 6`` edges) thinned
by random edge deletions that keep the graph connected; both steps are
driven by one seeded generator, so a given ``(n, density, seed)`` triple
always yields the identical graph.
"""

from __future__ import annotations

import random

from .graphs import Graph, rings
from .planarity import is_planar


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _complete(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _k4_subdivided() -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    mid = 4
    for u, v in _complete(4):
        edges.append((u, mid))
        edges.append((mid, v))
        mid += 1
    return edges


_NAMED: dict[str, list[tuple[int, int]]] = {
    "c5": _cycle(5),
    "k4": _complete(4),
    "k4_subdivided": _k4_subdivided(),
    "k5": _complete(5),
    "k33": [(i, j) for i in range(3) for j in range(3, 6)],
    "cube": [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)],
    "fig7a": [(0, 1), (1, 5), (5, 2), (2, 3), (3, 4), (4, 0), (0, 3), (1, 2),
              (3, 5), (4, 1)],
    "fig7b": _cycle(7) + [(2, 4), (4, 6), (5, 0)],
}

NAMED_GRAPH_NAMES: tuple[str, ...] = tuple(sorted(_NAMED))


def named(name: str) -> Graph:
    """One of the fixed catalog graphs; raises KeyError on unknown names."""
    try:
        edges = _NAMED[name]
    except KeyError:
        raise KeyError(
            f"unknown graph name {name!r}; choose from"
            f" {', '.join(NAMED_GRAPH_NAMES)}") from None
    return Graph.from_edges(edges)


def triangulation(n: int, rng: random.Random) -> Graph:
    """Random maximal planar graph on ``n >= 3`` vertices (3n - 6 edges).

    Start from a triangle; insert each further vertex into a face chosen
    at random, joining it to that face's three corners.
    """
    if n < 3:
        raise ValueError("a triangulation needs at least 3 vertices")
    edges: set[tuple[int, int]] = {(0, 1), (0, 2), (1, 2)}
    faces: list[tuple[int, int, int]] = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        for u in (a, b, c):
            edges.add((min(u, v), max(u, v)))
        faces.extend([(a, b, v), (b, c, v), (a, c, v)])
    return Graph.from_edges(sorted(edges), vertices=range(n))


def random_planar(n: int, target_density: float, seed: int) -> Graph:
    """Connected planar graph on ``n`` vertices, deterministic per seed.

    Built as a random triangulation thinned by random edge deletions down
    to ``max(n - 1, round(target_density * (3n - 6)))`` edges, skipping any
    deletion that would disconnect the graph.  The result is certified
    planar and connected before being returned.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    if n == 1:
        return Graph.from_edges([], vertices=[0])
    if n == 2:
        return Graph.from_edges([(0, 1)])
    tri = triangulation(n, rng)
    full = 3 * n - 6
    target = min(full, max(n - 1, round(target_density * full)))
    order = list(tri.edges())
    rng.shuffle(order)
    adj = {v: set(tri.neighbors(v)) for v in tri.vertices()}
    m = tri.m
    for u, v in order:
        if m <= target:
            break
        adj[u].discard(v)
        adj[v].discard(u)
        # the graph is connected, so it stays so iff uv is not a bridge
        if any(v in ring for ring in rings(adj, (u,))):
            m -= 1
        else:
            adj[u].add(v)
            adj[v].add(u)
    g = Graph({v: frozenset(nbrs) for v, nbrs in adj.items()})
    cert = is_planar(g)
    if not cert.is_planar or not g.is_connected():
        raise AssertionError("random planar construction broke its contract")
    return g
