"""Planarity certificates: embedding-backed planar verdicts and explicit
K5/K33 minor models for nonplanar graphs.

The verdict comes from the left-right planarity criterion; a planar verdict
carries a rotation system that is independently validated here by tracing
face boundaries and checking Euler's formula summed over the components.
A nonplanar verdict carries a K5 or K33 minor model at every size, read off
a Kuratowski subdivision that one vertex pass and one edge pass of LR tests
isolate; that costs O(n) LR tests, each linear in the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from .graphs import Graph

@dataclass(frozen=True)
class PlanarityCertificate:
    verdict: str  # 'planar' | 'nonplanar'
    rotation: dict[int, tuple[int, ...]] | None = None
    minor_kind: str | None = None  # 'K5' | 'K33'
    branch_sets: tuple[frozenset[int], ...] | None = None

    @property
    def is_planar(self) -> bool:
        return self.verdict == "planar"


def count_faces(rotation: dict[int, tuple[int, ...]]) -> int:
    """Count face orbits of a rotation system by dart tracing.

    The successor of dart (u, v) is (v, w) where w follows u in the cyclic
    order around v. Each orbit is one face boundary; a vertex with no darts
    is its own component and contributes one face on its own.
    """
    nxt_index = {v: {u: i for i, u in enumerate(order)}
                 for v, order in rotation.items()}
    # dart set is symmetric: (u, v) present iff (v, u) present
    faces = 0
    seen: set[tuple[int, int]] = set()
    for start in ((u, v) for v, order in rotation.items() for u in order):
        if start in seen:
            continue
        faces += 1
        d = start
        while True:
            seen.add(d)
            u, v = d
            order = rotation[v]
            w = order[(nxt_index[v][u] + 1) % len(order)]
            d = (v, w)
            if d == start:
                break
    return faces + sum(not order for order in rotation.values())


def validate_rotation(g: Graph, rotation: dict[int, tuple[int, ...]]) -> bool:
    """Euler check V - E + F = 2c over the whole graph, c components.

    A rotation system of a connected graph embeds it in an orientable
    surface of genus h with V - E + F = 2 - 2h <= 2, so the sum over the
    components equals 2c exactly when every component is planar.
    """
    if set(rotation) != set(g.vertices()):
        return False
    for v in g.vertices():
        if set(rotation[v]) != set(g.neighbors(v)) or \
                len(rotation[v]) != g.degree(v):
            return False
    components = len(g.connected_components())
    return g.n - g.m + count_faces(rotation) == 2 * components


def validate_minor_model(g: Graph, kind: str,
                         branch_sets: tuple[frozenset[int], ...]) -> bool:
    """Check branch sets are disjoint, connected, and carry the inter-set
    edges of K5 (all pairs) or K33 (bipartite 3+3)."""
    all_verts: set[int] = set()
    for bs in branch_sets:
        if not bs or not all_verts.isdisjoint(bs):
            return False
        all_verts |= bs
        if not g.induced_subgraph(bs).is_connected():
            return False

    def linked(a: frozenset[int], b: frozenset[int]) -> bool:
        return any(g.has_edge(x, y) for x in a for y in b)

    if kind == "K5":
        if len(branch_sets) != 5:
            return False
        return all(linked(a, b) for a, b in combinations(branch_sets, 2))
    if kind == "K33":
        if len(branch_sets) != 6:
            return False
        left, right = branch_sets[:3], branch_sets[3:]
        return all(linked(a, b) for a in left for b in right)
    return False


def _kuratowski_model(g: Graph) -> tuple[str, tuple[frozenset[int], ...]]:
    """K5/K33 branch sets of a nonplanar graph, read off a Kuratowski
    subdivision inside it.

    One ascending pass drops every vertex, then one pass every edge, whose
    removal leaves the graph nonplanar.  Nonplanarity carries over to
    supergraphs, so whatever a pass keeps could not be dropped later
    either: the rest, less its isolated vertices, is minimally nonplanar,
    hence a subdivision of K5 or K33 (Kuratowski).  Its branch vertices
    are those of degree at least three; each path's inner vertices join the
    set of its smaller end.  Costs O(n) LR tests: n in the vertex pass, and
    O(n) in the edge pass, since the vertex pass leaves a graph that turns
    planar on deleting any vertex, so it has fewer than 3n edges.
    """
    G = g.to_networkx()
    for v in g.vertices():
        nbrs = list(G[v])
        G.remove_node(v)
        if nx.check_planarity(G)[0]:
            G.add_edges_from((v, u) for u in nbrs)
    for u, v in g.edges():
        if G.has_edge(u, v):
            G.remove_edge(u, v)
            if nx.check_planarity(G)[0]:
                G.add_edge(u, v)
    branch = sorted(v for v in G if len(G[v]) >= 3)
    sets = {b: {b} for b in branch}
    right: list[int] = []  # the path ends of branch[0]: K33's other side
    for b in branch:
        for x in G[b]:
            prev, inner = b, []
            while x not in sets:
                inner.append(x)
                prev, x = x, next(y for y in G[x] if y != prev)
            if b == branch[0]:
                right.append(x)
            if b < x:
                sets[b].update(inner)
    if len(branch) == 5:
        return "K5", tuple(frozenset(sets[b]) for b in branch)
    right.sort()
    left = [b for b in branch if b not in right]
    return "K33", tuple(frozenset(sets[b]) for b in left + right)


def is_planar(g: Graph) -> PlanarityCertificate:
    """Planarity certificate: a validated rotation system, or an explicit
    K5/K33 minor model, at every size.  A planar verdict costs one LR test;
    a nonplanar one costs O(n) more (see :func:`_kuratowski_model`)."""
    ok, emb = nx.check_planarity(g.to_networkx(), counterexample=False)
    if ok:
        data = emb.get_data()
        rotation = {v: tuple(data.get(v, ())) for v in g.vertices()}
        if not validate_rotation(g, rotation):
            raise AssertionError("embedding failed the Euler validation")
        return PlanarityCertificate("planar", rotation=rotation)
    kind, branch_sets = _kuratowski_model(g)
    if not validate_minor_model(g, kind, branch_sets):
        raise AssertionError("minor model failed validation — witness bug")
    return PlanarityCertificate("nonplanar", minor_kind=kind,
                                branch_sets=branch_sets)
