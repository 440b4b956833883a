"""Ground-truth checkers for every coloring notion used in the toolkit.

A coloring is a plain dict VertexId -> positive int. Partial colorings simply
omit vertices. Every constructive routine in the package funnels its output
through these checkers before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping

from .graphs import Graph

Coloring = dict[int, int]


@dataclass(frozen=True)
class Violation:
    vertex: int
    seen: int
    required: int


def palette_size(c: Coloring) -> int:
    return max(c.values()) if c else 0


def seen_colors(g: Graph, c: Coloring, v: int) -> set[int]:
    """Distinct colors on the colored neighbors of v."""
    return {c[u] for u in g.neighbors(v) if u in c}


def _weak_dynamic_violations(adj: Mapping[int, frozenset[int]],
                             c: Coloring, k: int,
                             vs: Iterable[int]) -> list[Violation]:
    """Violations of the k-weak-dynamic rule among the vertices ``vs``.

    ``adj`` is a whole adjacency (``Graph.adjacency()``) and ``c`` must
    color every neighbor of ``vs``, a collection of distinct vertices.
    One pass over ``vs`` in its own order; only the violations found are
    sorted, so they come out in ascending vertex order.  A vertex's colors
    are counted only until ``min(d(v), k)`` are seen, so a hub costs no
    more than a vertex of small degree once it is satisfied; a violation
    has seen all its neighbors, so it reports the exact count.
    """
    violations = []
    for v in vs:
        nbrs = adj[v]
        need = min(len(nbrs), k)
        if need:
            seen = set()
            for u in nbrs:
                seen.add(c[u])
                if len(seen) >= need:
                    break
            else:
                violations.append(Violation(v, len(seen), need))
    violations.sort(key=attrgetter("vertex"))
    return violations


def is_weak_dynamic(g: Graph, c: Coloring, k: int) -> tuple[bool, list[Violation]]:
    """Every vertex must see at least min(d(v), k) distinct neighbor colors.

    Returns (ok, violations); violations are ordered by vertex id and carry
    the seen-color count for debugging lemma lifts.
    """
    adj = g.adjacency()
    if not c.keys() >= adj.keys():
        missing = sorted(adj.keys() - c.keys())
        raise ValueError(f"coloring is partial; uncolored: {missing[:5]}")
    violations = _weak_dynamic_violations(adj, c, k, adj)
    return not violations, violations


def is_proper(g: Graph, c: Coloring) -> bool:
    missing = [v for v in g.vertices() if v not in c]
    if missing:
        raise ValueError(f"coloring is partial; uncolored: {missing[:5]}")
    return all(c[u] != c[v] for u, v in g.edges())


def is_dynamic(g: Graph, c: Coloring, k: int) -> bool:
    """Proper and k-weak-dynamic."""
    return is_proper(g, c) and is_weak_dynamic(g, c, k)[0]


def is_satisfied_general(g: Graph, partial: Coloring, v: int, k: int) -> bool:
    """True iff v already sees min(d(v), k) distinct colors among its
    colored neighbors (the reduction lemmas use k = 3)."""
    return len(seen_colors(g, partial, v)) >= min(g.degree(v), k)


@dataclass(frozen=True)
class Hypergraph:
    vertices: frozenset[int]
    hyperedges: tuple[frozenset[int], ...]


def neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hypergraph whose hyperedges are the vertex neighborhoods of g."""
    edges = tuple(frozenset(g.neighbors(v)) for v in g.vertices())
    return Hypergraph(frozenset(g.vertices()), edges)


def is_proper_hypergraph_coloring(h: Hypergraph, c: Coloring) -> bool:
    """True iff every hyperedge sees at least two distinct colors (no
    monochromatic hyperedge). Empty hyperedges never pass; callers wanting
    the weak-dynamic correspondence must ensure minimum degree >= 2."""
    for e in h.hyperedges:
        if len({c[v] for v in e}) < 2:
            return False
    return True
