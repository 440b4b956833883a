"""Immutable simple undirected graphs with integer vertex ids.

Vertex identities are stable: deletion never reindexes, and contraction /
identification allocate a fresh id (tracked by ``next_fresh``) that is never
reused within the lifetime of a graph family derived from one root graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


class Graph:
    """Simple undirected graph. Instances are immutable; all mutating
    operations return new graphs."""

    __slots__ = ("_adj", "next_fresh", "_edge_count", "_sorted")

    def __init__(self, adj: dict[int, frozenset[int]], next_fresh: int | None = None):
        self._adj = adj
        top = max(adj) + 1 if adj else 0
        self.next_fresh = top if next_fresh is None else max(next_fresh, top)
        self._edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
        self._sorted: tuple[int, ...] | None = None

    @classmethod
    def _derived(cls, adj: dict[int, frozenset[int]], next_fresh: int,
                 m: int) -> "Graph":
        """A graph whose ``next_fresh`` and edge count the caller already
        knows, so nothing is recounted."""
        g = cls.__new__(cls)
        g._adj = adj
        g.next_fresh = next_fresh
        g._edge_count = m
        g._sorted = None
        return g

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]],
                   vertices: Iterable[int] = ()) -> "Graph":
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls({v: frozenset(nbrs) for v, nbrs in adj.items()})

    @classmethod
    def empty(cls) -> "Graph":
        return cls({})

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._edge_count

    def vertices(self) -> tuple[int, ...]:
        """All vertices, ascending (sorted once per graph)."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._adj))
        return self._sorted

    def adjacency(self) -> Mapping[int, frozenset[int]]:
        """Read-only view of the whole adjacency, for hot loops that would
        otherwise pay a checked ``degree``/``neighbors`` call per probe."""
        return MappingProxyType(self._adj)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def neighbors(self, v: int) -> frozenset[int]:
        self._require(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._require(v)
        return len(self._adj[v])

    def second_neighborhood(self, v: int) -> frozenset[int]:
        """Vertices sharing at least one common neighbor with v (v itself
        excluded; neighbors of v are included iff they also share one)."""
        self._require(v)
        out: set[int] = set()
        for w in self._adj[v]:
            out.update(self._adj[w])
        out.discard(v)
        return frozenset(out)

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise KeyError(f"unknown vertex {v}")

    # -- derived graphs --------------------------------------------------

    # Derived graphs copy the vertex dict at C speed and rebuild only the
    # entries they touch; every other neighbor set is shared with the source.

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise KeyError(f"no edge {u}-{v}")
        adj = dict(self._adj)
        adj[u] = adj[u] - {v}
        adj[v] = adj[v] - {u}
        return Graph._derived(adj, self.next_fresh, self._edge_count - 1)

    def delete_vertex(self, v: int) -> "Graph":
        self._require(v)
        return self.delete_vertices([v])

    def delete_vertices(self, vs: Iterable[int]) -> "Graph":
        dead = set(vs)
        for v in dead:
            self._require(v)
        adj = dict(self._adj)
        touched: set[int] = set()
        ends = inner = 0
        for v in dead:
            nbrs = adj.pop(v)
            touched |= nbrs
            ends += len(nbrs)
            inner += len(nbrs & dead)
        for u in touched - dead:
            adj[u] = adj[u] - dead
        # an edge inside ``dead`` has two ends there, any other edge one
        return Graph._derived(adj, self.next_fresh,
                              self._edge_count - ends + inner // 2)

    def induced_subgraph(self, vs: Iterable[int]) -> "Graph":
        keep = set(vs)
        for v in keep:
            self._require(v)
        adj = {u: self._adj[u] & keep for u in keep}
        return Graph(adj, self.next_fresh)

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("self-loop")
        adj = dict(self._adj)
        new = not self.has_edge(u, v)
        adj[u] = adj.get(u, frozenset()) | {v}
        adj[v] = adj.get(v, frozenset()) | {u}
        return Graph._derived(adj, max(self.next_fresh, u + 1, v + 1),
                              self._edge_count + new)

    def add_vertex(self, v: int) -> "Graph":
        if v in self._adj:
            return self
        adj = dict(self._adj)
        adj[v] = frozenset()
        return Graph._derived(adj, max(self.next_fresh, v + 1),
                              self._edge_count)

    def contract_edge(self, u: int, v: int) -> tuple["Graph", int]:
        """Contract the edge uv into a fresh vertex adjacent to
        N(u) ∪ N(v) − {u, v}; parallel edges merge (result stays simple)."""
        if not self.has_edge(u, v):
            raise KeyError(f"no edge {u}-{v} to contract")
        return self._merge(u, v)

    def identify_vertices(self, u: int, v: int) -> tuple["Graph", int]:
        """Merge two distinct vertices (adjacency not required) into a fresh
        vertex; equivalent to contract_edge when uv is an edge."""
        if u == v:
            raise ValueError("cannot identify a vertex with itself")
        self._require(u)
        self._require(v)
        return self._merge(u, v)

    def _merge(self, u: int, v: int) -> tuple["Graph", int]:
        fresh = self.next_fresh
        merged = (self._adj[u] | self._adj[v]) - {u, v}
        adj = dict(self._adj)
        del adj[u], adj[v]
        for w in merged:
            adj[w] = (adj[w] - {u, v}) | {fresh}
        adj[fresh] = frozenset(merged)
        lost = (len(self._adj[u]) + len(self._adj[v])
                - self.has_edge(u, v))
        return (Graph._derived(adj, fresh + 1,
                               self._edge_count - lost + len(merged)), fresh)

    # -- traversal helpers ----------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps = []
        for s in sorted(self._adj):
            if s in seen:
                continue
            comp = {s}
            q = deque([s])
            while q:
                x = q.popleft()
                for y in self._adj[x]:
                    if y not in comp:
                        comp.add(y)
                        q.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def bfs_distances(self, sources: Iterable[int]) -> dict[int, int]:
        dist = {s: 0 for s in sources}
        q = deque(dist)
        while q:
            x = q.popleft()
            for y in self._adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        return dist

    # -- dunder ----------------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset((v, nbrs) for v, nbrs in self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs / cut edges), cut vertices, and a
    structural kind tag per block: 'complete' | 'odd-cycle' | 'other'."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    kinds: tuple[str, ...]

    def is_gallai(self) -> bool:
        """True iff every block is a complete graph or an odd cycle."""
        return all(k != "other" for k in self.kinds)


def block_kind(g: Graph, block: frozenset[int]) -> str:
    verts = sorted(block)
    if all(g.has_edge(a, b) for a, b in combinations(verts, 2)):
        return "complete"
    if len(verts) % 2 == 1 and all(len(g.neighbors(v) & block) == 2 for v in verts):
        return "odd-cycle"
    return "other"


def blocks(g: Graph) -> BlockDecomposition:
    """Block-cut decomposition (biconnected components + articulation points).

    Isolated vertices belong to no block; the blocks partition the edge set.
    """
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(g.vertices())
    G.add_edges_from(g.edges())
    comps = [frozenset(c) for c in nx.biconnected_components(G)]
    comps.sort(key=lambda c: sorted(c))
    cuts = frozenset(nx.articulation_points(G))
    kinds = tuple(block_kind(g, c) for c in comps)
    return BlockDecomposition(tuple(comps), cuts, kinds)


def cycle_from_closed_walk(g: Graph, walk: list[int]) -> list[int]:
    """Extract a simple cycle from a closed walk with no immediate edge
    repetition.

    The shortest closed portion of the walk (the minimal i<j with
    walk[i] == walk[j]) has pairwise-distinct interior vertices and length
    at least 3, hence is itself a simple cycle; its edges are walk edges.
    Returns the cycle as a vertex list without the closing repeat.
    """
    if len(walk) < 4 or walk[0] != walk[-1]:
        raise ValueError("walk must be closed with length >= 3")
    for a, b in zip(walk, walk[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"walk step {a}-{b} is not an edge")
    for i in range(len(walk) - 2):
        if walk[i] == walk[i + 2]:
            raise ValueError("walk repeats an edge immediately")

    best: tuple[int, int] | None = None
    last_seen: dict[int, int] = {}
    for j, v in enumerate(walk):
        if v in last_seen:
            i = last_seen[v]
            if best is None or j - i < best[1] - best[0]:
                best = (i, j)
        last_seen[v] = j
    assert best is not None  # walk[0] == walk[-1] guarantees one repeat
    i, j = best
    cycle = walk[i:j]
    assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
    return cycle
