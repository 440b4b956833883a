"""Simple undirected graphs with integer vertex ids.

``Graph`` is immutable.  ``EditableGraph`` is one graph that the reduction
engine edits in place and restores through an undo log.

Vertex identities are stable: deletion never reindexes, and contraction /
identification allocate a fresh id (tracked by ``next_fresh``) that is never
reused within the lifetime of a graph family derived from one root graph.

``rings`` is the package's one breadth-first walk: components, distances,
the balls that detection and step records read, list coloring's order
toward a core and ``random_planar``'s bridge test all take its rings.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


def rings(adj: Mapping[int, frozenset[int] | set[int]],
          sources: Iterable[int]) -> Iterator[set[int]]:
    """The vertices at distance 0, 1, 2, ... from ``sources``, one set per
    distance, nearest first, until the walk has reached every vertex it
    can.  The union of the first r + 1 rings is the ball of radius r.
    ``adj`` must be undirected: u in adj[v] exactly when v in adj[u]."""
    # so the neighbors of a ring lie in it or in the rings beside it, and
    # the next ring is what the two nearest rings leave of them
    prev: set[int] = set()
    ring = set(sources)
    while ring:
        yield ring
        nxt: set[int] = set()
        for v in ring:
            nxt |= adj[v]
        nxt -= ring
        nxt -= prev
        prev, ring = ring, nxt


class _Adjacency:
    """Read-only queries shared by ``Graph`` and ``EditableGraph``."""

    __slots__ = ()
    _adj: dict[int, frozenset[int]]
    _edge_count: int

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._edge_count

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

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise KeyError(f"unknown vertex {v}")

    def __contains__(self, v: int) -> bool:
        return v in self._adj


class Graph(_Adjacency):
    """Simple undirected graph. Instances are immutable; all mutating
    operations return new graphs."""

    __slots__ = ("_adj", "next_fresh", "_edge_count", "_sorted",
                 "_components")

    def __init__(self, adj: dict[int, frozenset[int]], next_fresh: int | None = None):
        self._adj = adj
        top = max(adj) + 1 if adj else 0
        self.next_fresh = top if next_fresh is None else max(next_fresh, top)
        self._edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
        self._sorted: tuple[int, ...] | None = None
        self._components: tuple[frozenset[int], ...] | None = None

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

    def vertices(self) -> tuple[int, ...]:
        """All vertices, ascending (sorted once per graph)."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._adj))
        return self._sorted

    # -- derived graphs --------------------------------------------------

    # Derived graphs copy the vertex dict at C speed and rebuild only the
    # entries they touch; every other neighbor set is shared with the source.
    # The reduction edits are made once, by EditableGraph.

    def delete_edge(self, u: int, v: int) -> "Graph":
        e = EditableGraph(self)
        e.delete_edge(u, v)
        return e.snapshot()

    def delete_vertex(self, v: int) -> "Graph":
        return self.delete_vertices([v])

    def delete_vertices(self, vs: Iterable[int]) -> "Graph":
        e = EditableGraph(self)
        e.delete_vertices(vs)
        return e.snapshot()

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
        adj[u] = adj.get(u, frozenset()) | {v}
        adj[v] = adj.get(v, frozenset()) | {u}
        return Graph(adj, self.next_fresh)

    def add_vertex(self, v: int) -> "Graph":
        if v in self._adj:
            return self
        adj = dict(self._adj)
        adj[v] = frozenset()
        return Graph(adj, self.next_fresh)

    def contract_edge(self, u: int, v: int) -> tuple["Graph", int]:
        """Contract the edge uv into a fresh vertex adjacent to
        N(u) ∪ N(v) − {u, v}; parallel edges merge (result stays simple)."""
        e = EditableGraph(self)
        fresh = e.contract_edge(u, v)
        return e.snapshot(), fresh

    def identify_vertices(self, u: int, v: int) -> tuple["Graph", int]:
        """Merge two distinct vertices (adjacency not required) into a fresh
        vertex; equivalent to contract_edge when uv is an edge."""
        e = EditableGraph(self)
        fresh = e.identify_vertices(u, v)
        return e.snapshot(), fresh

    # -- traversal helpers ----------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        """The components, ascending by their smallest vertex (found once
        per graph; each call returns a new list)."""
        if self._components is None:
            seen: set[int] = set()
            comps = []
            for s in self.vertices():
                if s not in seen:
                    comp = frozenset().union(*rings(self._adj, (s,)))
                    seen |= comp
                    comps.append(comp)
            self._components = tuple(comps)
        return list(self._components)

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def bfs_distances(self, sources: Iterable[int]) -> dict[int, int]:
        """The distance from ``sources`` of every vertex they reach."""
        return {v: d for d, ring in enumerate(rings(self._adj, sources))
                for v in ring}

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset((v, nbrs) for v, nbrs in self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class EditableGraph(_Adjacency):
    """One graph edited in place, with an undo log.

    It starts from a C-level copy of a ``Graph``'s vertex dict.  Neighbor
    sets stay frozensets shared with their source: an edit replaces the
    sets of the vertices it touches, costing O(degree), never O(n).  Each
    edit records the sets it replaces (None for a vertex it creates) in
    the newest undo entry, which ``checkpoint`` opens; ``undo`` drops that
    entry and restores the graph, edge count and ``next_fresh`` included,
    as they were when it was opened.  Edits made before any checkpoint
    are not recorded.
    """

    __slots__ = ("_adj", "next_fresh", "_edge_count", "_undo")

    def __init__(self, g: Graph) -> None:
        self._adj = dict(g._adj)
        self.next_fresh = g.next_fresh
        self._edge_count = g._edge_count
        self._undo: list[tuple[int, int, list[tuple[int, frozenset[int] | None]]]] = []

    def vertices(self) -> tuple[int, ...]:
        """All vertices, ascending (sorted on every call)."""
        return tuple(sorted(self._adj))

    def snapshot(self) -> Graph:
        """The current graph as an immutable ``Graph`` (one dict copy and
        an edge recount)."""
        return Graph(dict(self._adj), self.next_fresh)

    # -- undo log ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """The number of undo entries."""
        return len(self._undo)

    def checkpoint(self) -> None:
        """Open an undo entry; later edits record into it."""
        self._undo.append((self._edge_count, self.next_fresh, []))

    def undo(self) -> None:
        """Revert every edit since the newest checkpoint, and drop it."""
        m, next_fresh, saved = self._undo.pop()
        adj = self._adj
        for v, old in reversed(saved):
            if old is None:
                del adj[v]
            else:
                adj[v] = old
        self._edge_count = m
        self.next_fresh = next_fresh

    def changed_since(self, depth: int) -> dict[int, frozenset[int] | None]:
        """Every vertex whose neighbor set an edit replaced, created or
        deleted in the undo entries from ``depth`` on, with the set it had
        at ``depth`` (None if it did not exist then)."""
        # newest first, so the oldest saved set is the one that stays
        return {v: old for _, _, saved in reversed(self._undo[depth:])
                for v, old in reversed(saved)}

    def _saved(self) -> list[tuple[int, frozenset[int] | None]]:
        return self._undo[-1][2] if self._undo else []

    # -- edits ---------------------------------------------------------------

    def delete_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"no edge {u}-{v}")
        adj = self._adj
        saved = self._saved()
        saved += ((u, adj[u]), (v, adj[v]))
        adj[u] = adj[u] - {v}
        adj[v] = adj[v] - {u}
        self._edge_count -= 1

    def delete_vertices(self, vs: Iterable[int]) -> None:
        dead = set(vs)
        for v in dead:
            self._require(v)
        adj = self._adj
        saved = self._saved()
        touched: set[int] = set()
        ends = inner = 0
        for v in dead:
            nbrs = adj.pop(v)
            saved.append((v, nbrs))
            touched |= nbrs
            ends += len(nbrs)
            inner += len(nbrs & dead)
        for u in touched - dead:
            saved.append((u, adj[u]))
            adj[u] = adj[u] - dead
        # an edge inside ``dead`` has two ends there, any other edge one
        self._edge_count -= ends - inner // 2

    def contract_edge(self, u: int, v: int) -> int:
        """Contract the edge uv into a fresh vertex; returns its id."""
        if not self.has_edge(u, v):
            raise KeyError(f"no edge {u}-{v} to contract")
        return self._merge(u, v)

    def identify_vertices(self, u: int, v: int) -> int:
        """Merge two distinct vertices into a fresh vertex; returns its id."""
        if u == v:
            raise ValueError("cannot identify a vertex with itself")
        self._require(u)
        self._require(v)
        return self._merge(u, v)

    def _merge(self, u: int, v: int) -> int:
        adj = self._adj
        saved = self._saved()
        fresh = self.next_fresh
        au, av = adj.pop(u), adj.pop(v)
        saved += ((u, au), (v, av))
        merged = (au | av) - {u, v}
        for w in merged:
            saved.append((w, adj[w]))
            adj[w] = (adj[w] - {u, v}) | {fresh}
        saved.append((fresh, None))
        adj[fresh] = frozenset(merged)
        self._edge_count += len(merged) - len(au) - len(av) + (v in au)
        self.next_fresh = fresh + 1
        return fresh


def block_kind(g: Graph, block: frozenset[int]) -> str:
    """The structural kind of a block: 'complete', 'odd-cycle' or
    'other'."""
    verts = sorted(block)
    if all(g.has_edge(a, b) for a, b in combinations(verts, 2)):
        return "complete"
    if len(verts) % 2 == 1 and all(len(g.neighbors(v) & block) == 2 for v in verts):
        return "odd-cycle"
    return "other"


def blocks(g: Graph) -> tuple[frozenset[int], ...]:
    """Blocks (biconnected components: maximal 2-connected subgraphs and
    cut edges), sorted by their sorted vertex lists.

    Isolated vertices belong to no block; the blocks partition the edge
    set.  The one use of networkx in the package: its biconnected split,
    on a graph built from the edges.
    """
    import networkx as nx

    return tuple(sorted(map(frozenset,
                            nx.biconnected_components(nx.Graph(g.edges()))),
                        key=sorted))
