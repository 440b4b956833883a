"""Independent, deliberately naive reference implementations.

Everything here recomputes from first principles — exhaustive enumeration
over all colorings, all edge subsets, all assignments — so the package's
optimized routines have something genuinely separate to be checked against.
Only the ``Graph`` container is shared; none of the package's coloring or
search logic is reused.
"""

from __future__ import annotations

import itertools
import random

from wdcolor.graphs import Graph

Coloring = dict[int, int]


# ---------------------------------------------------------------------------
# colorings, by brute force
# ---------------------------------------------------------------------------


def all_colorings(vertices, palette):
    """Every total map from ``vertices`` into ``palette``."""
    vs = sorted(vertices)
    for combo in itertools.product(sorted(palette), repeat=len(vs)):
        yield dict(zip(vs, combo))


def colors_seen(g: Graph, c: Coloring, v: int) -> set[int]:
    return {c[u] for u in g.neighbors(v)}


def naive_is_weak_dynamic(g: Graph, c: Coloring, k: int) -> bool:
    return all(len(colors_seen(g, c, v)) >= min(g.degree(v), k)
               for v in g.vertices())


def naive_is_proper(g: Graph, c: Coloring) -> bool:
    return all(c[u] != c[v] for u, v in g.edges())


def naive_is_dynamic(g: Graph, c: Coloring, k: int) -> bool:
    return naive_is_proper(g, c) and naive_is_weak_dynamic(g, c, k)


def naive_wd_number(g: Graph, k: int,
                    max_colors: int) -> tuple[int | None, Coloring | None]:
    """Minimum palette size for a k-weak-dynamic coloring, by trying every
    coloring with t colors for t = 1, 2, ... — the definition, verbatim."""
    if g.n == 0:
        return 0, {}
    for t in range(1, max_colors + 1):
        for c in all_colorings(g.vertices(), range(1, t + 1)):
            if naive_is_weak_dynamic(g, c, k):
                return t, c
    return None, None


def naive_chromatic_number(g: Graph, ub: int) -> int | None:
    if g.n == 0:
        return 0
    for t in range(1, ub + 1):
        for c in all_colorings(g.vertices(), range(1, t + 1)):
            if naive_is_proper(g, c):
                return t
    return None


def naive_list_colorable(g: Graph, lists: dict[int, set[int]]) -> bool:
    """Is there a proper coloring choosing each vertex's color from its
    list?  Checked by trying the full cartesian product."""
    vs = sorted(g.vertices())
    for combo in itertools.product(*(sorted(lists[v]) for v in vs)):
        c = dict(zip(vs, combo))
        if naive_is_proper(g, c):
            return True
    return False


def naive_hypergraph_proper(hyperedges, c: Coloring) -> bool:
    """No hyperedge of two or more vertices is monochromatic."""
    for he in hyperedges:
        if len(he) >= 2 and len({c[v] for v in he}) < 2:
            return False
    return True


def canonical_form(c: Coloring) -> tuple[tuple[int, int], ...]:
    """Rename colors into first-use order over ascending vertex ids."""
    rename: dict[int, int] = {}
    out = []
    for v in sorted(c):
        col = c[v]
        if col not in rename:
            rename[col] = len(rename) + 1
        out.append((v, rename[col]))
    return tuple(out)


def proper_partitions(g: Graph, max_parts: int):
    """Every partition of V(g) into at most ``max_parts`` independent sets,
    emitted as one canonical coloring per partition (colors in first-use
    order over ascending vertex ids).  Every proper coloring of g with at
    most ``max_parts`` colors is a color-renaming of exactly one output."""
    vs = sorted(g.vertices())
    c: Coloring = {}

    def rec(i: int, used: int):
        if i == len(vs):
            yield dict(c)
            return
        v = vs[i]
        for col in range(1, min(used + 1, max_parts) + 1):
            if any(c.get(u) == col for u in g.neighbors(v)):
                continue
            c[v] = col
            yield from rec(i + 1, max(used, col))
            del c[v]

    yield from rec(0, 0)


# ---------------------------------------------------------------------------
# graph enumeration and sampling
# ---------------------------------------------------------------------------


def labeled_graphs(n: int, min_degree: int = 0, connected_only: bool = True):
    """Every labeled graph on vertices 0..n-1 meeting the filters."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if min_degree > 0:
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            if min(deg) < min_degree:
                continue
        g = Graph.from_edges(edges, vertices=range(n))
        if connected_only and not g.is_connected():
            continue
        yield g


def random_connected_graph(n: int, rng: random.Random,
                           p: float = 0.5) -> Graph:
    """Connected Erdős–Rényi-style sample (resampled until connected)."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = [e for e in pairs if rng.random() < p]
        g = Graph.from_edges(edges, vertices=range(n))
        if n <= 1 or g.is_connected():
            return g


def connected_atlas(max_n: int):
    """All connected graphs with 1..max_n <= 7 vertices, one per
    isomorphism class, via the standard small-graph atlas."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g
    out = []
    for G in graph_atlas_g()[1:]:
        if G.number_of_nodes() > max_n:
            break
        if G.number_of_nodes() >= 1 and nx.is_connected(G):
            mapping = {u: i for i, u in enumerate(sorted(G.nodes()))}
            out.append(Graph.from_edges(
                [(mapping[u], mapping[v]) for u, v in G.edges()],
                vertices=range(G.number_of_nodes())))
    return out


# ---------------------------------------------------------------------------
# random planar graphs, thinned by whole-graph copies
# ---------------------------------------------------------------------------


def random_planar_by_copies(n: int, target_density: float,
                            seed: int) -> Graph:
    """``wdcolor.generators.random_planar`` as first written: every
    tentative deletion copies the graph and re-checks the connectivity of
    the whole copy.  Same seeded draws, so it must give the same graph."""
    from wdcolor.generators import triangulation
    rng = random.Random(seed)
    if n == 1:
        return Graph.from_edges([], vertices=[0])
    if n == 2:
        return Graph.from_edges([(0, 1)])
    g = triangulation(n, rng)
    full = 3 * n - 6
    target = min(full, max(n - 1, round(target_density * full)))
    order = sorted(g.edges())
    rng.shuffle(order)
    for u, v in order:
        if g.m <= target:
            break
        candidate = g.delete_edge(u, v)
        if candidate.is_connected():
            g = candidate
    return g


# ---------------------------------------------------------------------------
# chordless cycles of 3-vertices, by a scan of every length and start
# ---------------------------------------------------------------------------


def chordless_deg3_cycles_by_length_scan(g: Graph):
    """The chordless cycles of 3-vertices that the L9/L10 finders walk,
    enumerated as first written: every length from 3 to the number of
    3-vertices, from every 3-vertex as a start.  Shortest first, then by
    canonical labeling (minimum vertex first, second vertex smaller than
    the last)."""
    adj = g.adjacency()
    deg3 = [v for v in g.vertices() if len(adj[v]) == 3]
    if len(deg3) < 3:
        return
    allowed = set(deg3)

    def extend(path, target_len):
        start = path[0]
        tail = path[-1]
        if len(path) == target_len:
            if start in adj[tail] and path[1] < path[-1]:
                yield tuple(path)
            return
        for w in sorted(adj[tail]):
            if w <= start or w in path or w not in allowed:
                continue
            body = path if len(path) + 1 < target_len else path[1:]
            if any(p in adj[w] for p in body[:-1]):
                continue
            path.append(w)
            yield from extend(path, target_len)
            path.pop()

    for length in range(3, len(deg3) + 1):
        for s in deg3:
            yield from extend([s], length)
