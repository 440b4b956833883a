"""Independent, deliberately naive reference implementations.

Everything here recomputes from first principles — exhaustive enumeration
over all colorings, all edge subsets, all assignments — so the package's
optimized routines have something genuinely separate to be checked against.
Only the ``Graph`` container is shared; none of the package's coloring or
search logic is reused.  The one exception, ``reduce_fully``, is no
reference: it lays the package's own reduction out as snapshots for tests
to replay.  The routines "as first written" are the package's own former
versions, kept verbatim as references for the ones that replaced them; the
Graph-based list coloring among them still calls the package's tight-path
helpers, which did not change.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable

from wdcolor.graphs import EditableGraph, Graph, block_kind, blocks
from wdcolor.listcolor import (ColorOrder, DependencyColoringError, Lists,
                               _color_block, _color_toward_core,
                               _finish_gallai_block, pick_color)
from wdcolor.reductions import (KIND_L1A, KIND_L1B, KIND_L2, KIND_L3, KIND_L4,
                                KIND_L5, KIND_L6, KIND_L7, KIND_L8, KIND_L9,
                                KIND_L10, PALETTE, Configuration, LiftError,
                                ReductionError, ReductionStep, _cycle_of,
                                _dependency_instance, _satisfy_through,
                                reduce_in_place, unwind)
from wdcolor.reductions import _cycle_hubs as _hubs_at_positions

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


def k_colorable_recursive(g: Graph, k: int) -> Coloring | None:
    """The DSATUR search of ``wdcolor.exact`` as first written: recursive,
    with an O(n) scan for the branching vertex.  Branching vertex: most
    distinct neighbor colors, then highest degree, then smallest id; a
    vertex may open at most one new color.  Recursion depth is n."""
    verts = list(g.vertices())
    color: dict[int, int] = {}
    nbr_colors: dict[int, set[int]] = {v: set() for v in verts}

    def pick() -> int | None:
        best, key = None, None
        for v in verts:
            if v in color:
                continue
            cand = (len(nbr_colors[v]), g.degree(v), -v)
            if key is None or cand > key:
                best, key = v, cand
        return best

    def rec(maxused: int) -> bool:
        v = pick()
        if v is None:
            return True
        for col in range(1, min(k, maxused + 1) + 1):
            if col in nbr_colors[v]:
                continue
            color[v] = col
            touched = [u for u in g.neighbors(v) if col not in nbr_colors[u]]
            for u in touched:
                nbr_colors[u].add(col)
            if all(len(nbr_colors[u]) < k or u in color
                   for u in g.neighbors(v)) and rec(max(maxused, col)):
                return True
            for u in touched:
                nbr_colors[u].discard(col)
            del color[v]
        return False

    return dict(color) if rec(0) else None


def wd_feasible_recursive(g: Graph, k: int, ncolors: int) -> Coloring | None:
    """The weak-dynamic search of ``wdcolor.exact`` as first written:
    recursive, to depth n.  A k-weak-dynamic coloring with colors
    1..ncolors, or None.

    Branch order: descending degree, ties by vertex id (fixed up front).
    Symmetry breaking: a vertex may use at most one color beyond the maximum
    used so far along the branch order. Pruning: a vertex whose remaining
    color deficit exceeds its uncolored-neighbor count can never be satisfied.
    """
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    nbrs = [[idx[u] for u in g.neighbors(v)] for v in order]
    need = [min(g.degree(v), k) for v in order]

    color = [0] * n                      # 1-based colors, 0 = unassigned
    seen = [0] * n                       # bitmask of neighbor colors
    uncol = [len(nbrs[i]) for i in range(n)]

    def deficit(i: int) -> int:
        return need[i] - bin(seen[i]).count("1")

    def assign(i: int, col: int) -> bool:
        """Set color of vertex i, updating neighbor state; False on prune."""
        color[i] = col
        bit = 1 << col
        ok = True
        for j in nbrs[i]:
            seen[j] |= bit
            uncol[j] -= 1
            if deficit(j) > uncol[j]:
                ok = False
        return ok

    def unassign(i: int) -> None:
        col = color[i]
        color[i] = 0
        for j in nbrs[i]:
            uncol[j] += 1
            # recompute the seen bit: another neighbor may share the color
            if not any(color[h] == col for h in nbrs[j]):
                seen[j] &= ~(1 << col)

    def rec(i: int, maxused: int) -> bool:
        if i == n:
            return True
        top = min(ncolors, maxused + 1)
        for col in range(1, top + 1):
            if assign(i, col):
                if rec(i + 1, max(maxused, col)):
                    return True
            unassign(i)
        return False

    if any(deficit(i) > uncol[i] for i in range(n)):
        return None
    if rec(0, 0):
        return {order[i]: color[i] for i in range(n)}
    return None


def wd_number_recursive(g: Graph, k: int,
                        max_colors: int) -> tuple[int | None, Coloring | None]:
    """``wdcolor.exact.wd_number_exact`` over :func:`wd_feasible_recursive`:
    the smallest palette size from the degree bound up, with its witness."""
    if g.n == 0:
        return 0, {}
    lb = max(1, max(min(g.degree(v), k) for v in g.vertices()))
    for c in range(lb, max_colors + 1):
        witness = wd_feasible_recursive(g, k, c)
        if witness is not None:
            return c, witness
    return None, None


def canonical_colorings_recursive(
        g: Graph, k: int = 3,
        palette: tuple[int, ...] = (1, 2, 3, 4, 5, 6)):
    """The canonical enumeration of ``wdcolor.reductions`` as first
    written: recursive, to depth n.  All valid k-weak-dynamic colorings of
    g over the palette, one per palette-permutation class (colors appear in
    first-use order over ascending vertex ids)."""
    vs = sorted(g.vertices())
    n = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    assignment: Coloring = {}

    def feasible(u: int, i: int) -> bool:
        need = min(g.degree(u), k)
        seen = set()
        future = 0
        for w in g.neighbors(u):
            if pos[w] <= i:
                seen.add(assignment[w])
            else:
                future += 1
        return len(seen) + future >= need

    def rec(i: int, used: int):
        if i == n:
            yield dict(assignment)
            return
        v = vs[i]
        for ci in range(min(used + 1, len(palette))):
            assignment[v] = palette[ci]
            if all(feasible(u, i) for u in sorted(g.neighbors(v))):
                yield from rec(i + 1, max(used, ci + 1))
        del assignment[v]

    yield from rec(0, 0)


def list_color_recursive(g: Graph,
                         lists: dict[int, set[int]]) -> Coloring | None:
    """The list-coloring search of ``wdcolor.exact`` as first written:
    recursive, to depth n, choosing the most constrained vertex first (an
    O(n) scan per node).  A proper coloring with c(v) in lists[v], or
    None."""
    avail = {v: set(lists[v]) for v in g.vertices()}
    color: Coloring = {}

    def rec() -> bool:
        if len(color) == g.n:
            return True
        v = min((u for u in g.vertices() if u not in color),
                key=lambda u: (len(avail[u]), u))
        for col in sorted(avail[v]):
            color[v] = col
            removed = []
            dead = False
            for u in g.neighbors(v):
                if u not in color and col in avail[u]:
                    avail[u].discard(col)
                    removed.append(u)
                    if not avail[u]:
                        dead = True
            if not dead and rec():
                return True
            for u in removed:
                avail[u].add(col)
            del color[v]
        return False

    return dict(color) if rec() else None


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


# ---------------------------------------------------------------------------
# vertex classification, by trying every witness subset
# ---------------------------------------------------------------------------


def _has_two_high_neighbors(g: Graph, u: int) -> bool:
    return sum(1 for x in g.neighbors(u) if g.degree(x) >= 4) >= 2


def _qualifies_a3star(g: Graph, v: int) -> bool:
    if g.degree(v) != 3:
        return False
    nbrs = sorted(g.neighbors(v))
    for u3 in nbrs:
        if any(g.degree(x) != 3 for x in g.neighbors(u3)):
            continue
        u1, u2 = (x for x in nbrs if x != u3)
        if (g.degree(u1) == 3 and g.degree(u2) == 3
                and _has_two_high_neighbors(g, u1)
                and _has_two_high_neighbors(g, u2)):
            return True
    return False


def witness_set_by_enumeration(g: Graph, w: int,
                               a3star) -> tuple[int, ...]:
    """The best ``min(d(w), 3)``-subset of ``N(w)`` by trying every one,
    keyed by (``a3star`` hits, minus induced edges, sorted tuple)."""
    nbrs = sorted(g.neighbors(w))
    best = None
    for sub in itertools.combinations(nbrs, min(len(nbrs), 3)):
        hits = sum(1 for x in sub if x in a3star)
        span = sum(1 for x, y in itertools.combinations(sub, 2)
                   if g.has_edge(x, y))
        key = (hits, -span, sub)
        if best is None or key < best:
            best = key
    return best[2]


def classify_by_enumeration(g: Graph):
    """``wdcolor.pipeline.classify`` as first written, as the triple
    ``(A4, A3star, Nstar)``: every labeling of each degree-3 vertex's
    neighbors is tried for ``A3star``, and every subset for each witness
    set."""
    a4 = frozenset(v for v in g.vertices() if g.degree(v) >= 4)
    a3star = frozenset(v for v in g.vertices() if _qualifies_a3star(g, v))
    nstar = {w: frozenset(witness_set_by_enumeration(g, w, a3star))
             for w in g.vertices()}
    return a4, a3star, nstar


# ---------------------------------------------------------------------------
# reducible configurations, checked case by case
# ---------------------------------------------------------------------------


def _only(s):
    (x,) = s
    return x


def _l3_sides(g, mid, other):
    """Split N(mid) - {other} into (one 4+ vertex, one 3-vertex), or None."""
    rest = g.neighbors(mid) - {other}
    if len(rest) != 2:
        return None
    fours = [u for u in rest if g.degree(u) >= 4]
    threes = [u for u in rest if g.degree(u) == 3]
    if len(fours) != 1 or len(threes) != 1:
        return None
    return fours[0], threes[0]


def _valid_cycle(g, cycle) -> bool:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    for v in cycle:
        if not g.has_vertex(v) or g.degree(v) != 3:
            return False
    for i in range(k):
        if not g.has_edge(cycle[i], cycle[(i + 1) % k]):
            return False
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if g.has_edge(cycle[i], cycle[j]):
                return False
    return True


def _cycle_hubs(g, cycle):
    k = len(cycle)
    hubs = []
    for i, v in enumerate(cycle):
        rest = g.neighbors(v) - {cycle[i - 1], cycle[(i + 1) % k]}
        if len(rest) != 1:
            return None
        hubs.append(_only(rest))
    return hubs


def _conf_cycle(r) -> list[int]:
    out = []
    i = 1
    while f"v{i}" in r:
        out.append(r[f"v{i}"])
        i += 1
    return out


def validate_configuration_by_cases(g, conf) -> bool:
    """``wdcolor.reductions.validate_configuration`` as first written: one
    hand-written check of each kind's defining conditions on the roles,
    which accepts any naming of the pattern that meets them.  ``g`` is a
    ``Graph`` or an ``EditableGraph``."""
    r = conf.roles()
    try:
        if any(not g.has_vertex(v) for v in conf.vertices()):
            return False
        if conf.kind == KIND_L1A:
            return (g.degree(r["v1"]) == 1
                    and g.neighbors(r["v1"]) == frozenset({r["u1"]}))
        if conf.kind == KIND_L1B:
            return (g.degree(r["v1"]) == 2 and g.degree(r["v2"]) <= 3
                    and g.neighbors(r["v1"]) == frozenset({r["v2"], r["u1"]}))
        if conf.kind == KIND_L2:
            return (g.has_edge(r["v1"], r["v2"]) and g.degree(r["v1"]) >= 4
                    and g.degree(r["v2"]) >= 4)
        if conf.kind == KIND_L3:
            six = [r[f"v{i}"] for i in range(1, 7)]
            if len(set(six)) != 6 or not g.has_edge(r["v2"], r["v3"]):
                return False
            return (_l3_sides(g, r["v2"], r["v3"]) == (r["v1"], r["v5"])
                    and _l3_sides(g, r["v3"], r["v2"]) == (r["v4"], r["v6"]))
        if conf.kind == KIND_L4:
            if not g.has_edge(r["v1"], r["v3"]):
                return False
            if g.degree(r["v1"]) != 3 or g.degree(r["v3"]) != 3:
                return False
            rest = frozenset({r["v2"], r["v4"]})
            return (g.neighbors(r["v1"]) - {r["v3"]} == rest
                    and g.neighbors(r["v3"]) - {r["v1"]} == rest)
        if conf.kind == KIND_L5:
            tri = [r["v1"], r["v2"], r["v3"]]
            hubs = [r["w1"], r["w2"], r["w3"]]
            if len(set(tri + hubs)) != 6:
                return False
            for a, b in itertools.combinations(tri, 2):
                if not g.has_edge(a, b):
                    return False
            for v, w in zip(tri, hubs):
                if g.degree(v) != 3 or g.degree(w) < 3:
                    return False
                if g.neighbors(v) - set(tri) != frozenset({w}):
                    return False
            return True
        if conf.kind == KIND_L6:
            v1, v2, v3, v4 = r["v1"], r["v2"], r["v3"], r["v4"]
            if g.degree(v1) < 4 or g.degree(v3) != 3:
                return False
            if g.degree(v2) != 3 or g.degree(v4) != 3:
                return False
            if g.neighbors(v3) != frozenset({v1, v2, v4}):
                return False
            if not (g.has_edge(v1, v2) and g.has_edge(v1, v4)):
                return False
            if g.has_edge(v2, v4):
                return False
            return (g.neighbors(v2) - {v1, v3} == frozenset({r["v5"]})
                    and g.neighbors(v4) - {v1, v3} == frozenset({r["v6"]})
                    and g.degree(r["v5"]) >= 3 and g.degree(r["v6"]) >= 3)
        if conf.kind in (KIND_L7, KIND_L8):
            v1, v2, v3 = r["v1"], r["v2"], r["v3"]
            v4, v5 = r["v4"], r["v5"]
            if conf.kind == KIND_L7 and g.degree(v3) != 4:
                return False
            if conf.kind == KIND_L8 and g.degree(v3) < 5:
                return False
            if g.degree(v1) != 3 or g.degree(v2) != 3:
                return False
            if not (g.has_edge(v1, v2) and g.has_edge(v1, v3)
                    and g.has_edge(v2, v3)):
                return False
            if v4 == v5 or g.degree(v4) != 3 or g.degree(v5) != 3:
                return False
            if g.neighbors(v1) - {v2, v3} != frozenset({v4}):
                return False
            if g.neighbors(v2) - {v1, v3} != frozenset({v5}):
                return False
            if conf.kind == KIND_L7:
                pair = frozenset({r["v6"], r["v7"]})
                if g.neighbors(v3) - {v1, v2} != pair:
                    return False
                if any(g.degree(x) > 3 for x in pair):
                    return False
            return True
        if conf.kind == KIND_L9:
            cycle = _conf_cycle(r)
            if not _valid_cycle(g, cycle):
                return False
            hubs = _cycle_hubs(g, cycle)
            if hubs is None or any(g.degree(h) < 3 for h in hubs):
                return False
            k = len(cycle)
            if any(hubs[i] == hubs[(i + 1) % k] for i in range(k)):
                return False
            free = [i for i in range(k) if g.degree(hubs[i]) == 3]
            if k % 2 == 0:
                return (any(i % 2 == 0 for i in free)
                        and any(i % 2 == 1 for i in free))
            return bool(free)
        if conf.kind == KIND_L10:
            cycle = _conf_cycle(r)
            if not _valid_cycle(g, cycle):
                return False
            hubs = _cycle_hubs(g, cycle)
            if hubs is None:
                return False
            k = len(cycle)
            if k % 2 or any(g.degree(hubs[i]) < 4 for i in range(0, k, 2)):
                return False
            if any(g.degree(hubs[i]) != 3 for i in range(1, k, 2)):
                return False
            mult: dict[int, int] = {}
            for h in hubs[1::2]:
                mult[h] = mult.get(h, 0) + 1
            if any(c > 2 or (c == 2 and k != 4) for c in mult.values()):
                return False
            w1, w3 = hubs[0], hubs[2]
            if (w1, w3) != (r["w1"], r["w3"]):
                return False
            return w1 == w3 or not g.has_edge(w1, w3)
        return False
    except (KeyError, ValueError):
        return False


# ---------------------------------------------------------------------------
# matchers at an anchor, as first written: by sorting, and at every pair
# ---------------------------------------------------------------------------


def match_l2_by_sorting(adj, u: int):
    """At ``u``, the edge to its smallest higher 4+ neighbor; so the
    smallest anchor gives the lexicographically first 4+/4+ edge.  The
    neighbors are sorted at C speed and walked only up to that one, which
    at a hub is soon."""
    for w in sorted(adj[u]):
        if w > u and len(adj[w]) >= 4:
            return [("v1", u), ("v2", w)]
    return None


def deg3_partners_by_sorting(adj, a: int) -> list[int]:
    """The 3-vertices b > a next to a 3-vertex ``a``, ascending: anchored
    at their smaller end, 3-3 edges come in lexicographic order."""
    return sorted(b for b in adj[a] if b > a and len(adj[b]) == 3)


def match_l6_at_every_neighbor(adj, v3: int):
    for v1 in sorted(adj[v3]):
        if len(adj[v1]) < 4:
            continue
        v2, v4 = sorted(adj[v3] - {v1})
        if len(adj[v2]) != 3 or len(adj[v4]) != 3:
            continue
        if not (v2 in adj[v1] and v4 in adj[v1]):
            continue
        if v4 in adj[v2]:
            continue
        v5 = _only(adj[v2] - {v1, v3})
        v6 = _only(adj[v4] - {v1, v3})
        if len(adj[v5]) < 3 or len(adj[v6]) < 3:
            continue
        return [("v1", v1), ("v2", v2), ("v3", v3), ("v4", v4), ("v5", v5),
                ("v6", v6)]
    return None


def match_apex_triangle_at_every_pair(adj, v3: int):
    """A triangle of two 3-vertices on the apex ``v3``, each with one more
    3-vertex neighbor; with a degree-4 apex both of its other neighbors
    must have degree at most three."""
    for v1, v2 in itertools.combinations(sorted(adj[v3]), 2):
        if v2 not in adj[v1]:
            continue
        if len(adj[v1]) != 3 or len(adj[v2]) != 3:
            continue
        v4 = _only(adj[v1] - {v2, v3})
        v5 = _only(adj[v2] - {v1, v3})
        if v4 == v5:
            continue
        if len(adj[v4]) != 3 or len(adj[v5]) != 3:
            continue
        roles = [("v1", v1), ("v2", v2), ("v3", v3), ("v4", v4), ("v5", v5)]
        if len(adj[v3]) == 4:
            v6, v7 = sorted(adj[v3] - {v1, v2})
            if len(adj[v6]) > 3 or len(adj[v7]) > 3:
                continue
            roles += [("v6", v6), ("v7", v7)]
        return roles
    return None


# ---------------------------------------------------------------------------
# list coloring and dependency instances on Graph copies, as first written
# ---------------------------------------------------------------------------


def check_result_on_graph(g: Graph, lists: Lists, c: Coloring) -> None:
    for v in g.vertices():
        assert v in c and c[v] in lists[v], f"vertex {v} colored outside its list"
    for u, v in g.edges():
        assert c[u] != c[v], f"edge {u}-{v} monochromatic"


def color_outside_on_graph(g: Graph, lists: Lists, core: Iterable[int],
                           color_order: ColorOrder) -> Coloring:
    """Color every vertex outside ``core`` by decreasing BFS distance from
    it: each keeps an uncolored neighbor (its BFS parent) until colored, so
    a list covering the degree always leaves a free color."""
    dist = g.bfs_distances(core)
    if len(dist) != g.n:
        raise ValueError("graph is not connected")
    out: Coloring = {}
    for v in sorted((v for v in g.vertices() if dist[v] > 0),
                    key=lambda v: (-dist[v], v)):
        avail = lists[v] - {out[u] for u in g.neighbors(v) if u in out}
        out[v] = pick_color(avail, color_order)
    return out


def greedy_with_slack_on_graph(g: Graph, lists: Lists, slack: int,
                               color_order: ColorOrder = None) -> Coloring:
    """Proper list coloring of a connected graph where every list covers the
    degree and the slack vertex has a strictly larger list.

    Everything else is colored toward the slack vertex; colored last, it
    survives on its extra list entry.
    """
    for v in g.vertices():
        if len(lists[v]) < g.degree(v):
            raise ValueError(f"list at {v} smaller than its degree")
    if len(lists[slack]) <= g.degree(slack):
        raise ValueError("slack vertex has no slack")
    out = color_outside_on_graph(g, lists, [slack], color_order)
    out[slack] = pick_color(lists[slack] - {out[u] for u in g.neighbors(slack)},
                            color_order)
    check_result_on_graph(g, lists, out)
    return out


def degree_choose_on_graph(g: Graph, lists: Lists, color_order: ColorOrder
                           ) -> tuple[Coloring | None, tuple[frozenset[int], ...]]:
    """``degree_choose``, and the blocks of ``g`` when it computed them
    (always when it refuses), else ()."""
    if not g.is_connected():
        raise ValueError("degree_choose needs a connected graph")
    if g.n == 0:
        return {}, ()
    for v in g.vertices():
        if v not in lists or len(lists[v]) < g.degree(v):
            raise ValueError(f"list at {v} missing or smaller than degree")
    slack = next((v for v in g.vertices()
                  if len(lists[v]) > g.degree(v)), None)
    if slack is not None:
        return greedy_with_slack_on_graph(g, lists, slack, color_order), ()
    bs = blocks(g)
    core = next((b for b in bs if block_kind(g, b) == "other"), None)
    if core is None:
        return None, bs  # Gallai tree: refuse
    return _color_toward_core(g, lists, core, _color_block, color_order), bs


def color_component_on_graph(g: Graph, lists: Lists,
                             color_order: ColorOrder) -> Coloring | None:
    """One connected dependency-graph component: degree_choose, then each
    block in turn as the core, finished by the propositions; the blocks
    are those that degree_choose computed when it refused."""
    out, bs = degree_choose_on_graph(g, lists, color_order)
    if out is not None:
        return out
    for core in bs:
        out = _color_toward_core(g, lists, core, _finish_gallai_block,
                                 color_order)
        if out is not None:
            return out
    return None


def color_dependency_graph_on_copies(
        d: Graph, lists: Lists,
        perturbation_hook: Callable[[frozenset[int]], Lists | None] | None = None,
        color_order: ColorOrder = None) -> Coloring:
    """Proper list coloring of a dependency graph whose lists cover degrees.

    Components are handled independently: slack and non-Gallai components
    constructively, Gallai-tight components via the propositions. A component
    where every list pattern is blocked triggers the perturbation hook, which
    recolors something in the host graph and returns a full fresh list
    assignment (or None when out of options); the solve then restarts, since
    a perturbation may move other components' lists too. Hard failure raises
    DependencyColoringError — never a silent bad coloring.
    """
    lists_now = {v: set(lists[v]) for v in d.vertices()}
    for v in d.vertices():
        if len(lists_now[v]) < d.degree(v):
            raise ValueError(f"list at {v} smaller than its dependency degree")
    for _ in range(64):
        out: Coloring = {}
        stuck: frozenset[int] | None = None
        for comp in sorted(d.connected_components(), key=min):
            sub = d.induced_subgraph(comp)
            part = color_component_on_graph(
                sub, {v: lists_now[v] for v in comp}, color_order)
            if part is None:
                stuck = comp
                break
            out.update(part)
        if stuck is None:
            check_result_on_graph(d, lists_now, out)
            return out
        if perturbation_hook is None:
            raise DependencyColoringError(
                f"component {sorted(stuck)} is blocked and no hook was given")
        fresh = perturbation_hook(stuck)
        if fresh is None:
            raise DependencyColoringError(
                f"perturbation exhausted on component {sorted(stuck)}")
        lists_now = {v: set(fresh[v]) for v in d.vertices()}
        for v in d.vertices():
            if len(lists_now[v]) < d.degree(v):
                raise DependencyColoringError(
                    "perturbed lists no longer cover dependency degrees")
    raise DependencyColoringError("perturbation loop exceeded its cap")


def dependency_instance_by_probes(g: Graph, coloring: Coloring,
                                  group: frozenset[int],
                                  order: tuple[int, ...]) -> tuple[Graph, Lists]:
    """Dependency graph and allowed-color lists for recoloring ``group``.

    Every member must have degree three and end up seeing three distinct
    neighbor colors; outside vertices touching the group must keep enough
    sight.  Two members two apart around a common member must differ
    (dependency edge); a member next to a colored vertex through a common
    member must avoid that color (list restriction).  Outsiders touching
    the group in one, two, or three-plus places get, respectively, an
    avoid-set, a designated color plus a distinctness edge, or a triangle
    of distinctness edges among three touching members.
    """
    dep_edges: set[tuple[int, int]] = set()
    restrict: dict[int, set[int]] = {s: set() for s in group}
    for s in sorted(group):
        if g.degree(s) != 3:
            raise LiftError(f"group member {s} does not have degree 3",
                            stage="dependency-instance")
        for x, y in itertools.combinations(sorted(g.neighbors(s)), 2):
            xin, yin = x in group, y in group
            if xin and yin:
                dep_edges.add((min(x, y), max(x, y)))
            elif xin:
                cy = coloring.get(y)
                if cy is None:
                    raise LiftError(f"uncolored outside vertex {y} next to"
                                    f" {s}", stage="dependency-instance")
                restrict[x].add(cy)
            elif yin:
                cx = coloring.get(x)
                if cx is None:
                    raise LiftError(f"uncolored outside vertex {x} next to"
                                    f" {s}", stage="dependency-instance")
                restrict[y].add(cx)
            else:
                if coloring.get(x) == coloring.get(y):
                    raise LiftError(
                        f"outside neighbors {x},{y} of {s} share a color,"
                        f" so {s} cannot see three", stage="dependency-instance")
    outsiders = sorted({z for s in group for z in g.neighbors(s)} - group)
    for z in outsiders:
        touching = sorted(set(g.neighbors(z)) & group)
        t = len(touching)
        if t >= 3:
            for a, b in itertools.combinations(touching[:3], 2):
                dep_edges.add((a, b))
            continue
        f = _satisfy_through(g, coloring, z, pending=group, incoming=t,
                             color_order=order)
        for s in touching:
            restrict[s] |= f
        if t == 2:
            dep_edges.add((touching[0], touching[1]))
    dep = Graph.from_edges(sorted(dep_edges), vertices=sorted(group))
    lists: Lists = {s: set(PALETTE) - restrict[s] for s in group}
    for s in sorted(group):
        if len(lists[s]) < max(1, dep.degree(s)):
            raise LiftError(
                f"allowed colors {sorted(lists[s])} at {s} fall below its"
                f" dependency degree {dep.degree(s)}",
                stage="dependency-instance")
    return dep, lists


def free_hub_hook_by_probes(g: Graph, coloring: Coloring,
                            cycle: tuple[int, ...], order: tuple[int, ...],
                            recolor_log: list[tuple[int, int, int]]):
    """The free-hub perturbation hook as first written, in two passes: one
    gathers the hubs next to the stuck positions that pass the degree gate,
    the next tries to recolor each, with its avoid-set spelled out."""
    k = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    cset = frozenset(cycle)
    hubs: list[int] = []  # filled on the first call, which most lifts skip
    attempted: set[tuple[int, int]] = set()

    def hook(stuck: frozenset[int]) -> Lists | None:
        if not hubs:
            hubs.extend(_hubs_at_positions(g.adjacency(), cycle))
        stuck_pos = sorted(pos[v] for v in stuck if v in pos)
        target_pos = sorted({(p + d) % k for p in stuck_pos for d in (-1, 1)})
        cands: list[tuple[int, int]] = []
        seen: set[int] = set()
        for p in target_pos:
            h = hubs[p]
            if h in seen:
                continue
            seen.add(h)
            if g.degree(h) == 3 and len(set(g.neighbors(h)) - cset) == 2:
                cands.append((p, h))
        for _, h in cands:
            outside = sorted(set(g.neighbors(h)) - cset)
            avoid = {coloring[h]}
            for x in outside:
                avoid |= _satisfy_through(g, coloring, x,
                                          pending=cset | {h},
                                          color_order=order)
            for gamma in order:
                if gamma in avoid or (h, gamma) in attempted:
                    continue
                attempted.add((h, gamma))
                old = coloring[h]
                coloring[h] = gamma
                try:
                    _, lists = _dependency_instance(g, coloring, cset, order)
                except LiftError:
                    coloring[h] = old
                    continue
                recolor_log.append((h, old, gamma))
                return lists
        return None

    return hook


# ---------------------------------------------------------------------------
# planarity certificates, on networkx graphs
# ---------------------------------------------------------------------------


def to_networkx(g: Graph):
    """A fresh ``networkx.Graph`` with the vertices and edges of ``g``,
    each added in ascending order."""
    import networkx as nx
    G = nx.Graph()
    G.add_nodes_from(g.vertices())
    G.add_edges_from(g.edges())
    return G


def _nx_planar(G) -> bool:
    """The verdict of the package's LR test on a networkx adjacency (that
    test is checked against networkx's own in ``test_lr``)."""
    from wdcolor.lr import lr_planarity
    return lr_planarity(G.adj, embed=False) is not None


def _nx_contracted(G, pairs):
    import networkx as nx
    rep = {b: a for a, b in pairs}
    H = nx.Graph()
    H.add_nodes_from(v for v in G if v not in rep)
    H.add_edges_from((rep.get(u, u), rep.get(v, v)) for u, v in G.edges()
                     if rep.get(u, u) != rep.get(v, v))
    return H


def kuratowski_model_nx(g: Graph) -> tuple[str, tuple[frozenset[int], ...]]:
    """The minor search of ``wdcolor.planarity`` as first written: on
    networkx copies, one rebuilt per contraction, with networkx's
    biconnected split and edits.  Same contraction rounds, passes and
    branch-set reading, so it must give the same model."""
    import networkx as nx
    G = to_networkx(g)
    blocks = sorted(sorted(c) for c in nx.biconnected_components(G)
                    if len(c) >= 5)
    G = G.subgraph(next((c for c in blocks[:-1]
                         if not _nx_planar(G.subgraph(c))),
                        blocks[-1])).copy()
    merged = {v: [v] for v in G}
    failed: set[tuple[int, int]] = set()
    while len(G) > 12:
        free, pairs = set(G), []
        for v in sorted(G):
            if v in free:
                u = min((u for u in G[v] if u > v and u in free
                         and (v, u) not in failed), default=None)
                if u is not None:
                    free.remove(u)
                    pairs.append((v, u))
        if not pairs:
            break
        while pairs:
            lo, hi, keep = 0, len(pairs) + 1, G
            mid = len(pairs)
            while hi - lo > 1:
                H = _nx_contracted(G, pairs[:mid])
                if _nx_planar(H):
                    hi = mid
                else:
                    lo, keep = mid, H
                mid = (lo + hi) // 2
            for a, b in pairs[:lo]:
                merged[a] += merged.pop(b)
            failed.update(pairs[lo:hi])
            G, pairs = keep, pairs[hi:]
    for v in sorted(G):
        nbrs = list(G[v])
        G.remove_node(v)
        if _nx_planar(G):
            G.add_edges_from((v, u) for u in nbrs)
    for u, v in sorted((min(e), max(e)) for e in G.edges()):
        G.remove_edge(u, v)
        if _nx_planar(G):
            G.add_edge(u, v)
    branch = sorted(v for v in G if len(G[v]) >= 3)
    sets = {b: {b} for b in branch}
    right: list[int] = []
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

    def expand(b: int) -> frozenset[int]:
        return frozenset(x for r in sets[b] for x in merged[r])

    if len(branch) == 5:
        return "K5", tuple(map(expand, branch))
    right.sort()
    left = [b for b in branch if b not in right]
    return "K33", tuple(map(expand, left + right))


def anchor_graph_from_edges(g: Graph, kept) -> Graph:
    """The anchor graph from ``g``'s edges: every edge between anchors
    (``kept``), plus a clique on each non-anchor's anchor neighbors."""
    edges = {(x, y) for x, y in g.edges() if x in kept and y in kept}
    for v in g.vertices():
        if v not in kept:
            edges.update(itertools.combinations(
                sorted(g.neighbors(v) & kept), 2))
    return Graph.from_edges(sorted(edges), vertices=sorted(kept))


# ---------------------------------------------------------------------------
# the lift checks, counting in full
# ---------------------------------------------------------------------------


def weak_dynamic_violations_full(adj, c: Coloring, k: int, vs):
    """``(vertex, seen, required)`` of every vertex of ``vs`` that sees
    fewer than ``min(d(v), k)`` colors, ascending; each vertex's colors
    are counted over all its neighbors."""
    out = []
    for v in sorted(vs):
        need = min(len(adj[v]), k)
        if need:
            got = len({c[u] for u in adj[v]})
            if got < need:
                out.append((v, got, need))
    return out


def satisfy_through_full(g: Graph, coloring: Coloring, target: int, pending,
                         incoming: int = 1, *, color_order) -> set[int]:
    """The colors that fresh assignments next to ``target`` must avoid,
    from the full set of its fixed neighbor colors: none once they reach
    ``min(d, 3)``; else as many as are still needed, besides the
    ``incoming`` fresh ones, the earliest under ``color_order`` first."""
    m = min(g.degree(target), 3)
    fixed = {coloring[u] for u in g.neighbors(target)
             if u not in pending and u in coloring}
    if len(fixed) >= m:
        return set()
    need = m - incoming
    if need <= 0:
        return set()
    if len(fixed) <= need:
        return set(fixed)
    return set(sorted(fixed, key=color_order.index)[:need])


# ---------------------------------------------------------------------------
# the reduction edit, kind by kind
# ---------------------------------------------------------------------------


def reduce_in_place_by_cases(g: EditableGraph,
                             conf: Configuration) -> ReductionStep:
    """``wdcolor.reductions._reduce_in_place`` as first written: one
    branch per kind, where the package now reads the kind's row."""
    r = conf.roles()
    removed_v: tuple[int, ...] = ()
    contracted = identified = None
    fresh = None
    adj = g.adjacency()
    local = tuple((v, adj[v]) for v in sorted({v for _, v in conf.matched}))
    m = g.m
    g.checkpoint()
    if conf.kind == KIND_L1A:
        removed_v = (r["v1"],)
    elif conf.kind in (KIND_L1B, KIND_L2):
        g.delete_edge(r["v1"], r["v2"])
    elif conf.kind == KIND_L3:
        removed_v = tuple(sorted((r["v2"], r["v3"])))
    elif conf.kind == KIND_L4:
        contracted = (r["v1"], r["v3"])
        fresh = g.contract_edge(r["v1"], r["v3"])
    elif conf.kind == KIND_L5:
        removed_v = tuple(sorted((r["v1"], r["v2"], r["v3"])))
    elif conf.kind == KIND_L6:
        removed_v = (r["v3"],)
    elif conf.kind == KIND_L7:
        contracted = (r["v1"], r["v2"])
        fresh = g.contract_edge(r["v1"], r["v2"])
    elif conf.kind == KIND_L8:
        removed_v = tuple(sorted((r["v1"], r["v2"])))
    elif conf.kind in (KIND_L9, KIND_L10):
        removed_v = tuple(sorted(_cycle_of(r)))
    else:
        g.undo()
        raise ReductionError(f"unknown kind {conf.kind}")
    if removed_v:
        g.delete_vertices(removed_v)
    if conf.kind == KIND_L10 and r["w1"] != r["w3"]:
        identified = (r["w1"], r["w3"])
        fresh = g.identify_vertices(r["w1"], r["w3"])
    if g.m >= m:
        g.undo()
        raise ReductionError(
            f"{conf.kind} reduction failed to decrease the edge count")
    return ReductionStep(conf.kind, conf.matched, removed_v, contracted,
                         identified, fresh, local)


# ---------------------------------------------------------------------------
# the package's reduction, as snapshots
# ---------------------------------------------------------------------------


def reduce_fully(g: Graph) -> tuple[Graph, list[tuple[Graph, ReductionStep]]]:
    """Apply reductions until none matches.  Returns the reduction-free
    core and the stack of (graph-before-step, step) pairs, applied order.

    The steps are those of ``reduce_in_place``; each graph is a snapshot
    taken as ``unwind`` restores it."""
    e = EditableGraph(g)
    steps = reduce_in_place(e)
    core = e.snapshot()
    stack = [(e.snapshot(), step) for step in unwind(e, steps)]
    stack.reverse()
    return core, stack
