"""Constructive list coloring.

The routines here are the constructive engine behind the reduction lifts and
the planar pipeline. One loop colors a graph toward a core (every vertex by
decreasing BFS distance from it) and then finishes the core: a single slack
vertex gives the greedy coloring, a block that is neither complete nor an odd
cycle gives degree-choosability (one vertex or pair precolored, then greedy),
and complete or odd-cycle blocks use the two classical propositions. The
dependency-graph orchestrator adds the perturbation protocol.

The greedy runs on an adjacency mapping and the set of vertices it colors,
which must hold every neighbor of its members: a component of a dependency
graph is colored on that graph's own adjacency, with no copy. A ``Graph``
of a component is built only on the tight path, where no vertex has slack
and the blocks are needed.

Every public routine verifies its output (proper, within lists) before
returning; an invalid state raises instead of degrading.

Color preference: unless a ``color_order`` is supplied, "smallest color"
means numerically smallest. Lifts pass an order derived from the base
coloring so that the whole construction commutes with palette permutations.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .graphs import Graph, block_kind, blocks, rings
from .verify import Coloring

Lists = dict[int, set[int]]
ColorOrder = Sequence[int] | None
Adjacency = Mapping[int, frozenset[int]]


class DependencyColoringError(Exception):
    """The dependency-graph solver ran out of options (hook exhausted)."""


def pick_color(candidates: Iterable[int], order: ColorOrder = None) -> int:
    """Smallest candidate color under the preference order: the candidate
    that ``order`` lists first, else the numerically smallest."""
    cands = list(candidates)
    if not cands:
        raise ValueError("no color available")
    if order is not None:
        for c in order:
            if c in cands:
                return c
    return min(cands)


def _check_result(adj: Adjacency, vs: Collection[int], lists: Lists,
                  c: Coloring) -> None:
    """Every vertex of ``vs`` colored from its list, and no edge of the
    graph that ``adj`` induces on ``vs`` monochromatic."""
    for v in vs:
        if v not in c or c[v] not in lists[v]:
            raise AssertionError(f"vertex {v} colored outside its list")
    for v in vs:
        for u in adj[v]:
            if c[u] == c[v]:
                raise AssertionError(
                    f"edge {min(u, v)}-{max(u, v)} monochromatic")


# ---------------------------------------------------------------------------
# coloring toward a core: greedy off a slack vertex and its generalization
# ---------------------------------------------------------------------------


def _color_outside(adj: Adjacency, vs: Collection[int], lists: Lists,
                   core: Iterable[int], color_order: ColorOrder) -> Coloring:
    """Color every vertex of ``vs`` outside ``core`` by decreasing BFS
    distance from it: each keeps an uncolored neighbor (its BFS parent)
    until colored, so a list covering the degree always leaves a free
    color.  ``adj`` holds every neighbor of a vertex of ``vs`` in ``vs``;
    a BFS that does not reach all of ``vs`` raises."""
    layers = list(rings(adj, core))
    if sum(map(len, layers)) != len(vs):
        raise ValueError("graph is not connected")
    out: Coloring = {}
    for ring in reversed(layers[1:]):
        for v in sorted(ring):
            avail = lists[v] - {out[u] for u in adj[v] if u in out}
            out[v] = pick_color(avail, color_order)
    return out


def _greedy(adj: Adjacency, vs: Collection[int], lists: Lists, slack: int,
            color_order: ColorOrder) -> Coloring:
    """Color ``vs`` toward ``slack``, whose list is larger than its
    degree; colored last, it survives on its extra list entry."""
    out = _color_outside(adj, vs, lists, (slack,), color_order)
    out[slack] = pick_color(lists[slack] - {out[u] for u in adj[slack]},
                            color_order)
    return out


def greedy_with_slack(g: Graph, lists: Lists, slack: int,
                      color_order: ColorOrder = None) -> Coloring:
    """Proper list coloring of a connected graph where every list covers the
    degree and the slack vertex has a strictly larger list.

    Everything else is colored toward the slack vertex; colored last, it
    survives on its extra list entry.
    """
    adj = g.adjacency()
    for v, nbrs in adj.items():
        if len(lists[v]) < len(nbrs):
            raise ValueError(f"list at {v} smaller than its degree")
    if len(lists[slack]) <= len(adj[slack]):
        raise ValueError("slack vertex has no slack")
    out = _greedy(adj, adj.keys(), lists, slack, color_order)
    _check_result(adj, adj.keys(), lists, out)
    return out


def _color_toward_core(
        g: Graph, lists: Lists, core: frozenset[int],
        finish: Callable[[Graph, Lists, ColorOrder], Coloring | None],
        color_order: ColorOrder) -> Coloring | None:
    """Color a connected graph whose lists cover the degrees toward ``core``,
    then the core from what is left of its lists, which still cover the
    core's own degrees: greedily if a core vertex has slack, else by
    ``finish``. None only when ``finish`` refuses."""
    adj = g.adjacency()
    out = _color_outside(adj, adj.keys(), lists, core, color_order)
    sub = g.induced_subgraph(core)
    left = {v: lists[v] - {out[u] for u in adj[v] if u in out}
            for v in core}
    slack = next((v for v in sub.vertices() if len(left[v]) > sub.degree(v)),
                 None)
    part = (greedy_with_slack(sub, left, slack, color_order)
            if slack is not None else finish(sub, left, color_order))
    if part is None:
        return None
    out.update(part)
    _check_result(adj, adj.keys(), lists, out)
    return out


# ---------------------------------------------------------------------------
# complete graphs and odd cycles from lists
# ---------------------------------------------------------------------------


def color_complete_with_lists(vertices: Sequence[int], lists: Lists,
                              color_order: ColorOrder = None) -> Coloring:
    """List coloring of the complete graph on ``vertices`` (in the given
    order) where all lists have size n-1 and the first and last lists differ:
    the first vertex takes a color outside the last list, the middle vertices
    are colored greedily, and the last vertex always has a color left."""
    n = len(vertices)
    if len(set(vertices)) != n or n == 0:
        raise ValueError("vertex order must be non-empty and duplicate-free")
    for v in vertices:
        if len(lists[v]) != n - 1:
            raise ValueError(f"list at {v} must have size n-1 = {n - 1}")
    if n == 1:
        raise ValueError("K1 needs a list of size 0 — nothing to choose from")
    if set(lists[vertices[0]]) == set(lists[vertices[-1]]):
        raise ValueError("first and last lists must differ")
    out: Coloring = {}
    out[vertices[0]] = pick_color(lists[vertices[0]] - lists[vertices[-1]],
                                  color_order)
    for v in vertices[1:-1]:
        out[v] = pick_color(lists[v] - set(out.values()), color_order)
    last = vertices[-1]
    out[last] = pick_color(lists[last] - set(out.values()), color_order)
    if len(set(out.values())) != n:
        raise AssertionError("complete-graph coloring collided")
    return out


def color_odd_cycle_with_lists(cycle: Sequence[int], lists: Lists,
                               color_order: ColorOrder = None) -> Coloring:
    """List coloring of the odd cycle v1..vk (consecutive vertices adjacent,
    vk adjacent to v1) where all lists have size 2 and L(v1) != L(vk): v1
    takes a color outside L(vk) and a single forward sweep never gets stuck."""
    k = len(cycle)
    if k < 3 or k % 2 == 0 or len(set(cycle)) != k:
        raise ValueError("need an odd cycle on distinct vertices")
    for v in cycle:
        if len(lists[v]) != 2:
            raise ValueError(f"list at {v} must have size 2")
    if set(lists[cycle[0]]) == set(lists[cycle[-1]]):
        raise ValueError("first and last lists must differ")
    out: Coloring = {}
    out[cycle[0]] = pick_color(lists[cycle[0]] - lists[cycle[-1]], color_order)
    for i in range(1, k):
        avoid = {out[cycle[i - 1]]}
        if i == k - 1:
            avoid.add(out[cycle[0]])
        out[cycle[i]] = pick_color(lists[cycle[i]] - avoid, color_order)
    for i in range(k):
        if out[cycle[i]] == out[cycle[(i + 1) % k]]:
            raise AssertionError("odd-cycle coloring collided")
    return out


# ---------------------------------------------------------------------------
# degree_choose: a non-Gallai block with tight lists, then greedy
# ---------------------------------------------------------------------------


def _precolor_then_greedy(b: Graph, lists: Lists, pre: Coloring, slack: int,
                          color_order: ColorOrder) -> Coloring:
    """Fix ``pre`` and color the rest of ``b`` greedily off ``slack``, which
    must have lost more neighbors than colors to ``pre``."""
    rest = b.induced_subgraph(b.adjacency().keys() - pre)
    left = {v: lists[v] - {pre[u] for u in b.neighbors(v) if u in pre}
            for v in rest.vertices()}
    out = greedy_with_slack(rest, left, slack, color_order)
    out.update(pre)
    return out


def _color_block(b: Graph, lists: Lists, color_order: ColorOrder) -> Coloring:
    """Color a 2-connected graph, neither complete nor an odd cycle, whose
    lists have exactly its degrees as sizes.

    Adjacent x, y with different lists (Erdős–Rubin–Taylor): x takes a color
    y lacks, and y keeps its list with one neighbor fewer. All lists equal:
    the block is regular; a cycle (even) alternates two colors, otherwise
    some v has non-adjacent neighbors x, y whose removal keeps the block
    connected (Lovász), and x, y share a color that v then has to spare.
    """
    for x, y in b.edges():
        if lists[x] != lists[y]:
            if lists[x] <= lists[y]:
                x, y = y, x
            pre = {x: pick_color(lists[x] - lists[y], color_order)}
            return _precolor_then_greedy(b, lists, pre, y, color_order)
    first = b.vertices()[0]
    same = lists[first]
    if len(same) == 2:
        a = pick_color(same, color_order)
        pair = (a, pick_color(same - {a}, color_order))
        dist = b.bfs_distances([first])
        return {v: pair[dist[v] % 2] for v in b.vertices()}
    v, x, y = next((v, x, y) for v in b.vertices()
                   for x, y in combinations(sorted(b.neighbors(v)), 2)
                   if not b.has_edge(x, y)
                   and b.induced_subgraph(b.adjacency().keys() - {x, y})
                   .is_connected())
    c = pick_color(same, color_order)
    return _precolor_then_greedy(b, lists, {x: c, y: c}, v, color_order)


def degree_choose(g: Graph, lists: Lists,
                  color_order: ColorOrder = None) -> Coloring | None:
    """Proper list coloring of a connected graph with |L(v)| >= d(v):
    greedy if any vertex has slack; toward the first block that is neither
    complete nor an odd cycle if there is one; otherwise refuse (None) —
    the Gallai-tree case, where the caller must perturb lists."""
    adj = g.adjacency()
    for v, nbrs in adj.items():
        if v not in lists or len(lists[v]) < len(nbrs):
            raise ValueError(f"list at {v} missing or smaller than degree")
    out = _degree_choose(adj, adj.keys(), lists, color_order)[0]
    if out is not None:
        _check_result(adj, adj.keys(), lists, out)
    return out


def _degree_choose(adj: Adjacency, vs: Collection[int], lists: Lists,
                   color_order: ColorOrder
                   ) -> tuple[Coloring | None, Graph | None,
                              tuple[frozenset[int], ...]]:
    """``degree_choose`` on the connected graph that ``adj`` induces on
    ``vs``, whose lists cover the degrees and which holds every neighbor
    of its vertices.  Also the ``Graph`` and its blocks, when the tight
    path built them (always when it refuses), else None and ()."""
    slack = min((v for v in vs if len(lists[v]) > len(adj[v])), default=None)
    if slack is not None:
        return _greedy(adj, vs, lists, slack, color_order), None, ()
    g = Graph({v: adj[v] for v in vs})
    if not g.is_connected():
        raise ValueError("degree_choose needs a connected graph")
    if g.n == 0:
        return {}, g, ()
    bs = blocks(g)
    core = next((b for b in bs if block_kind(g, b) == "other"), None)
    if core is None:
        return None, g, bs  # Gallai tree: refuse
    return (_color_toward_core(g, lists, core, _color_block, color_order),
            g, bs)


# ---------------------------------------------------------------------------
# Gallai-tight components: the two propositions, then perturbation
# ---------------------------------------------------------------------------


def _finish_gallai_block(b: Graph, lists: Lists,
                         color_order: ColorOrder) -> Coloring | None:
    """Color a complete or odd-cycle block with tight lists via the
    propositions; None when all lists are equal (the perturbation case)."""
    verts = b.vertices()
    if block_kind(b, frozenset(verts)) == "complete":
        pair = next(((x, y) for x, y in combinations(verts, 2)
                     if lists[x] != lists[y]), None)
        if pair is None:
            return None
        middle = [v for v in verts if v not in pair]
        return color_complete_with_lists([pair[0], *middle, pair[1]],
                                         lists, color_order)
    order = [verts[0]]  # walk the odd cycle from its smallest vertex
    while len(order) < len(verts):
        order.append(min(b.neighbors(order[-1]) - set(order[-2:])))
    k = len(order)
    i = next((i for i in range(1, k + 1)
              if lists[order[i - 1]] != lists[order[i % k]]), None)
    if i is None:
        return None
    return color_odd_cycle_with_lists(order[i:] + order[:i], lists,
                                      color_order)


def _color_component(adj: Adjacency, comp: frozenset[int], lists: Lists,
                     color_order: ColorOrder) -> Coloring | None:
    """One connected dependency-graph component: degree_choose, then each
    block in turn as the core, finished by the propositions; the blocks
    are those that degree_choose computed when it refused."""
    out, g, bs = _degree_choose(adj, comp, lists, color_order)
    if out is not None:
        return out
    for core in bs:
        out = _color_toward_core(g, lists, core, _finish_gallai_block,
                                 color_order)
        if out is not None:
            return out
    return None


def color_dependency_graph(
        d: Graph, lists: Lists,
        perturbation_hook: Callable[[frozenset[int]], Lists | None] | None = None,
        color_order: ColorOrder = None) -> Coloring:
    """Proper list coloring of a dependency graph whose lists cover degrees.

    Components are handled independently: slack and non-Gallai components
    constructively, Gallai-tight components via the propositions. Each is
    colored on ``d``'s own adjacency, which holds every neighbor of a
    component's vertices. A component where every list pattern is blocked
    triggers the perturbation hook, which recolors something in the host
    graph and returns a full fresh list assignment (or None when out of
    options); the solve then restarts, since a perturbation may move other
    components' lists too, on the same components. Hard failure raises
    DependencyColoringError — never a silent bad coloring.
    """
    adj = d.adjacency()
    verts = d.vertices()
    lists_now = {v: set(lists[v]) for v in verts}
    for v in verts:
        if len(lists_now[v]) < len(adj[v]):
            raise ValueError(f"list at {v} smaller than its dependency degree")
    comps = d.connected_components()  # ascending by smallest vertex
    for _ in range(64):
        out: Coloring = {}
        stuck: frozenset[int] | None = None
        for comp in comps:
            part = _color_component(adj, comp, lists_now, color_order)
            if part is None:
                stuck = comp
                break
            out.update(part)
        if stuck is None:
            _check_result(adj, verts, lists_now, out)
            return out
        if perturbation_hook is None:
            raise DependencyColoringError(
                f"component {sorted(stuck)} is blocked and no hook was given")
        fresh = perturbation_hook(stuck)
        if fresh is None:
            raise DependencyColoringError(
                f"perturbation exhausted on component {sorted(stuck)}")
        lists_now = {v: set(fresh[v]) for v in verts}
        for v in verts:
            if len(lists_now[v]) < len(adj[v]):
                raise DependencyColoringError(
                    "perturbed lists no longer cover dependency degrees")
    raise DependencyColoringError("perturbation loop exceeded its cap")
