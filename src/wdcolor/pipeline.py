"""Six-color 3-weak-dynamic coloring of planar graphs.

The strategy: vertices of degree at least four (``A4``) and a special class
of degree-3 vertices (``A3star``) anchor the construction.  For every vertex
``w`` a witness set ``Nstar(w)`` of ``min(d(w), 3)`` neighbors is chosen;
making each witness set a clique yields an auxiliary graph ``Gprime`` whose
proper colorings are exactly what the weak-dynamic condition needs: each
``w`` then sees ``min(d(w), 3)`` distinct colors.  The anchors induce a
second auxiliary graph ``H`` (obtained by dissolving the non-anchor
vertices, which all have degree at most three, so planarity survives).  A
proper 4-coloring of ``H`` fixes the colors of ``A4``; the rest of
``Gprime`` is finished by list coloring inside a palette of six.

The driver :func:`wd3_color_planar` first shrinks the input with the
reducible-configuration engine, runs the construction on the irreducible
core, and lifts the coloring back up.  Any failure along the way degrades
to the exact solver with a six-color cap; the final coloring is always
re-verified before it is returned.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, nsmallest
from typing import Mapping

from .exact import (SearchBudgetExceeded, _first_wd_coloring,
                    chromatic_number_exact)
from .graphs import EditableGraph, Graph
from .listcolor import DependencyColoringError, color_dependency_graph
from .planarity import is_planar, validate_rotation
from .reductions import (PALETTE, LiftColoring, LiftError, lift_coloring,
                         reduce_in_place, unwind)
from .verify import Coloring, is_proper, is_weak_dynamic, palette_size

logger = logging.getLogger(__name__)


class NonplanarInputError(ValueError):
    """The driver was handed a graph that is not planar."""


class PipelineIncompleteError(Exception):
    """The constructive path refused the graph; callers fall back.

    Raised when the list-coloring stage cannot proceed (a list came up
    shorter than a dependency degree, or the list solver itself refuses),
    and by the Kempe peeling of the anchor graph (:func:`_kempe_four_color`)
    at a vertex where no Kempe-chain swap frees a color.  On irreducible
    planar graphs neither is expected, but arbitrary inputs are allowed to
    trigger them; the driver treats them as routine.
    """


class InvariantBreachError(Exception):
    """A guaranteed structural property failed to hold.

    Examples: the rotation derived for the anchor graph failed the Euler
    check, or a planar graph admitted no proper 4-coloring.  Any of these
    signals a construction bug or a violated hypothesis, never a routine
    miss.
    """


@dataclass(frozen=True)
class VertexClassification:
    """Anchor sets and witness neighborhoods for one graph.

    ``A4``: all vertices of degree at least four.  ``A3star``: degree-3
    vertices whose neighborhood admits a labeling ``u1, u2, u3`` such that
    ``u1`` and ``u2`` both have degree three with two neighbors of degree
    at least four each, while every neighbor of ``u3`` has degree three.
    ``Nstar`` maps each vertex ``w`` to its witness set: ``min(d(w), 3)``
    neighbors chosen to meet ``A3star`` as little as possible, then to span
    as many edges as possible, then lexicographically smallest.
    """

    A4: frozenset[int]
    A3star: frozenset[int]
    Nstar: dict[int, frozenset[int]]


def _a3star(adj: Mapping[int, frozenset[int]]) -> frozenset[int]:
    """``A3star`` from two flags per neighbor of a degree-3 vertex, each
    computed once: "every neighbor has degree 3" (the role of ``u3``) and
    "degree 3 with two neighbors of degree at least four" (``u1``, ``u2``).
    No vertex has both, so a degree-3 vertex qualifies exactly when two of
    its neighbors carry the second flag and the third the first."""
    cubic = [v for v, nbrs in adj.items() if len(nbrs) == 3]
    near = {u for v in cubic for u in adj[v]}
    all_cubic = {u for u in near if all(len(adj[x]) == 3 for x in adj[u])}
    two_high = {u for u in near if len(adj[u]) == 3
                and sum(len(adj[x]) >= 4 for x in adj[u]) >= 2}
    return frozenset(v for v in cubic
                     if len(adj[v] & two_high) == 2 and adj[v] & all_cubic)


def _witness_set(nbrs: frozenset[int], adj: Mapping[int, frozenset[int]],
                 a3star: frozenset[int]) -> tuple[int, ...]:
    """The witness triple of a vertex with neighborhood ``nbrs`` (at least
    four vertices), found without trying every 3-subset.

    Every best triple meets ``A3star`` in exactly ``hits`` vertices, the
    fewest possible.  The edges of ``N(w)`` come from one intersection
    per neighbor; the search then tries span 3 (triangles), span 2 (the
    smallest allowed pair around each centre), span 1 (an edge plus the
    smallest allowed third vertex) and span 0 (the smallest allowed
    vertices), and stops at the first span with a triple.  Each step may
    take the smallest vertices it can, because adding or fixing shared
    vertices keeps the order of sorted triples.
    """
    good = [x for x in nbrs if x not in a3star]
    hits = max(0, 3 - len(good))
    # the three smallest candidates outside, then inside A3star
    pools = (nsmallest(3, good), nsmallest(3, nbrs & a3star))

    def allowed(t: tuple[int, ...]) -> bool:
        return sum(x in a3star for x in t) == hits

    local = {x: adj[x] & nbrs for x in nbrs}
    edges = [(x, y) for x in nbrs for y in local[x] if x < y]
    if edges:
        triangles = [(x, y, z) for x, y in edges
                     for z in local[x] & local[y] if y < z]
        best = min(filter(allowed, triangles), default=None)
        if best is not None:
            return best
        cherries = []
        for c in nbrs:
            want = hits - (c in a3star)
            if len(local[c]) >= 2 and 0 <= want <= 2:
                pair = (nsmallest(2 - want, local[c] - a3star)
                        + nsmallest(want, local[c] & a3star))
                if len(pair) == 2:
                    cherries.append(tuple(sorted(pair + [c])))
        if cherries:
            return min(cherries)
        singles = []
        for x, y in edges:
            want = hits - (x in a3star) - (y in a3star)
            if 0 <= want <= 1:
                third = next((z for z in pools[want] if z not in (x, y)),
                             None)
                if third is not None:
                    singles.append(tuple(sorted((x, y, third))))
        if singles:
            return min(singles)
    return tuple(sorted(pools[1][:hits] + pools[0][:3 - hits]))


def classify(g: Graph) -> VertexClassification:
    """Anchor sets and witness neighborhoods; defined on any graph.

    Witness sets are deterministic: among the ``min(d(w), 3)``-subsets of
    ``N(w)``, take the one meeting ``A3star`` least, breaking ties by most
    induced edges and then by lexicographically smallest vertex list
    (:func:`_witness_set`).  Cost: O(m) for the anchor sets; for the
    witness sets, one intersection ``N(x) & N(w)`` per edge ``wx``, at
    ``min(d(x), d(w))``, plus work linear in ``d(w)`` and in the edges and
    triangles of ``N(w)``.  On a planar graph that is O(m) in all: the
    intersections sum to at most twice the arboricity (at most 3) times m
    (Chiba & Nishizeki 1985), and each ``N(w)`` is outerplanar.
    """
    adj = g.adjacency()
    a4 = frozenset(v for v, nbrs in adj.items() if len(nbrs) >= 4)
    a3star = _a3star(adj)
    nstar = {w: adj[w] if len(adj[w]) <= 3
             else frozenset(_witness_set(adj[w], adj, a3star))
             for w in g.vertices()}
    return VertexClassification(A4=a4, A3star=a3star, Nstar=nstar)


def build_Gprime(g: Graph, cls: VertexClassification) -> Graph:
    """Auxiliary graph on V(g): each witness set made a clique.

    A proper coloring of the result, read back on ``g``, makes every vertex
    ``w`` see ``min(d(w), 3)`` colors — i.e. it is 3-weak-dynamic on ``g``.
    """
    edges: set[tuple[int, int]] = set()
    for w in g.vertices():
        for x, y in itertools.combinations(sorted(cls.Nstar[w]), 2):
            edges.add((x, y))
    return Graph.from_edges(sorted(edges), vertices=g.vertices())


def _dissolved_rotation(rotation: Mapping[int, tuple[int, ...]],
                        kept: frozenset[int]) -> dict[int, tuple[int, ...]]:
    """The rotation of the anchor graph, derived from a rotation of ``g``
    by the dissolution itself.

    Each non-anchor ``v`` first loses its edges to non-anchors, which
    leaves its anchor neighbors ``a_0 .. a_{k-1}`` (``k <= 3``) in its
    cyclic order.  At ``a_i`` the entry ``v`` then becomes ``a_{i+1} ..
    a_{i+k-1}``: a Y-Delta step at ``k = 3``, the other end at ``k = 2``,
    nothing at ``k <= 1``.  Every entry is tagged with the edge copy it
    stands for (None for an edge of ``g``, else the dissolved vertex); of
    parallel copies, the first met at the smaller end is kept, at both
    ends.  Each of these steps keeps a planar rotation planar.
    """
    rings: dict[int, list[int]] = {}
    tagged: dict[int, list[tuple[int, int | None]]] = {}
    for a in sorted(kept):
        entries: list[tuple[int, int | None]] = []
        for u in rotation[a]:
            if u in kept:
                entries.append((u, None))
                continue
            ring = rings.get(u)
            if ring is None:
                ring = rings[u] = [x for x in rotation[u] if x in kept]
            i = ring.index(a)
            entries.extend((b, u) for b in ring[i + 1:] + ring[:i])
        tagged[a] = entries
    copy: dict[tuple[int, int], int | None] = {}
    for a, entries in tagged.items():
        for b, tag in entries:
            if a < b:
                copy.setdefault((a, b), tag)
    return {a: tuple(b for b, tag in entries
                     if copy[min(a, b), max(a, b)] == tag)
            for a, entries in tagged.items()}


def build_H(g: Graph, gprime: Graph, cls: VertexClassification,
            rotation: Mapping[int, tuple[int, ...]]) -> Graph:
    """Anchor graph: dissolve every non-anchor vertex of ``g``.

    Each non-anchor vertex has degree at most three, so replacing it by a
    clique on its anchor neighbors keeps the graph planar whenever ``g``
    is planar.  Because a non-anchor vertex never gains edges from the
    dissolution of another, the order of removal does not matter and the
    result equals: the anchor-induced subgraph of ``g`` plus, for every
    non-anchor ``v``, a clique on ``N_g(v)`` restricted to anchors.

    ``rotation`` is a planar rotation system of ``g``.  The dissolution is
    carried out on it (:func:`_dissolved_rotation`), and H is built once,
    from the entries of that rotation taken as edges.  H is certified
    planar without a planarity test of its own: the rotation must pass the
    Euler check (``validate_rotation``), in time linear in ``g``, which
    also fails an entry missing at one end or repeated.  Also asserted on
    every call: coverage of every ``gprime`` edge that joins an ``A4``
    vertex to another anchor.  Either failing raises
    :class:`InvariantBreachError`.
    """
    kept = cls.A4 | cls.A3star
    rotation_h = _dissolved_rotation(rotation, kept)
    h = Graph.from_edges(sorted({(min(a, b), max(a, b))
                                 for a, ring in rotation_h.items()
                                 for b in ring}), vertices=sorted(kept))
    if not validate_rotation(h, rotation_h):
        raise InvariantBreachError(
            "the rotation derived for the anchor graph fails the Euler"
            f" check; offending input edges: {sorted(g.edges())}")
    for x, y in gprime.edges():
        if (x in cls.A4 or y in cls.A4) and x in kept and y in kept:
            if not h.has_edge(x, y):
                raise InvariantBreachError(
                    f"anchor graph misses the witness-clique edge ({x},{y});"
                    f" offending input edges: {sorted(g.edges())}")
    return h


def _node_budget(h: Graph) -> int:
    """DSATUR nodes per palette size that :func:`four_color_H` allows
    before it turns to Kempe chains: room for a search that backtracks a
    little, linear in |V(H)|."""
    return 2 * h.n + 16


def _smallest_last(adj: Mapping[int, frozenset[int]]) -> list[int]:
    """Vertices in removal order: each is removed at minimum degree among
    those left, ties by smallest id."""
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    heap = [(d, v) for v, d in deg.items()]
    heapify(heap)
    order = []
    while heap:
        d, v = heappop(heap)
        if deg.get(v) != d:
            continue
        del deg[v]
        order.append(v)
        for u in adj[v]:
            if u in deg:
                deg[u] -= 1
                heappush(heap, (deg[u], u))
    return order


def _kempe_free(adj: Mapping[int, frozenset[int]], color: Coloring,
                nbrs: list[int]) -> int | None:
    """Free a color for a vertex whose colored neighbors ``nbrs`` use all
    four, by one Kempe-chain swap; returns the freed color, or None.

    For colors a, then b, ascending: the a/b chains through the
    a-neighbors are grown over colored vertices; the first that holds no
    b-neighbor has a and b swapped, which leaves no neighbor on a.  With at
    most four colored neighbors on a planar graph some pair always works
    (Kempe 1879); with five it may not (Heawood 1890).
    """
    for a in (1, 2, 3, 4):
        seeds = [u for u in nbrs if color[u] == a]
        for b in (1, 2, 3, 4):
            if b == a:
                continue
            blocked = {u for u in nbrs if color[u] == b}
            chain = set(seeds)
            todo = list(seeds)
            while todo and blocked.isdisjoint(chain):
                x = todo.pop()
                for y in adj[x]:
                    if y not in chain and color.get(y) in (a, b):
                        chain.add(y)
                        todo.append(y)
            if blocked.isdisjoint(chain):
                for x in chain:
                    color[x] = a + b - color[x]
                return a
    return None


def _kempe_four_color(h: Graph) -> Coloring:
    """A proper coloring of ``h`` with colors 1..4 by Kempe peeling.

    Vertices are colored greedily with their smallest free color, in
    reverse smallest-last order, so a planar ``h`` shows each at most five
    colored neighbors; where those use all four colors, one Kempe-chain
    swap frees one (:func:`_kempe_free`).  Raises
    :class:`PipelineIncompleteError` at the first vertex where no swap
    does, which on a planar graph needs five colored neighbors.
    """
    adj = h.adjacency()
    color: Coloring = {}
    for v in reversed(_smallest_last(adj)):
        nbrs = sorted(u for u in adj[v] if u in color)
        used = {color[u] for u in nbrs}
        free = next((c for c in (1, 2, 3, 4) if c not in used), None)
        if free is None:
            free = _kempe_free(adj, color, nbrs)
        if free is None:
            raise PipelineIncompleteError(
                f"no Kempe-chain swap frees a color at anchor vertex {v},"
                f" which has {len(nbrs)} colored neighbors")
        color[v] = free
    if not is_proper(h, color):
        raise AssertionError("anchor 4-coloring is not proper")
    return color


def four_color_H(h: Graph) -> Coloring:
    """Proper coloring of the anchor graph with at most four colors.

    Three stages, each of which ends:

    1. The exact search (``chromatic_number_exact``), under a node budget
       per palette size linear in |V(H)| (:func:`_node_budget`).  Within
       it the result is the exact search's witness.
    2. Past the budget, Kempe peeling (:func:`_kempe_four_color`).
    3. Where no Kempe-chain swap frees a color, it raises
       :class:`PipelineIncompleteError`, and the driver falls back to the
       exact solver.

    A greedy clique above four vertices, or a search that proves no
    4-coloring exists, means the graph was not planar or the construction
    is buggy, and raises :class:`InvariantBreachError`.
    """
    try:
        res = chromatic_number_exact(h, 4, node_budget=_node_budget(h))
    except SearchBudgetExceeded as exc:
        logger.info("anchor graph colored by Kempe chains: %s", exc)
        return _kempe_four_color(h)
    if not res.feasible:
        raise InvariantBreachError(
            "anchor graph admits no proper 4-coloring; edges:"
            f" {sorted(h.edges())}")
    return dict(res.witness or {})


def assemble_and_color(g: Graph, gprime: Graph, cls: VertexClassification,
                       ch: Coloring) -> Coloring:
    """Finish the six-color coloring from a proper anchor coloring.

    ``A4`` keeps its colors from ``ch``.  Every other vertex gets the list
    of palette colors not used on its ``A4``-neighbors in ``gprime``, and
    the ``gprime``-subgraph they induce is list-colored.  The combined
    coloring is verified proper on ``gprime`` and 3-weak-dynamic on ``g``
    before being returned.

    Raises :class:`PipelineIncompleteError` when a list comes up shorter
    than the corresponding dependency degree or the list solver refuses —
    the caller is expected to fall back.
    """
    cstar = {v: ch[v] for v in cls.A4}
    rest = [v for v in gprime.vertices() if v not in cls.A4]
    gpp = gprime.induced_subgraph(rest)
    lists: dict[int, list[int]] = {}
    for v in rest:
        banned = {cstar[u] for u in gprime.neighbors(v) if u in cls.A4}
        lists[v] = [c for c in PALETTE if c not in banned]
        if len(lists[v]) < gpp.degree(v):
            raise PipelineIncompleteError(
                f"list at {v} has {len(lists[v])} colors for dependency"
                f" degree {gpp.degree(v)}")
    try:
        part = color_dependency_graph(gpp, lists)
    except DependencyColoringError as exc:
        raise PipelineIncompleteError(str(exc)) from exc
    combined: Coloring = dict(cstar)
    combined.update(part)
    for x, y in gprime.edges():
        if combined[x] == combined[y]:
            raise InvariantBreachError(
                f"assembled coloring is not proper on the witness-clique"
                f" graph at edge ({x},{y})")
    ok, violations = is_weak_dynamic(g, combined, 3)
    if not ok:
        raise InvariantBreachError(
            f"assembled coloring fails the weak-dynamic check: {violations}")
    return combined


def _construct_wd3(g: Graph,
                   rotation: Mapping[int, tuple[int, ...]]) -> Coloring:
    """The full anchor construction on one (irreducible) graph, given a
    planar rotation system of it."""
    cls = classify(g)
    gprime = build_Gprime(g, cls)
    h = build_H(g, gprime, cls, rotation)
    ch = four_color_H(h)
    return assemble_and_color(g, gprime, cls, ch)


def _exact_wd3_cap6(g: Graph, why: str) -> Coloring:
    """The exact search's first 3-weak-dynamic coloring with at most six
    colors, or die.  It asks for no minimum palette: every palette below
    the minimum would take an exhaustive search to rule out."""
    logger.info("falling back to the exact solver (%s) on n=%d m=%d",
                why, g.n, g.m)
    coloring = _first_wd_coloring(g, 3, len(PALETTE))
    if coloring is None:
        raise InvariantBreachError(
            "exact solver found no 3-weak-dynamic coloring within six"
            f" colors on a planar graph; edges: {sorted(g.edges())}")
    ok, violations = is_weak_dynamic(g, coloring, 3)
    if not ok:
        raise InvariantBreachError(
            f"exact solver produced an invalid coloring: {violations}")
    return coloring


def _color_component_wd3(g: Graph, rotation: Mapping[int, tuple[int, ...]],
                         trace: list[dict] | None = None) -> Coloring:
    """Reduce to an irreducible core, construct there, lift back.

    ``rotation`` is a planar rotation system of ``g``; it serves the
    construction when nothing reduces, and otherwise the core gets its own
    (one LR test, on a core that is small whenever much reduced).  When
    ``trace`` is a list, each step's JSON record is appended to it, in
    applied order."""
    e = EditableGraph(g)
    steps = reduce_in_place(e)
    cur = e.snapshot()
    if cur.n == 0:
        coloring: Coloring = {}
    else:
        if steps:
            rotation = is_planar(cur).rotation
        try:
            if rotation is None:
                raise InvariantBreachError("the reduced core is not planar")
            coloring = _construct_wd3(cur, rotation)
        except PipelineIncompleteError as exc:
            coloring = _exact_wd3_cap6(cur, f"construction refused: {exc}")
        except InvariantBreachError as exc:
            logger.warning("construction invariant breached on the core"
                           " (n=%d m=%d): %s", cur.n, cur.m, exc)
            coloring = _exact_wd3_cap6(cur, "invariant breach")
    c = LiftColoring(coloring, cur.adjacency().keys())
    records = []
    for step in unwind(e, steps):
        if trace is not None:
            records.append(step.to_json_dict(e))
        try:
            c = lift_coloring(e, step, c)
        except LiftError as exc:
            logger.warning("lift failed at a %s step: %s", step.kind, exc)
            before = e.snapshot()
            c = LiftColoring(
                _exact_wd3_cap6(before, f"lift failure at {step.kind}"),
                before.adjacency().keys())
    if trace is not None:
        trace.extend(reversed(records))
    return c


def wd3_color_planar(g: Graph, trace: list[dict] | None = None) -> Coloring:
    """A verified 3-weak-dynamic coloring of a planar graph, six colors max.

    Rejects nonplanar inputs.  Components are handled independently
    (isolated vertices get color 1).  The result is deterministic for a
    given input and is re-verified — weak-dynamic and palette at most six —
    before being returned.  When ``trace`` is a list, the JSON record
    (``ReductionStep.to_json_dict``) of every reduction step applied along
    the way is appended to it, in order.
    """
    cert = is_planar(g)
    if not cert.is_planar:
        raise NonplanarInputError(
            f"input is not planar (contains a {cert.minor_kind} minor)")
    coloring: Coloring = {}
    for comp in sorted(g.connected_components(), key=min):
        if len(comp) == 1:
            coloring[next(iter(comp))] = 1
            continue
        if len(comp) == g.n:
            # a connected input is its own component: no copy of it, nor
            # of its rotation (the copy would keep ``next_fresh``, so the
            # fresh ids are the same)
            sub, rotation = g, cert.rotation
        else:
            sub = g.induced_subgraph(comp)
            rotation = {v: cert.rotation[v] for v in comp}
        coloring.update(_color_component_wd3(sub, rotation, trace))
    ok, violations = is_weak_dynamic(g, coloring, 3)
    if not ok:
        raise InvariantBreachError(
            f"driver produced an invalid coloring: {violations}")
    if palette_size(coloring) > len(PALETTE):
        raise InvariantBreachError(
            f"driver used {palette_size(coloring)} colors; the cap is"
            f" {len(PALETTE)}")
    return coloring
