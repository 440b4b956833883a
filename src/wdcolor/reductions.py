"""Reducible local patterns: detection, reduction, and coloring lifts.

Each kind is defined once, by one row of ``_KINDS``, in detection order
(``KIND_ORDER`` lists the kinds' stable string identifiers): its matcher at
a seed (an anchor vertex for L1a-L8, a chordless cycle of 3-vertices for
L9 and L10), the reach of what the matcher reads, the step's edit as data
and the lifter.  ``detect_configuration`` returns the first match over the
kinds in order and each kind's seeds in order, so detection is fully
deterministic; validation runs the matcher again at the seed a
configuration's roles name, so ``apply_reduction`` accepts only the roles
detection gives there.  Every step makes the same edit from its row (cut
an edge, delete vertices, then merge a pair), leaving strictly fewer
edges, and records a replayable ``ReductionStep``; ``lift_coloring``
extends a valid coloring of the reduced graph back to the original graph,
verifying the result before returning.

A reduce-and-lift step costs work in proportion to the step, not to the
graph.  The driver reduces one ``EditableGraph`` in place
(``reduce_in_place``): each step replaces only the neighbor sets within
the closed neighborhood of the matched vertices, plus the fresh vertex of
a contraction or identification, under one undo entry, and a
``DetectionIndex`` picks every step, re-matching only near those sets.
The driver then lifts one ``LiftColoring`` in place while ``unwind`` pops
the undo entries, so each lift sees exactly the graph before its step and
is verified only around what it wrote; the driver re-checks the whole
graph once at the end.  The public functions on an immutable ``Graph``
and a plain dict run the same edits and the same checks on a copy.

Every lift step draws colors through ``pick_color`` under a color order
derived from the input coloring's first-use order, which makes the whole
lift equivariant under palette permutations up to color names: renaming the
input palette never changes which vertices end up sharing a color, only
what the shared colors are called.  ``certify_lemma`` exploits that to
check a kind exhaustively on generated hosts while enumerating only
canonical colorings of the reduced graph, and spot-checks the claim by
re-lifting renamed inputs.  A host's dependency graphs are memoized by
the neighbor sets of the recolored group, so its colorings share them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, NamedTuple

from .exact import wd_colorings
from .graphs import EditableGraph, Graph, rings
from .listcolor import (DependencyColoringError, Lists,
                        color_dependency_graph, pick_color)
from .planarity import is_planar
from .verify import Coloring, _weak_dynamic_violations

log = logging.getLogger(__name__)

PALETTE: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
_PALETTE_SET = frozenset(PALETTE)

KIND_L1A = "L1a-degree1"
KIND_L1B = "L1b-2vertex-3minus"
KIND_L2 = "L2-adjacent-4plus"
KIND_L3 = "L3-4334"
KIND_L4 = "L4-adjacent-3faces"
KIND_L5 = "L5-3regular-triangle"
KIND_L6 = "L6-triangle-pair"
KIND_L7 = "L7-triangle-deg4-apex"
KIND_L8 = "L8-triangle-deg5plus-apex"
KIND_L9 = "L9-3regular-cycle-with-free-vertex"
KIND_L10 = "L10-3regular-cycle"


class ReductionError(Exception):
    """Base class for reduction-machinery failures."""


class StaleConfigurationError(ReductionError):
    """The graph no longer matches the configuration it was detected on."""


class LiftError(ReductionError):
    """A lift could not be completed; carries the full local state."""

    def __init__(self, message: str, *, kind: str | None = None,
                 matched: tuple[tuple[str, int], ...] | None = None,
                 stage: str | None = None,
                 coloring: Coloring | None = None):
        super().__init__(message)
        self.kind = kind
        self.matched = matched
        self.stage = stage
        self.coloring = dict(coloring) if coloring is not None else None


class Configuration(NamedTuple):
    """A detected reducible pattern.

    ``kind`` is one of ``KIND_ORDER``.  ``matched`` names the pattern's
    vertices as ordered ``(role, vertex)`` pairs; role names follow the
    published v1..vk convention for each kind, with ``w``-prefixed roles for
    companion vertices (hubs, witnesses).  A named tuple: immutable, and
    cheap to build, as detection builds one per step.
    """

    kind: str
    matched: tuple[tuple[str, int], ...]

    def roles(self) -> dict[str, int]:
        return dict(self.matched)

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.matched)


class ReductionStep(NamedTuple):
    """One replayable reduction: what was removed, merged, and frozen.

    ``local`` keeps the neighbor set (in the pre-reduction graph) of every
    matched vertex so a later lift can check it is being replayed against
    the same graph.  A step keeps only what its lift reads; its JSON
    record, which adds the boundary and the removed edges, is built from
    the graph before it.
    A named tuple, as ``Configuration`` is: every step builds one.
    """

    kind: str
    matched: tuple[tuple[str, int], ...]
    removed_vertices: tuple[int, ...]
    contracted: tuple[int, int] | None
    identified: tuple[int, int] | None
    fresh: int | None
    local: tuple[tuple[int, frozenset[int]], ...]

    def roles(self) -> dict[str, int]:
        return dict(self.matched)

    def to_json_dict(self, before: Graph | EditableGraph) -> dict:
        """The step's JSON record.  ``before`` is the graph the step was
        applied to; ``boundary`` lists the vertices within distance two of
        the matched ones there, outside them, ascending; ``removed_edges``
        the edge v1v2 of L1b and L2, or the edges at removed vertices."""
        adj = before.adjacency()
        roles = dict(self.matched)
        members = set(roles.values())
        ball = _ball(adj, members, 2)
        cut = _KINDS[self.kind].cut
        removed = ([sorted(roles[x] for x in cut)] if cut else
                   [list(e) for e in sorted(
                       {(min(a, b), max(a, b))
                        for a in self.removed_vertices for b in adj[a]})])
        return {
            "kind": self.kind,
            "matched": roles,
            "boundary": sorted(ball - members),
            "removed_vertices": list(self.removed_vertices),
            "removed_edges": removed,
            "contracted": list(self.contracted) if self.contracted else None,
            "identified": list(self.identified) if self.identified else None,
            "fresh": self.fresh,
        }


# --------------------------------------------------------------------------
# color-order and protection helpers

class LiftColoring(dict):
    """The coloring that lifts write in place.

    A dict that records every key written since ``begin``, and keeps a
    lazy min-heap of vertices per color, from which ``color_order`` reads
    the first-use color order of a lift: every write pushes its vertex onto
    its color's heap, and ``color_order`` pops the entries whose vertex no
    longer has that color, recolored or deleted since.  Deleting a key is
    not recorded as a write: a lift's check counts the colored vertices
    instead.
    """

    __slots__ = ("written", "_heaps")

    def __init__(self, coloring: Coloring, vertices) -> None:
        """A copy of ``coloring``, which must color exactly ``vertices``
        (a set or a dict's keys) from the palette."""
        if coloring.keys() != vertices:
            raise LiftError(f"coloring covers {len(coloring)} vertices,"
                            f" expected {len(vertices)}")
        if not _PALETTE_SET.issuperset(coloring.values()):
            raise LiftError("coloring uses a color outside the palette")
        super().__init__(coloring)
        self.written: set[int] = set()
        self._heaps: dict[int, list[int]] = {}
        for v in sorted(coloring):  # a sorted list is a heap
            self._heaps.setdefault(coloring[v], []).append(v)

    def begin(self) -> None:
        """Forget the keys written so far."""
        self.written = set()

    # every way of writing goes through __setitem__, so no write escapes
    # ``written`` or the heaps; the lift's check and the color order rely
    # on both.  A deletion leaves at most a stale heap entry, which the
    # next ``color_order`` drops.

    def __setitem__(self, v: int, col: int) -> None:
        dict.__setitem__(self, v, col)
        self.written.add(v)
        heapq.heappush(self._heaps.setdefault(col, []), v)

    def update(self, *args, **kwargs) -> None:
        for v, col in dict(*args, **kwargs).items():
            self[v] = col

    def setdefault(self, v: int, col: int) -> int:
        if v not in self:
            self[v] = col
        return self[v]

    def __ior__(self, other):
        self.update(other)
        return self

    def color_order(self) -> tuple[int, ...]:
        """First-use order of colors over ascending vertex ids, then the
        rest of the palette numerically.  Permutation-equivariant by
        construction."""
        firsts = {}
        for col, heap in self._heaps.items():
            while heap and self.get(heap[0]) != col:
                heapq.heappop(heap)
            if heap:
                firsts[col] = heap[0]
        order = sorted(firsts, key=firsts.__getitem__)
        return tuple(order + [c for c in PALETTE if c not in firsts])


def _satisfy_through(g: Graph, coloring: Coloring, target: int,
                     pending: frozenset[int] | set[int], incoming: int = 1,
                     *, color_order: tuple[int, ...]) -> set[int]:
    """Colors that the next fresh assignments must avoid to keep ``target``
    on track for seeing ``min(deg, 3)`` distinct neighbor colors.

    ``pending`` lists the not-yet-final vertices whose colors must be
    ignored.  ``incoming`` is the number of target's pending neighbors about
    to receive pairwise-distinct fresh colors, each avoiding the returned
    set.  When the already-fixed colors outnumber what is still needed, the
    earliest colors under ``color_order`` are designated, keeping the choice
    permutation-equivariant.
    """
    nbrs = g.neighbors(target)
    m = min(len(nbrs), 3)
    fixed: set[int] = set()
    for u in nbrs:
        if u in pending:
            continue
        cu = coloring.get(u)
        if cu is not None:
            fixed.add(cu)
            if len(fixed) >= m:
                return set()
    if not m:
        return set()
    need = m - incoming
    if need <= 0:
        return set()
    if len(fixed) <= need:
        return set(fixed)
    ranked = sorted(fixed, key=color_order.index)
    return set(ranked[:need])


def _avoid_set(g: Graph, coloring: Coloring, w: int, explicit, protect,
               pending, order: tuple[int, ...]) -> set[int]:
    pend = frozenset(pending) | {w}
    avoid: set[int] = set()
    for c in explicit:
        if c is None:
            raise LiftError(f"missing color referenced while coloring {w}",
                            stage=f"assign {w}")
        avoid.add(c)
    for x in protect:
        avoid |= _satisfy_through(g, coloring, x, pend, color_order=order)
    return avoid


def _assign(g: Graph, coloring: Coloring, w: int, *, explicit=(), protect=(),
            pending=(), order: tuple[int, ...], bound: int | None = None,
            stage: str = "") -> int:
    """Color ``w`` avoiding the explicit colors plus every protection set.

    ``bound`` asserts the published size limit on the forbidden set; the
    palette has six colors, so a bound of five or less guarantees a choice.
    """
    avoid = _avoid_set(g, coloring, w, explicit, protect, pending, order)
    if bound is not None and len(avoid) > bound:
        raise LiftError(
            f"{stage}: forbidden set {sorted(avoid)} exceeds bound {bound}"
            f" while coloring {w}", stage=stage)
    cands = [c for c in PALETTE if c not in avoid]
    if not cands:
        raise LiftError(f"{stage}: no color left for {w}"
                        f" (forbidden {sorted(avoid)})", stage=stage)
    coloring[w] = pick_color(cands, order)
    return coloring[w]


def _hit(stats: dict | None, kind: str, branch: str) -> None:
    if stats is not None:
        label = f"{kind}:{branch}"
        stats[label] = stats.get(label, 0) + 1


# --------------------------------------------------------------------------
# detection

def _only(s) -> int:
    (x,) = s
    return x


# Each kind L1a-L8 is matched at an anchor vertex whose degree lies in the
# kind's range (see ``_Kind``): ``_match_*(adj, v)`` gives the roles
# of the kind's first match anchored at ``v``, in the kind's own inner
# order, or None.  The full scan of a kind picks its smallest matching
# anchor.

def _match_l1a(adj, v: int):
    return [("v1", v), ("u1", _only(adj[v]))]


def _match_l1b(adj, v1: int):
    nbrs = adj[v1]
    lows = [u for u in nbrs if len(adj[u]) <= 3]
    if not lows:
        return None
    v2 = min(lows)
    return [("v1", v1), ("v2", v2), ("u1", _only(nbrs - {v2}))]


def _match_l2(adj, u: int):
    """At ``u``, the edge to its smallest higher 4+ neighbor; so the
    smallest anchor gives the lexicographically first 4+/4+ edge.  One
    pass keeps the least such neighbor, O(d) at a hub, where a sort of
    the whole set would be O(d log d)."""
    v2 = None
    for w in adj[u]:
        if w > u and (v2 is None or w < v2) and len(adj[w]) >= 4:
            v2 = w
    return None if v2 is None else [("v1", u), ("v2", v2)]


def _l3_sides(adj, mid: int, other: int):
    """Split N(mid) - {other} into (one 4+ vertex, one 3-vertex), or None."""
    rest = adj[mid] - {other}
    if len(rest) != 2:
        return None
    fours = [u for u in rest if len(adj[u]) >= 4]
    threes = [u for u in rest if len(adj[u]) == 3]
    if len(fours) != 1 or len(threes) != 1:
        return None
    return fours[0], threes[0]


def _deg3_partners(adj, a: int) -> list[int]:
    """The 3-vertices b > a next to a 3-vertex ``a``, ascending: anchored
    at their smaller end, 3-3 edges come in lexicographic order."""
    out = [b for b in adj[a] if b > a and len(adj[b]) == 3]
    out.sort()
    return out


def _match_l3(adj, a: int):
    for b in _deg3_partners(adj, a):
        for v2, v3 in ((a, b), (b, a)):
            left = _l3_sides(adj, v2, v3)
            right = _l3_sides(adj, v3, v2)
            if left is None or right is None:
                continue
            v1, v5 = left
            v4, v6 = right
            if len({v1, v2, v3, v4, v5, v6}) != 6:
                continue
            return [("v1", v1), ("v2", v2), ("v3", v3), ("v4", v4),
                    ("v5", v5), ("v6", v6)]
    return None


def _match_l4(adj, u: int):
    for w in _deg3_partners(adj, u):
        rest_u = adj[u] - {w}
        if rest_u != adj[w] - {u}:
            continue
        v2, v4 = sorted(rest_u)
        return [("v1", u), ("v2", v2), ("v3", w), ("v4", v4)]
    return None


def _match_l5(adj, a: int):
    for b in _deg3_partners(adj, a):
        for c in sorted(adj[a] & adj[b]):
            if c <= b or len(adj[c]) != 3:
                continue
            w1 = _only(adj[a] - {b, c})
            w2 = _only(adj[b] - {a, c})
            w3 = _only(adj[c] - {a, b})
            if len({w1, w2, w3}) != 3:
                continue
            if min(len(adj[w1]), len(adj[w2]), len(adj[w3])) < 3:
                continue
            return [("v1", a), ("v2", b), ("v3", c), ("w1", w1),
                    ("w2", w2), ("w3", w3)]
    return None


def _match_l6(adj, v3: int):
    """The 3-vertex ``v3`` with two 3-neighbors v2 < v4 and a 4+ neighbor
    v1 next to both; so v1 is its one neighbor that is not a 3-vertex."""
    nbrs = adj[v3]
    threes = [u for u in nbrs if len(adj[u]) == 3]
    if len(threes) != 2:
        return None
    v1 = _only(nbrs.difference(threes))
    if len(adj[v1]) < 4:
        return None
    v2, v4 = sorted(threes)
    if not (v1 in adj[v2] and v1 in adj[v4]) or v4 in adj[v2]:
        return None
    v5 = _only(adj[v2] - {v1, v3})
    v6 = _only(adj[v4] - {v1, v3})
    if len(adj[v5]) < 3 or len(adj[v6]) < 3:
        return None
    return [("v1", v1), ("v2", v2), ("v3", v3), ("v4", v4), ("v5", v5),
            ("v6", v6)]


def _match_apex_triangle(adj, v3: int):
    """A triangle of two 3-vertices on the apex ``v3``, each with one more
    3-vertex neighbor; with a degree-4 apex both of its other neighbors
    must have degree at most three.  The pairs v1 < v2 come in
    lexicographic order: the apex's 3-neighbors v1 ascending, then their
    common neighbors v2 with the apex, which are at most two.  So a hub
    of degree d costs one pass and a sort of its 3-neighbors, not d²/2
    pair trials."""
    nbrs = adj[v3]
    threes = [u for u in nbrs if len(adj[u]) == 3]
    threes.sort()
    pairs = ((v1, v2) for v1 in threes for v2 in sorted(adj[v1] & nbrs)
             if v2 > v1 and len(adj[v2]) == 3)
    for v1, v2 in pairs:
        v4 = _only(adj[v1] - {v2, v3})
        v5 = _only(adj[v2] - {v1, v3})
        if v4 == v5:
            continue
        if len(adj[v4]) != 3 or len(adj[v5]) != 3:
            continue
        roles = [("v1", v1), ("v2", v2), ("v3", v3), ("v4", v4), ("v5", v5)]
        if len(nbrs) == 4:
            v6, v7 = sorted(nbrs - {v1, v2})
            if len(adj[v6]) > 3 or len(adj[v7]) > 3:
                continue
            roles += [("v6", v6), ("v7", v7)]
        return roles
    return None


def _ball(adj, centers, radius: int) -> set[int]:
    """The vertices within ``radius`` of ``centers``."""
    return set().union(*itertools.islice(rings(adj, centers), radius + 1))


def _reach(adj, centers, radius: int) -> set[int]:
    """The vertices within ``radius`` >= 1 of ``centers`` along paths whose
    inner vertices have degree at most 4: a ball that grows through the
    centers and then stops at hubs."""
    ball = set(centers)
    ring = centers
    while True:
        nxt: set[int] = set()
        for v in ring:
            nxt |= adj[v]
        nxt -= ball
        ball |= nxt
        radius -= 1
        if not radius:
            return ball
        ring = [v for v in nxt if len(adj[v]) <= 4]


def _chordless_deg3_cycles(g: Graph, near=None
                           ) -> Iterator[tuple[int, ...]]:
    """Chordless cycles whose vertices all have degree three, ascending by
    length, then by canonical labeling (minimum vertex first, second vertex
    smaller than last); only in the components of 3-vertices that meet
    ``near``, when it is given."""
    adj = g.adjacency()
    # a cycle lies inside one component of the subgraph the 3-vertices
    # induce, so a start in a component smaller than the length is skipped
    size: dict[int, int] = {}
    for s in adj if near is None else near:
        if s in size or len(adj[s]) != 3:
            continue
        comp = [s]
        size[s] = 0
        for v in comp:
            for w in adj[v]:
                if w not in size and len(adj[w]) == 3:
                    size[w] = 0
                    comp.append(w)
        for v in comp:
            size[v] = len(comp)
    deg3 = sorted(size)

    def extend(path: list[int], target_len: int) -> Iterator[tuple[int, ...]]:
        start = path[0]
        tail = path[-1]
        if len(path) == target_len:
            if start in adj[tail] and path[1] < path[-1]:
                yield tuple(path)
            return
        for w in sorted(adj[tail]):
            if w <= start or w in path or w not in size:
                continue
            # chordlessness: w may touch only the tail (and the start when
            # it is about to close the cycle)
            body = path if len(path) + 1 < target_len else path[1:]
            if any(p in adj[w] for p in body[:-1]):
                continue
            path.append(w)
            yield from extend(path, target_len)
            path.pop()

    for length in range(3, max(size.values(), default=2) + 1):
        for s in deg3:
            if size[s] >= length:
                yield from extend([s], length)


def _is_chordless_deg3_cycle(adj, cycle: tuple[int, ...]) -> bool:
    """Whether ``cycle`` lists, in order, the distinct vertices of a
    chordless cycle of 3-vertices: each one's neighbors on the cycle are
    exactly the two beside it."""
    k = len(cycle)
    cset = set(cycle)
    if k < 3 or len(cset) != k:
        return False
    for i, v in enumerate(cycle):
        nbrs = adj.get(v)
        if (nbrs is None or len(nbrs) != 3
                or nbrs & cset != {cycle[i - 1], cycle[(i + 1) % k]}):
            return False
    return True


def _canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The rotation or reflection of ``cycle`` that the cycle search walks:
    minimum vertex first, second vertex smaller than the last."""
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    return rot if rot[1] < rot[-1] else rot[:1] + rot[:0:-1]


def _cycle_of(roles: dict[str, int]) -> tuple[int, ...]:
    """The cycle v1, v2, ... that an L9 or L10 configuration names."""
    out: list[int] = []
    while f"v{len(out) + 1}" in roles:
        out.append(roles[f"v{len(out) + 1}"])
    return tuple(out)


def _cycle_hubs(adj, cycle: tuple[int, ...]) -> list[int]:
    """Per-position outside neighbor of each vertex of a chordless cycle
    of 3-vertices."""
    k = len(cycle)
    return [_only(adj[v] - {cycle[i - 1], cycle[(i + 1) % k]})
            for i, v in enumerate(cycle)]


# L9 and L10 are matched at a chordless cycle of 3-vertices, the seed:
# ``_match_*(adj, cycle)`` gives the roles of the kind's match on it, or
# None.  The full scan walks the cycles shortest first.

def _match_l9(adj, cycle: tuple[int, ...]):
    """The cycle with distinct hubs beside each other and a free (degree-3)
    hub; an even cycle needs one at an even and one at an odd position."""
    k = len(cycle)
    hubs = _cycle_hubs(adj, cycle)
    if any(len(adj[h]) < 3 for h in hubs):
        return None
    if any(hubs[i] == hubs[(i + 1) % k] for i in range(k)):
        return None
    free = [i for i in range(k) if len(adj[hubs[i]]) == 3]
    roles = [(f"v{i + 1}", cycle[i]) for i in range(k)]
    if k % 2:
        return roles + [("wfree1", hubs[free[0]])] if free else None
    even = [i for i in free if i % 2 == 0]
    odd = [i for i in free if i % 2 == 1]
    if not even or not odd:
        return None
    return roles + [("wfree1", hubs[even[0]]), ("wfree2", hubs[odd[0]])]


def _match_l10(adj, cycle: tuple[int, ...]):
    """The first rotation/reflection of the cycle whose even positions
    carry 4+ hubs and odd positions carry 3-hubs, with the published side
    rules; w1 and w3 are the hubs at the first and third positions."""
    k = len(cycle)
    if k % 2:
        return None
    for variant in (cycle, cycle[::-1]):
        hubs = _cycle_hubs(adj, variant)
        if any(len(adj[h]) < 3 for h in hubs):
            return None
        for r in range(k):
            rot = variant[r:] + variant[:r]
            roth = hubs[r:] + hubs[:r]
            if any(len(adj[roth[i]]) < 4 for i in range(0, k, 2)):
                continue
            if any(len(adj[roth[i]]) != 3 for i in range(1, k, 2)):
                continue
            mult: dict[int, int] = {}
            for h in roth[1::2]:
                mult[h] = mult.get(h, 0) + 1
            if any(c > 2 or (c == 2 and k != 4) for c in mult.values()):
                continue
            w1, w3 = roth[0], roth[2]
            if w1 != w3 and w3 in adj[w1]:
                continue
            return ([(f"v{i + 1}", rot[i]) for i in range(k)]
                    + [("w1", w1), ("w3", w3)])
    return None


class _Kind(NamedTuple):
    """One configuration kind, a row of ``_KINDS``.

    ``match(adj, seed)`` gives the roles of the kind's first match at a
    seed, or None.  The seeds of a kind with ``anchor`` roles are the
    vertices of degree ``lo`` to ``hi``, and a match's anchor is its
    smallest vertex among those roles; L9 and L10, with none, are seeded
    by the chordless cycles of 3-vertices.  The matcher reads whole
    neighbor sets within ``sets`` of the seed only, and beyond them, up to
    ``degrees``, only degree classes: it compares a degree there only with
    3 and 4, so it sees min(degree, 4).  Apart from their anchor, the
    matchers of L1a-L8 read whole neighbor sets only at vertices of degree
    at most 4, so every vertex they read lies at the end of a path from
    the anchor whose inner vertices have degree at most 4; the cycle
    matchers of L9 and L10 read hub sets too.  The step
    cuts the edge between the ``cut`` roles, deletes the ``removed`` roles
    (the seed cycle when None), then merges the ``merge`` pair; ``lift``
    colors back what the step took.
    """

    kind: str
    short: str
    match: Callable
    anchor: tuple[str, ...]
    lo: int
    hi: float
    sets: int
    degrees: int
    cut: tuple[str, ...]
    removed: tuple[str, ...] | None
    merge: tuple[str, ...]
    lift: Callable

    def match_at(self, adj, v: int):
        """The roles of the first match anchored at ``v``; None when there
        is none, or when ``v`` lies outside the kind's degree range."""
        if self.lo <= len(adj[v]) <= self.hi:
            return self.match(adj, v)
        return None


def _scan(g: Graph | EditableGraph, row: _Kind,
          near=None) -> Configuration | None:
    """The first match of a kind over its seeds in order: the anchors in
    the kind's degree range, ascending, or the chordless cycles of
    3-vertices, shortest first (those ``near`` lets in, if given)."""
    adj = g.adjacency()
    if row.anchor:
        match, seeds = row.match_at, g.vertices()
    else:
        match, seeds = row.match, _chordless_deg3_cycles(g, near)
    for seed in seeds:
        roles = match(adj, seed)
        if roles is not None:
            return Configuration(row.kind, tuple(roles))
    return None


def detect_configuration(g: Graph | EditableGraph,
                         kind: str | None = None) -> Configuration | None:
    """First matching configuration in kind order, or None when the graph
    is reduction-free.  Deterministic; never raises on valid graphs.

    Each kind L1a-L8 is scanned by anchor vertex, ascending, and the first
    anchor that matches wins; L9 and L10 take their chordless cycles of
    3-vertices shortest first.  With ``kind`` given, scan for that single
    pattern only (the graph may well contain earlier patterns elsewhere);
    used to exercise one rule in isolation.
    """
    if kind is not None:
        if kind not in _KINDS:
            raise ReductionError(f"unknown configuration kind {kind!r}")
        return _scan(g, _KINDS[kind])
    return next(filter(None, (_scan(g, row) for row in _KINDS.values())),
                None)


class DetectionIndex:
    """The configuration that ``detect_configuration`` would pick on an
    ``EditableGraph``, kept current while reductions edit it.

    For each anchored kind (L1a-L8) the index holds the anchors that
    match, each with the roles its match gave, and a heap for the
    smallest; ``first`` hands out the roles kept at the heap top and runs
    no matcher.  Between two looks at a kind, its answer can change only
    at an anchor from which the first read that differs follows a path of
    neighbor sets that read the same in both graphs: so the path exists
    in both, and by the invariant of ``_Kind`` its inner vertices have
    degree at most 4.  It ends at a vertex whose neighbor set an edit
    replaced, at most ``sets`` away, or at one whose degree class changed,
    at most ``degrees`` away; and a replaced vertex of degree 5 or more,
    then and now, is read whole only as the anchor itself.  An anchor
    whose reads are all the same gives the same roles, so the kept roles
    stay current.  A kind catches up only when it is asked, reading the
    graph's journal from its own cursor in one pass over the new entries,
    so the later kinds pay nothing for steps the earlier kinds settle.
    L9 and L10 order by cycle length and keep no anchors: once one has
    matched nowhere, it rescans only the components of 3-vertices that
    meet a vertex within ``sets`` of a set replaced since its last miss,
    as its matcher reads only the sets of the cycle and its hubs.  Until
    its first miss it scans the whole graph.  So on a graph with no edit
    yet, every kind's first answer is the full scan's: an anchored kind
    matches every anchor in its degree range, and a cycle kind walks every
    cycle.

    The index is valid while the graph's journal only grows.
    """

    def __init__(self, g: EditableGraph) -> None:
        self._g = g
        self._adj = g.adjacency()
        self._rows = tuple(_KINDS.values())
        # per kind, by row position: the journal length at its last look
        # (at its last miss, for a cycle kind), None before the first
        kinds = len(self._rows)
        self._cursor: list[int | None] = [None] * kinds
        self._cands: list[dict[int, list]] = [{} for _ in range(kinds)]
        self._heaps: list[list[int]] = [[] for _ in range(kinds)]

    def pick(self) -> Configuration | None:
        """The first configuration in kind order, as the full scan's; None
        when the graph is reduction-free."""
        for i, row in enumerate(self._rows):
            conf = self._first(i, row)
            if conf is not None:
                return conf
        return None

    def first(self, kind: str) -> Configuration | None:
        """The configuration of one kind that the full scan would pick."""
        i = KIND_ORDER.index(kind)
        return self._first(i, self._rows[i])

    def _first(self, i: int, row: _Kind) -> Configuration | None:
        if not row.anchor:
            journal, adj = self._g.journal, self._adj
            seen = self._cursor[i]
            near = None if seen is None else _ball(
                adj, {v for v, _ in journal[seen:] if v in adj}, row.sets)
            conf = _scan(self._g, row, near)
            if conf is None:
                self._cursor[i] = len(journal)
            return conf
        self._catch_up(i, row)
        heap, cands = self._heaps[i], self._cands[i]
        while heap and heap[0] not in cands:
            heapq.heappop(heap)
        return Configuration(row.kind, tuple(cands[heap[0]])) if heap else None

    def _catch_up(self, i: int, row: _Kind) -> None:
        """Match again every anchor whose answer the journal entries since
        the kind's last look can change: every anchor at its first."""
        journal = self._g.journal
        seen = self._cursor[i]
        if seen == len(journal):
            return
        self._cursor[i] = len(journal)
        adj, cands, heap = self._adj, self._cands[i], self._heaps[i]
        if seen is None:
            anchors = adj.keys()
        else:
            # the first entry of a vertex holds its set at the last look
            anchors = set()
            spread: list[int] = []
            reclassed: list[int] = []
            for v, old in journal[seen:]:
                if v in anchors:
                    continue
                nbrs = adj.get(v)
                if nbrs is None:
                    cands.pop(v, None)
                    continue
                anchors.add(v)
                was, now = -1 if old is None else len(old), len(nbrs)
                if was <= 4 or now <= 4:
                    spread.append(v)
                    # min(degree, 4) moved; -1 for a vertex created since
                    if was != now and (was < 4 or now < 4):
                        reclassed.append(v)
            if row.sets and spread:
                anchors |= _reach(adj, spread, row.sets)
            if row.degrees > row.sets and reclassed:
                anchors |= _reach(adj, reclassed, row.degrees)
        lo, hi, match = row.lo, row.hi, row.match
        for v in anchors:
            roles = match(adj, v) if lo <= len(adj[v]) <= hi else None
            if roles is None:
                cands.pop(v, None)
            else:
                if v not in cands:
                    heapq.heappush(heap, v)
                cands[v] = roles


# --------------------------------------------------------------------------
# configuration validation (used against stale graphs)

def validate_configuration(g: Graph | EditableGraph,
                           conf: Configuration) -> bool:
    """Whether the kind's matcher, run again at the seed the roles name,
    gives exactly ``conf.matched`` on the current graph.

    The seed of L1a-L8 is the anchor, the smallest vertex of the kind's
    anchor roles, and its degree must lie in the kind's range.  The seed of
    L9 and L10 is the cycle v1..vk; it must be a chordless cycle of
    3-vertices, and is matched as the cycle search walks it.  So permuted
    roles, or a pattern that is not the first match at its seed, are stale.
    """
    row = _KINDS.get(conf.kind)
    if row is None:
        return False
    adj = g.adjacency()
    roles = conf.roles()
    if row.anchor:
        if not roles.keys() >= set(row.anchor):
            return False
        seed = min(roles[r] for r in row.anchor)
        found = row.match_at(adj, seed) if seed in adj else None
    else:
        seed = _cycle_of(roles)
        if not _is_chordless_deg3_cycle(adj, seed):
            return False
        found = row.match(adj, _canonical_cycle(seed))
    return found is not None and tuple(found) == conf.matched


# --------------------------------------------------------------------------
# reduction

def apply_reduction(g: Graph | EditableGraph, conf: Configuration
                    ) -> tuple[Graph | EditableGraph, ReductionStep]:
    """Shrink the graph according to the configuration's kind.

    A ``Graph`` is left as it is: the reduced graph is a new one that
    shares every untouched neighbor set with ``g``.  An ``EditableGraph``
    is reduced in place under one new undo entry, so ``g.undo()`` restores
    it, and is returned itself.  Raises StaleConfigurationError unless
    ``validate_configuration`` accepts the configuration: detection at its
    seed must give exactly its roles, so a configuration that names the
    same pattern with its roles permuted is stale too.  The result always
    has strictly fewer edges.
    """
    if not validate_configuration(g, conf):
        raise StaleConfigurationError(
            f"{conf.kind} configuration {conf.roles()} does not match the"
            f" current graph")
    if isinstance(g, EditableGraph):
        return g, _reduce_in_place(g, conf)
    e = EditableGraph(g)
    step = _reduce_in_place(e, conf)
    return e.snapshot(), step


def _reduce_in_place(g: EditableGraph, conf: Configuration) -> ReductionStep:
    """The edit of the kind's row: cut its edge, delete its removed
    vertices, then merge its pair, which is contracted if adjacent,
    identified if two vertices that are not, and left if one vertex."""
    row = _KINDS[conf.kind]
    r = conf.roles()
    removed_v = tuple(sorted(_cycle_of(r) if row.removed is None
                             else [r[x] for x in row.removed]))
    contracted = identified = fresh = None
    adj = g.adjacency()
    local = tuple((v, adj[v]) for v in sorted({v for _, v in conf.matched}))
    m = g.m
    g.checkpoint()
    if row.cut:
        a, b = row.cut
        g.delete_edge(r[a], r[b])
    if removed_v:
        g.delete_vertices(removed_v)
    if row.merge:
        a, b = row.merge
        a, b = r[a], r[b]
        if b in adj[a]:
            contracted = (a, b)
            fresh = g.contract_edge(a, b)
        elif a != b:
            identified = (a, b)
            fresh = g.identify_vertices(a, b)
    if g.m >= m:
        g.undo()
        raise ReductionError(
            f"{conf.kind} reduction failed to decrease the edge count")
    return ReductionStep(conf.kind, conf.matched, removed_v, contracted,
                         identified, fresh, local)


def reduce_in_place(g: EditableGraph) -> list[ReductionStep]:
    """Apply reductions to ``g`` in place until none matches; returns the
    steps in applied order.

    Each step leaves one undo entry on ``g``, so ``unwind`` restores the
    graph before each step, newest first.  A ``DetectionIndex`` picks every
    step, of all eleven kinds; once it picks nothing after a step, one full
    ``detect_configuration`` scan confirms the core.  When it picks nothing
    at once, its first look at every kind was already that full scan, so
    an irreducible graph is scanned once.
    """
    index = DetectionIndex(g)
    steps = []
    while True:
        conf = index.pick()
        if conf is None:
            if not steps:
                return steps
            conf = detect_configuration(g)
            if conf is None:
                return steps
            log.warning("detection index missed a %s configuration",
                        conf.kind)
        steps.append(apply_reduction(g, conf)[1])


def unwind(g: EditableGraph,
           steps: list[ReductionStep]) -> Iterator[ReductionStep]:
    """Undo ``steps``, which ``reduce_in_place`` applied to ``g``, newest
    first, yielding each step once ``g`` is again the graph it was applied
    to: the graph its lift and its JSON record read."""
    for step in reversed(steps):
        g.undo()
        yield step


# --------------------------------------------------------------------------
# the shared dependency-instance builder for simultaneous recoloring

#: Dependency templates kept by ``_dependency_template``.  Certification
#: reuses a few dozen, one per host and group, across all its colorings;
#: the groups of ``wd3_color_planar`` seldom repeat.
_TEMPLATE_CACHE_SIZE = 128


class _DependencyTemplate(NamedTuple):
    """What a group's dependency instance takes from the members' own
    neighbor sets, whatever the coloring."""

    #: per member in ascending order, its neighbor pairs in the order the
    #: instance checks them: (True, member, outsider) for a restriction,
    #: (False, x, y) for two outsiders that must differ; None for a member
    #: whose degree is not three
    walk: tuple[tuple[int, tuple[tuple[bool, int, int], ...] | None], ...]
    #: the outsiders touching one or two members, ascending, with those
    #: members
    touched: tuple[tuple[int, tuple[int, ...]], ...]
    dep: Graph


@functools.lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _dependency_template(sets: tuple[tuple[int, frozenset[int]], ...]
                         ) -> _DependencyTemplate:
    """The template of the group whose members and neighbor sets ``sets``
    lists in ascending member order.  An outsider's touching members are
    read off the members' sets: on an undirected graph ``adj[z] & group``
    is the members whose sets hold ``z``, so the sets are the whole key."""
    group = {s for s, _ in sets}
    dep: dict[int, set[int]] = {s: set() for s, _ in sets}

    def join(a: int, b: int) -> None:
        dep[a].add(b)
        dep[b].add(a)

    walk = []
    touching: dict[int, list[int]] = {}
    for s, nbrs in sets:
        for z in nbrs:
            if z not in group:
                touching.setdefault(z, []).append(s)
        if len(nbrs) != 3:
            walk.append((s, None))
            continue
        pairs = []
        for x, y in itertools.combinations(sorted(nbrs), 2):
            xin, yin = x in group, y in group
            if xin and yin:
                join(x, y)
            elif xin or yin:
                pairs.append((True, x, y) if xin else (True, y, x))
            else:
                pairs.append((False, x, y))
        walk.append((s, tuple(pairs)))
    touched = []
    for z in sorted(touching):
        ts = touching[z]
        if len(ts) >= 3:
            for a, b in itertools.combinations(ts[:3], 2):
                join(a, b)
        else:
            touched.append((z, tuple(ts)))
            if len(ts) == 2:
                join(*ts)
    return _DependencyTemplate(
        tuple(walk), tuple(touched),
        Graph({s: frozenset(nb) for s, nb in dep.items()}))


def _dependency_instance(g: Graph | EditableGraph, coloring: Coloring,
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

    The dependency graph and which pairs to check depend only on the
    members' neighbor sets, so they come from ``_dependency_template``,
    built once for those sets and kept for every coloring; the
    colors, the outsiders' avoid-sets (which read an outsider's whole
    neighbor set) and the lists are worked out on each call.
    """
    adj = g.adjacency()
    t = _dependency_template(tuple((s, adj[s]) for s in sorted(group)))
    restrict: dict[int, set[int]] = {s: set() for s, _ in t.walk}
    for s, pairs in t.walk:
        if pairs is None:
            raise LiftError(f"group member {s} does not have degree 3",
                            stage="dependency-instance")
        for member, x, y in pairs:
            if member:
                cy = coloring.get(y)
                if cy is None:
                    raise LiftError(f"uncolored outside vertex {y} next to"
                                    f" {s}", stage="dependency-instance")
                restrict[x].add(cy)
            elif coloring.get(x) == coloring.get(y):
                raise LiftError(
                    f"outside neighbors {x},{y} of {s} share a color,"
                    f" so {s} cannot see three", stage="dependency-instance")
    for z, touching in t.touched:
        f = _satisfy_through(g, coloring, z, pending=group,
                             incoming=len(touching), color_order=order)
        for s in touching:
            restrict[s] |= f
    dep = t.dep.adjacency()
    lists: Lists = {s: set(PALETTE) - r for s, r in restrict.items()}
    for s, allowed in lists.items():
        if len(allowed) < max(1, len(dep[s])):
            raise LiftError(
                f"allowed colors {sorted(allowed)} at {s} fall below its"
                f" dependency degree {len(dep[s])}",
                stage="dependency-instance")
    return t.dep, lists


def _free_hub_hook(g: Graph, coloring: Coloring, cycle: tuple[int, ...],
                   order: tuple[int, ...],
                   recolor_log: list[tuple[int, int, int]]):
    """Perturbation hook: recolor a free hub (degree-3 outside companion
    with two colored neighbors) next to the stuck positions, then rebuild
    the whole instance.  Mutates ``coloring`` in place on success.
    ``tests/test_reductions.py`` compares it with the earlier two-pass
    version kept in ``tests/oracles.py``."""
    k = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    cset = frozenset(cycle)
    hubs: list[int] = []  # filled on the first call, which most lifts skip
    attempted: set[tuple[int, int]] = set()

    def hook(stuck: frozenset[int]) -> Lists | None:
        if not hubs:
            hubs.extend(_cycle_hubs(g.adjacency(), cycle))
        stuck_pos = sorted(pos[v] for v in stuck if v in pos)
        target_pos = sorted({(p + d) % k for p in stuck_pos for d in (-1, 1)})
        for h in dict.fromkeys(hubs[p] for p in target_pos):
            outside = sorted(g.neighbors(h) - cset)
            if g.degree(h) != 3 or len(outside) != 2:
                continue
            avoid = _avoid_set(g, coloring, h, (coloring[h],), outside, cset,
                               order)
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


def _recolor_group(g: Graph, coloring: Coloring, cycle: tuple[int, ...],
                   order: tuple[int, ...], use_hook: bool,
                   stats: dict | None, kind: str) -> None:
    cset = frozenset(cycle)
    dep, lists = _dependency_instance(g, coloring, cset, order)
    recolor_log: list[tuple[int, int, int]] = []
    hook = (_free_hub_hook(g, coloring, cycle, order, recolor_log)
            if use_hook else None)
    try:
        part = color_dependency_graph(dep, lists, hook, order)
    except DependencyColoringError as e:
        raise LiftError(f"{kind}: dependency coloring failed: {e}",
                        stage="dependency-coloring") from e
    coloring.update(part)
    if recolor_log:
        _hit(stats, kind, "hub-recolor")


# --------------------------------------------------------------------------
# lifts

def _lift_l1a(g, step, c, order, stats):
    r = step.roles()
    _assign(g, c, r["v1"], protect=(r["u1"],), pending={r["v1"]},
            order=order, bound=2, stage=f"{step.kind} v1")
    _hit(stats, step.kind, "base")


def _lift_l1b(g, step, c, order, stats):
    r = step.roles()
    v1, v2, u1 = r["v1"], r["v2"], r["u1"]
    _assign(g, c, v1, protect=(v2, u1), pending={v1, v2}, order=order,
            bound=4, stage=f"{step.kind} v1")
    others = sorted(g.neighbors(v2) - {v1})
    _assign(g, c, v2, protect=tuple([v1] + others), pending={v2},
            order=order, bound=5, stage=f"{step.kind} v2")
    _hit(stats, step.kind, "base")


def _lift_l2(g, step, c, order, stats):
    _hit(stats, step.kind, "base")


def _lift_l3(g, step, c, order, stats):
    r = step.roles()
    v1, v2, v3, v4, v5, v6 = (r["v1"], r["v2"], r["v3"], r["v4"], r["v5"],
                              r["v6"])
    _assign(g, c, v5, explicit=(c[v1],),
            protect=tuple(sorted(g.neighbors(v5) - {v2})),
            pending={v2, v3, v6, v5}, order=order, bound=5,
            stage=f"{step.kind} v5")
    _assign(g, c, v6, explicit=(c[v4],),
            protect=tuple(sorted(g.neighbors(v6) - {v3})),
            pending={v2, v3, v6}, order=order, bound=5,
            stage=f"{step.kind} v6")
    _assign(g, c, v2, explicit=(c[v4], c[v6]), protect=(v5, v1),
            pending={v2, v3}, order=order, bound=4, stage=f"{step.kind} v2")
    _assign(g, c, v3, explicit=(c[v1], c[v5]), protect=(v6, v4, v2),
            pending={v3}, order=order, bound=4, stage=f"{step.kind} v3")
    _hit(stats, step.kind, "base")


def _lift_l4(g, step, c, order, stats):
    r = step.roles()
    v1, v2, v3, v4 = r["v1"], r["v2"], r["v3"], r["v4"]
    if c[v2] == c[v4]:
        raise LiftError(f"shared neighbors {v2},{v4} carry one color in the"
                        f" reduced coloring", stage=f"{step.kind} pullback")
    if g.degree(v2) >= 4 and g.degree(v4) >= 4:
        _assign(g, c, v1, explicit=(c[v2], c[v4]), protect=(v2,),
                pending={v1, v3}, order=order, bound=4,
                stage=f"{step.kind} v1")
        _assign(g, c, v3, explicit=(c[v2], c[v4]), protect=(v4,),
                pending={v3}, order=order, bound=4, stage=f"{step.kind} v3")
        _hit(stats, step.kind, "both-4plus")
        return
    low = sorted(x for x in (v2, v4) if g.degree(x) == 3)
    a2 = low[0]
    a4 = v4 if a2 == v2 else v2
    _assign(g, c, v3, explicit=(c[a2], c[a4]), protect=(a2, a4),
            pending={v1, v3}, order=order, bound=5, stage=f"{step.kind} v3")
    _assign(g, c, v1, explicit=(c[a2], c[a4]), protect=(a2, a4),
            pending={v1}, order=order, bound=5, stage=f"{step.kind} v1")
    _hit(stats, step.kind, "low-side")


def _lift_l5(g, step, c, order, stats):
    r = step.roles()
    corners = [r["v1"], r["v2"], r["v3"]]
    hub_of = {r["v1"]: r["w1"], r["v2"]: r["w2"], r["v3"]: r["w3"]}
    rich = sorted(v for v in corners if g.degree(hub_of[v]) >= 4)
    if rich:
        a1 = rich[0]
        a2, a3 = sorted(v for v in corners if v != a1)
        h1, h2, h3 = hub_of[a1], hub_of[a2], hub_of[a3]
        _assign(g, c, a2, explicit=(c[h1], c[h3]), protect=(h2,),
                pending={a1, a2, a3}, order=order, bound=4,
                stage=f"{step.kind} second-corner")
        _assign(g, c, a3, explicit=(c[a2], c[h1], c[h2]), protect=(h3,),
                pending={a1, a3}, order=order, bound=5,
                stage=f"{step.kind} third-corner")
        _assign(g, c, a1, explicit=(c[a2], c[a3], c[h2], c[h3]),
                protect=(h1,), pending={a1}, order=order, bound=4,
                stage=f"{step.kind} rich-corner")
        _hit(stats, step.kind, "rich-hub")
        return
    group = tuple(corners + [hub_of[v] for v in corners])
    _recolor_group(g, c, group, order, use_hook=False, stats=stats,
                   kind=step.kind)
    _hit(stats, step.kind, "all-3-hubs")


def _lift_l6(g, step, c, order, stats):
    r = step.roles()
    v1, v2, v3, v4, v5, v6 = (r["v1"], r["v2"], r["v3"], r["v4"], r["v5"],
                              r["v6"])
    others = sorted(g.neighbors(v1) - {v2, v3, v4})
    c5 = pick_color([c[w] for w in others], order)
    _assign(g, c, v2, explicit=(c[v1], c5), protect=(v5,),
            pending={v2, v3, v4}, order=order, bound=4,
            stage=f"{step.kind} v2")
    _assign(g, c, v3, explicit=(c[v1], c[v2], c[v5], c[v6], c5),
            pending={v3, v4}, order=order, bound=5, stage=f"{step.kind} v3")
    _assign(g, c, v4, explicit=(c[v1], c[v2]), protect=(v6,),
            pending={v4}, order=order, bound=4, stage=f"{step.kind} v4")
    _hit(stats, step.kind, "base")


def _lift_l7(g, step, c, order, stats):
    r = step.roles()
    v1, v2, v3, v4, v5 = r["v1"], r["v2"], r["v3"], r["v4"], r["v5"]
    v6, v7 = r["v6"], r["v7"]
    if len({c[v3], c[v4], c[v5]}) != 3:
        raise LiftError("the merged vertex's three neighbors do not carry"
                        " three colors", stage=f"{step.kind} pullback")
    v8, v9 = sorted(g.neighbors(v4) - {v1})
    v10, v11 = sorted(g.neighbors(v5) - {v2})
    if c[v8] == c[v9] or c[v10] == c[v11] or c[v6] == c[v7]:
        raise LiftError("reduced coloring starves a companion vertex",
                        stage=f"{step.kind} pullback")
    pend = {v1, v2}
    avoid1 = _avoid_set(g, c, v1, (c[v3], c[v5]), (v4, v3), pend, order)
    if len(avoid1) < 6:
        c[v1] = pick_color([x for x in PALETTE if x not in avoid1], order)
        _assign(g, c, v2, explicit=(c[v3], c[v4]), protect=(v5, v1),
                pending={v2}, order=order, bound=4, stage=f"{step.kind} v2")
        _hit(stats, step.kind, "first-open")
        return
    avoid2 = _avoid_set(g, c, v2, (c[v3], c[v4]), (v5, v3), pend, order)
    if len(avoid2) < 6:
        c[v2] = pick_color([x for x in PALETTE if x not in avoid2], order)
        _assign(g, c, v1, explicit=(c[v3], c[v5]), protect=(v4, v2),
                pending={v1}, order=order, bound=4, stage=f"{step.kind} v1")
        _hit(stats, step.kind, "second-open")
        return
    # both forbidden sets exhaust the palette; the six surrounding colors
    # then split it exactly, which pins every color's role
    a1 = c[v4]
    s89 = {c[v8], c[v9]}
    if a1 not in s89:
        raise LiftError("palette split failed: the first companion's color"
                        " is missing beside its own neighbors",
                        stage=f"{step.kind} tight")
    a2 = _only(s89 - {a1})
    a3, a4, a5, a6 = c[v5], c[v3], c[v6], c[v7]
    if {a1, a2, a3, a4, a5, a6} != set(PALETTE):
        raise LiftError("palette split failed: surrounding colors do not"
                        " cover the palette", stage=f"{step.kind} tight")
    if {c[v10], c[v11]} != {a2, a3}:
        raise LiftError("palette split failed: the second companion's"
                        " neighbors carry unexpected colors",
                        stage=f"{step.kind} tight")
    _assign(g, c, v4, explicit=(a1,), protect=(v8, v9), pending={v1, v2, v4},
            order=order, bound=5, stage=f"{step.kind} recolor-v4")
    if c[v4] != a4:
        c[v2] = a1
        c[v1] = pick_color([x for x in PALETTE
                            if x not in {a1, a2, a3, a4}], order)
        _hit(stats, step.kind, "tight-a")
        return
    _assign(g, c, v5, explicit=(a3,), protect=(v10, v11),
            pending={v1, v2, v5}, order=order, bound=5,
            stage=f"{step.kind} recolor-v5")
    if c[v5] != a4:
        c[v4] = a1
        c[v1] = a3
        c[v2] = pick_color([x for x in PALETTE
                            if x not in {a1, a2, a3, a4}], order)
        _hit(stats, step.kind, "tight-b")
        return
    _assign(g, c, v3, explicit=(a4,), protect=(v6, v7), pending={v1, v2, v3},
            order=order, bound=5, stage=f"{step.kind} recolor-v3")
    gamma = c[v3]
    if gamma != a3:
        c[v1] = a3
        c[v2] = pick_color([x for x in (a1, a5, a6) if x != gamma], order)
        _hit(stats, step.kind, "tight-c1")
    else:
        c[v1] = a5
        c[v2] = a1
        _hit(stats, step.kind, "tight-c2")


def _lift_l8(g, step, c, order, stats):
    r = step.roles()
    v1, v2, v3, v4, v5 = r["v1"], r["v2"], r["v3"], r["v4"], r["v5"]
    _assign(g, c, v4, explicit=(c[v3],),
            protect=tuple(sorted(g.neighbors(v4) - {v1})),
            pending={v1, v2, v5, v4}, order=order, bound=5,
            stage=f"{step.kind} v4")
    _assign(g, c, v5, explicit=(c[v3],),
            protect=tuple(sorted(g.neighbors(v5) - {v2})),
            pending={v1, v2, v5}, order=order, bound=5,
            stage=f"{step.kind} v5")
    _assign(g, c, v1,
            explicit=tuple([c[v3], c[v5]]
                           + [c[x] for x in sorted(g.neighbors(v4) - {v1})]),
            pending={v1, v2}, order=order, bound=4, stage=f"{step.kind} v1")
    _assign(g, c, v2,
            explicit=tuple([c[v3], c[v4]]
                           + [c[x] for x in sorted(g.neighbors(v5) - {v2})]),
            pending={v2}, order=order, bound=4, stage=f"{step.kind} v2")
    _hit(stats, step.kind, "base")


def _lift_l9(g, step, c, order, stats):
    cycle = _cycle_of(step.roles())
    _recolor_group(g, c, cycle, order, use_hook=True, stats=stats,
                   kind=step.kind)
    _hit(stats, step.kind, "base")


def _lift_l10(g, step, c, order, stats):
    r = step.roles()
    cycle = _cycle_of(r)
    cset = frozenset(cycle)
    w1, w3 = r["w1"], r["w3"]
    # repair pass: the pullback's one color on both identified companions
    # can leave a nearby outside vertex too few distinct colors even after the
    # cycle is freshly colored (its colored neighborhood collapsed).  While
    # some outside vertex u has fewer distinct colored-neighbor colors than
    # min(deg,3) minus its cycle contacts, recolor one of its repeated-color
    # neighbors away from u's palette, protecting that neighbor's other
    # neighbors.  Each recolor strictly grows u's palette, so this ends.
    watch = {z for v in cycle for z in g.neighbors(v)}
    watch |= set(g.neighbors(w1)) | set(g.neighbors(w3))
    for u in sorted(watch - cset):
        for _ in range(len(PALETTE)):
            out_nbrs = sorted(g.neighbors(u) - cset)
            fixed_cols = {c[x] for x in out_nbrs}
            contact = len(g.neighbors(u) & cset)
            if len(fixed_cols) + contact >= min(g.degree(u), 3):
                break
            dup = sorted(x for x in out_nbrs
                         if sum(1 for y in out_nbrs if c[y] == c[x]) >= 2)
            ranked = sorted(dup, key=lambda x: (x in (w1, w3),
                                                g.degree(x) >= 4, x))
            repaired = False
            for x in ranked:
                avoid = _avoid_set(g, c, x, fixed_cols,
                                   sorted(g.neighbors(x) - cset - {u}), cset,
                                   order)
                cands = [col for col in PALETTE if col not in avoid]
                if not cands:
                    continue
                c[x] = pick_color(cands, order)
                repaired = True
                _hit(stats, step.kind, "repair")
                break
            if not repaired:
                raise LiftError(
                    f"outside vertex {u} cannot reach enough distinct"
                    f" neighbor colors and no neighbor is recolorable",
                    stage=f"{step.kind} repair")
    _lift_l9(g, step, c, order, stats)


# --------------------------------------------------------------------------
# the kinds

#: Every kind's row, in detection order.  The far reads: L1b and L2 the
#: degrees of the anchor's neighbors, L3 those of the far side's
#: neighbors, L5 those of the hubs, L6 of v5 and v6, L7/L8 of v4 and v5.
_KINDS: dict[str, _Kind] = {row.kind: row for row in (
    # kind, short, matcher, anchor, lo, hi, sets, degrees,
    # cut, removed, merge, lifter
    _Kind(KIND_L1A, "L1", _match_l1a, ("v1",), 1, 1, 0, 0,
          (), ("v1",), (), _lift_l1a),
    _Kind(KIND_L1B, "L1", _match_l1b, ("v1",), 2, 2, 0, 1,
          ("v1", "v2"), (), (), _lift_l1b),
    _Kind(KIND_L2, "L2", _match_l2, ("v1",), 4, math.inf, 0, 1,
          ("v1", "v2"), (), (), _lift_l2),
    _Kind(KIND_L3, "L3", _match_l3, ("v2", "v3"), 3, 3, 1, 2,
          (), ("v2", "v3"), (), _lift_l3),
    _Kind(KIND_L4, "L4", _match_l4, ("v1",), 3, 3, 1, 1,
          (), (), ("v1", "v3"), _lift_l4),
    _Kind(KIND_L5, "L5", _match_l5, ("v1",), 3, 3, 1, 2,
          (), ("v1", "v2", "v3"), (), _lift_l5),
    _Kind(KIND_L6, "L6", _match_l6, ("v3",), 3, 3, 1, 2,
          (), ("v3",), (), _lift_l6),
    _Kind(KIND_L7, "L7", _match_apex_triangle, ("v3",), 4, 4, 1, 2,
          (), (), ("v1", "v2"), _lift_l7),
    _Kind(KIND_L8, "L8", _match_apex_triangle, ("v3",), 5, math.inf, 1, 2,
          (), ("v1", "v2"), (), _lift_l8),
    _Kind(KIND_L9, "L9", _match_l9, (), 3, 3, 1, 1,
          (), None, (), _lift_l9),
    _Kind(KIND_L10, "L10", _match_l10, (), 3, 3, 1, 1,
          (), None, ("w1", "w3"), _lift_l10),
)}

KIND_ORDER: tuple[str, ...] = tuple(_KINDS)

#: Short labels accepted by certify_lemma and the command line; "L1" covers
#: both of its sub-kinds.
SHORT_KINDS: dict[str, tuple[str, ...]] = {
    short: tuple(row.kind for row in rows)
    for short, rows in itertools.groupby(_KINDS.values(),
                                         lambda row: row.short)}


def lift_coloring(g: Graph | EditableGraph, step: ReductionStep,
                  c_reduced: Coloring, stats: dict | None = None) -> Coloring:
    """Extend a valid coloring of the reduced graph to the original graph.

    ``g`` is the graph the step was applied to, and ``c_reduced`` must be a
    valid 3-weak-dynamic coloring of the reduced graph.  A plain dict is
    checked to color exactly the reduced graph's vertices from the palette
    and is left as it is; the lift writes a copy and returns a new dict.
    A ``LiftColoring`` is lifted in place and returned itself: the lift
    loop of the driver passes one, which covers the reduced graph because
    it did so from the start and every earlier lift checked it again, and
    ``certify_lemma`` passes a fresh one, which its constructor checked
    against the reduced graph's vertex set.  Before the kind's lifter
    runs, the fresh vertex of a contraction or identification loses its
    color, which both vertices of an identified pair take back.

    The output is always verified before it is returned, on what the lift
    wrote.  Every written vertex must be a vertex of ``g`` with a palette
    color, the fresh vertex of a contraction or identification must be
    gone, and the count of colored vertices must be that of ``g``; so
    exactly ``g`` is colored.  Then every vertex of N_g[D] and every
    matched vertex must see min(d(v), 3) colors, where D is the set of
    written vertices (newly colored or recolored, wherever they lie).
    That is the whole rule on ``g``.  Every removed, contracted or
    identified vertex is new in ``g``, so it was written; L1b and L2
    delete the edge v1v2 between matched vertices.  So a vertex outside
    that set keeps its neighbors, and they keep their colors from
    ``c_reduced``: it sees what it saw in the reduced graph.  A failed
    lift raises LiftError carrying the local state, never returning a
    degraded coloring.
    """
    adj = g.adjacency()
    for v, nbrs in step.local:
        # undo restores the very sets the step saved, so identity settles
        # the check at once; a set that is another object is compared
        now = adj.get(v)
        if now is not nbrs and now != nbrs:
            raise StaleConfigurationError(
                f"graph changed at {v} since the {step.kind} step was taken")
    in_place = isinstance(c_reduced, LiftColoring)
    if in_place:
        c = c_reduced
    else:
        try:
            c = LiftColoring(c_reduced, _reduced_vertices(adj, step))
        except LiftError as e:
            raise LiftError(f"reduced coloring: {e}", kind=step.kind,
                            matched=step.matched) from e
    # the L2 lift writes nothing and reads no color order
    order = c.color_order() if step.kind != KIND_L2 else ()
    c.begin()
    if step.fresh is not None:
        col = c.pop(step.fresh)
        for v in step.identified or ():
            c[v] = col
    try:
        _KINDS[step.kind].lift(g, step, c, order, stats)
    except LiftError as e:
        raise LiftError(f"{step.kind} lift failed: {e}", kind=step.kind,
                        matched=step.matched, stage=e.stage,
                        coloring=c) from e
    written = c.written
    if (len(c) != len(adj) or step.fresh in c
            or not written <= adj.keys()):
        raise LiftError("lift left the wrong vertex set colored",
                        kind=step.kind, matched=step.matched, coloring=c)
    if any(c[v] not in _PALETTE_SET for v in written):
        raise LiftError("lift used a color outside the palette",
                        kind=step.kind, matched=step.matched, coloring=c)
    ball = written.union(*map(adj.__getitem__, written))
    ball.update(v for v, _ in step.local)
    out = c if in_place else dict(c)
    violations = _weak_dynamic_violations(adj, out, 3, ball)
    if violations:
        raise LiftError(
            f"lifted coloring fails verification: {violations[:3]}",
            kind=step.kind, matched=step.matched, coloring=c)
    return out


def _reduced_vertices(adj, step: ReductionStep) -> set[int]:
    """The vertex set of the graph ``step`` produced from ``adj``."""
    out = set(adj).difference(step.removed_vertices, step.contracted or (),
                              step.identified or ())
    if step.fresh is not None:
        out.add(step.fresh)
    return out


# --------------------------------------------------------------------------
# canonical enumeration and certification

def canonical_colorings(g: Graph, k: int = 3) -> Iterator[Coloring]:
    """All valid k-weak-dynamic colorings of g over the palette, one per
    palette-permutation class (colors appear in first-use order over
    ascending vertex ids), lexicographically.  Prunes branches whose
    remaining uncolored neighbors cannot satisfy some vertex."""
    return wd_colorings(g, k, len(PALETTE), sorted(g.vertices()))


@dataclass
class CertificateReport:
    """Outcome of certifying one reduction kind over generated hosts."""

    kind: str
    hosts_requested: int
    hosts_checked: int = 0
    embed_failures: list[str] = field(default_factory=list)
    colorings_checked: int = 0
    lifts_succeeded: int = 0
    lift_failures: list[str] = field(default_factory=list)
    case_hits: dict[str, int] = field(default_factory=dict)
    equivariance_checks: int = 0
    equivariance_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.hosts_checked > 0 and not self.lift_failures
                and not self.equivariance_failures
                and self.lifts_succeeded == self.colorings_checked)

    def to_json_dict(self) -> dict:
        return {**asdict(self),
                "case_hits": dict(sorted(self.case_hits.items())),
                "ok": self.ok}


def _permute_coloring(c: Coloring, perm: dict[int, int]) -> Coloring:
    return {v: perm[col] for v, col in c.items()}


def _color_classes(c: Coloring) -> set[frozenset[int]]:
    """The partition of vertices into color classes, names forgotten."""
    groups: dict[int, set[int]] = {}
    for v, col in c.items():
        groups.setdefault(col, set()).add(v)
    return {frozenset(s) for s in groups.values()}


def certify_lemma(kind: str, budget: int = 20) -> CertificateReport:
    """Certify one reduction kind: on ``budget`` generated hosts, enumerate
    every valid coloring of the reduced graph (one per palette-permutation
    class; lifting is permutation-equivariant up to color names, which is
    also spot-checked here) and confirm each lifts to a verified coloring
    of the host.  Each coloring is checked to cover the reduced graph from
    the palette as it becomes the ``LiftColoring`` that its lift writes in
    place; a coloring that fails that check is a lift failure.  Everything
    that depends only on the host, such as a dependency lift's dependency
    graph and components, is built once for all its colorings.

    ``kind`` is a short label L1..L10 (L1 covers both of its sub-kinds) or
    a full kind string.  Hosts come from ``hosts.host_for(full_kind,
    index)``, which may return None.  Hosts must be planar and must contain
    the intended pattern (found by a scan restricted to that kind — other
    reducible patterns may coexist elsewhere in the host); a None, a
    nonplanar host, or a host without the pattern is reported as an embed
    failure, never raised.
    """
    short = _KINDS[kind].short if kind in _KINDS else kind
    if short not in SHORT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    targets = SHORT_KINDS[short]
    from .hosts import host_for  # hosts imports this module
    report = CertificateReport(kind=short, hosts_requested=budget)
    rng = random.Random(0xC0 + sum(map(ord, short)))
    for i in range(budget):
        want, idx = targets[i % len(targets)], i // len(targets)
        g = host_for(want, idx)
        if g is None:
            report.embed_failures.append(
                f"{want}#{idx}: generator produced no host")
            continue
        if not is_planar(g).is_planar:
            report.embed_failures.append(
                f"{want}#{idx}: host is not planar")
            continue
        conf = detect_configuration(g, kind=want)
        if conf is None:
            report.embed_failures.append(
                f"{want}#{idx}: host does not contain the pattern")
            continue
        reduced, step = apply_reduction(g, conf)
        vertices = reduced.adjacency().keys()
        count_before = report.colorings_checked
        for c in canonical_colorings(reduced):
            report.colorings_checked += 1
            try:
                lifted = lift_coloring(g, step, LiftColoring(c, vertices),
                                       stats=report.case_hits)
            except LiftError as e:
                if len(report.lift_failures) < 8:
                    report.lift_failures.append(
                        f"{want}#{idx} coloring {c}: {e}")
                continue
            report.lifts_succeeded += 1
            if (report.colorings_checked - count_before) % 37 == 1:
                perm_vals = list(PALETTE)
                rng.shuffle(perm_vals)
                perm = dict(zip(PALETTE, perm_vals))
                report.equivariance_checks += 1
                try:
                    other = lift_coloring(g, step, _permute_coloring(c, perm))
                except LiftError as e:
                    report.equivariance_failures.append(
                        f"{want}#{idx}: permuted input failed to lift: {e}")
                    continue
                if _color_classes(other) != _color_classes(lifted):
                    report.equivariance_failures.append(
                        f"{want}#{idx}: renaming the input palette changed"
                        f" the lifted color classes on {c}")
        report.hosts_checked += 1
    return report
