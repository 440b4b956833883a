"""Exact solvers: weak-dynamic number, chromatic number, and list coloring.

These are the oracles every constructive routine is measured against, and the
guaranteed fallback of the planar coloring driver.  Two searches serve them
all: :func:`wd_colorings` enumerates k-weak-dynamic colorings (for
:func:`wd_number_exact` and the certification's canonical enumeration), and
:func:`_list_color_search` finds proper list colorings (for
:func:`chromatic_number_exact` and :func:`list_color_exact`).  Both are
iterative, so no search is bound by the recursion limit.  Run without a
budget, every search is complete, and "no solution within the bound" is
reported as a value (None in results). The chromatic-number search also takes
a node budget; a search that runs past it raises :class:`SearchBudgetExceeded`
instead of deciding, so its caller can turn to a method that needs no proof
of optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import Graph
from .verify import Coloring, is_dynamic, is_proper, is_weak_dynamic


class SearchBudgetExceeded(Exception):
    """A budgeted search ran past its node budget before it could decide."""


@dataclass(frozen=True)
class ExactResult:
    value: int | None  # None = infeasible within the bound
    witness: Coloring | None

    @property
    def feasible(self) -> bool:
        return self.value is not None


# ---------------------------------------------------------------------------
# weak-dynamic number
# ---------------------------------------------------------------------------


def wd_colorings(g: Graph, k: int, ncolors: int,
                 order: Sequence[int]) -> Iterator[Coloring]:
    """Every k-weak-dynamic coloring of g with colors 1..ncolors in which
    the colors appear in first-use order along ``order``.

    The colorings come lexicographically by their colors along ``order``,
    each a dict keyed in that order.  A vertex may open at most one color
    beyond the largest used before it.  A branch is cut as soon as some
    vertex's color deficit exceeds its uncolored-neighbor count.  The
    search moves a position pointer instead of recursing, so its depth is
    not bound by the recursion limit.
    """
    n = len(order)
    idx = {v: i for i, v in enumerate(order)}
    nbrs = [[idx[u] for u in g.neighbors(v)] for v in order]
    # slack: uncolored neighbors + distinct colors seen - colors needed;
    # coloring a neighbor lowers it only when that color was seen already
    slack = [len(nb) - min(len(nb), k) for nb in nbrs]
    hits = [[0] * (ncolors + 1) for _ in range(n)]
    color = [0] * n
    used = [0] * (n + 1)  # used[i]: the largest color before position i
    i = 0
    while i >= 0:
        if i == n:
            yield {order[j]: color[j] for j in range(n)}
            i -= 1
            continue
        col = color[i]
        if col:
            for j in nbrs[i]:
                hits[j][col] -= 1
                if hits[j][col]:
                    slack[j] += 1
        col += 1
        if col > min(ncolors, used[i] + 1):
            color[i] = 0
            i -= 1
            continue
        color[i] = col
        ok = True
        for j in nbrs[i]:
            hits[j][col] += 1
            if hits[j][col] > 1:
                slack[j] -= 1
                ok = ok and slack[j] >= 0
        if ok:
            used[i + 1] = max(used[i], col)
            i += 1


def _first_wd_coloring(g: Graph, k: int, ncolors: int) -> Coloring | None:
    """The first k-weak-dynamic coloring with colors 1..ncolors along the
    vertices by descending degree, or None; each caller re-checks it."""
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    return next(wd_colorings(g, k, ncolors, order), None)


def wd_number_exact(g: Graph, k: int, max_colors: int) -> ExactResult:
    """Smallest palette size <= max_colors admitting a k-weak-dynamic
    coloring, with a witness; None value if the bound is exceeded."""
    if max_colors < 1:
        raise ValueError("max_colors must be >= 1")
    if g.n == 0:
        return ExactResult(0, {})
    lb = max(1, max(min(g.degree(v), k) for v in g.vertices()))
    for c in range(lb, max_colors + 1):
        witness = _first_wd_coloring(g, k, c)
        if witness is not None:
            ok, _ = is_weak_dynamic(g, witness, k)
            if not ok:
                raise AssertionError("solver produced an invalid witness")
            return ExactResult(c, witness)
    return ExactResult(None, None)


# ---------------------------------------------------------------------------
# chromatic number and list coloring (DSATUR branch and bound)
# ---------------------------------------------------------------------------


def _greedy_clique(g: Graph) -> list[int]:
    best: list[int] = []
    for s in sorted(g.vertices(), key=lambda v: (-g.degree(v), v)):
        clique = [s]
        for u in sorted(g.neighbors(s), key=lambda v: (-g.degree(v), v)):
            if all(g.has_edge(u, w) for w in clique):
                clique.append(u)
        if len(clique) > len(best):
            best = clique
    return best


def _list_color_search(g: Graph, lists: Mapping[int, Iterable[int]],
                       node_budget: int | None = None) -> Coloring | None:
    """A proper coloring with c(v) in lists[v], or None when none exists,
    by DSATUR-ordered backtracking.

    The branching vertex is the uncolored one with the fewest free colors
    (list colors no neighbor holds), then the highest degree, then the
    smallest id; a lazy min-heap keeps it, with an entry pushed whenever an
    uncolored vertex's key changes and stale entries dropped when they
    reach the top.  Colors are tried in ascending order.  When every list
    is the same, a vertex may open at most one color beyond those used
    above it (first-use symmetry breaking).  The search keeps its frames on
    an explicit stack, so its depth is not bound by the recursion limit.
    A node is one color assignment; past ``node_budget`` nodes it raises
    :class:`SearchBudgetExceeded`.
    """
    adj = g.adjacency()
    cands = {v: sorted(set(lists[v])) for v in adj}
    symmetric = len({tuple(c) for c in cands.values()}) <= 1
    allowed = {v: set(c) for v, c in cands.items()}
    color: dict[int, int] = {}
    blocked: dict[int, set[int]] = {v: set() for v in adj}
    heap: list[tuple[int, int, int]] = []

    def rebuild() -> None:
        heap[:] = [(len(cands[v]) - len(blocked[v]), -len(adj[v]), v)
                   for v in adj if v not in color]
        heapify(heap)

    def push(v: int) -> None:
        heappush(heap, (len(cands[v]) - len(blocked[v]), -len(adj[v]), v))

    def pick() -> int | None:
        # stale entries pile up over a long search; drop them in one pass
        if len(heap) > 4 * len(adj) + 64:
            rebuild()
        while heap:
            free, _, v = heap[0]
            if v not in color and free == len(cands[v]) - len(blocked[v]):
                return v
            heappop(heap)
        return None

    rebuild()
    nodes = 0
    v = pick()
    if v is None:
        return {}
    # frame: [vertex, index of its color in its list (-1 = none yet),
    # colors opened above it, the neighbors that gained that color]
    stack: list[list] = [[v, -1, 0, []]]
    while stack:
        frame = stack[-1]
        v, pos, opened, touched = frame
        mine = cands[v]
        if pos >= 0:
            del color[v]
            for u in touched:
                blocked[u].discard(mine[pos])
                if u not in color:
                    push(u)
        top = min(len(mine), opened + 1) if symmetric else len(mine)
        pos += 1
        while pos < top and mine[pos] in blocked[v]:
            pos += 1
        if pos >= top:
            stack.pop()
            push(v)
            continue
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceeded(
                f"coloring search passed {node_budget} nodes on"
                f" n={g.n} m={g.m}")
        col = mine[pos]
        color[v] = col
        touched = [u for u in adj[v]
                   if col in allowed[u] and col not in blocked[u]]
        for u in touched:
            blocked[u].add(col)
            if u not in color:
                push(u)
        frame[1], frame[3] = pos, touched
        if any(len(blocked[u]) == len(cands[u]) and u not in color
               for u in adj[v]):
            continue
        w = pick()
        if w is None:
            return dict(color)
        stack.append([w, -1, max(opened, pos + 1), []])
    return None


def _k_colorable(g: Graph, k: int,
                 node_budget: int | None = None) -> Coloring | None:
    """Proper k-colorability: :func:`_list_color_search` with every list
    {1..k}, so with first-use symmetry breaking."""
    palette = range(1, k + 1)
    return _list_color_search(g, {v: palette for v in g.vertices()},
                              node_budget)


def chromatic_number_exact(g: Graph, ub: int, *,
                           node_budget: int | None = None) -> ExactResult:
    """Exact chromatic number with witness, or None value if above ub.

    ``node_budget`` bounds the search for each palette size (see
    :func:`_k_colorable`); past it :class:`SearchBudgetExceeded` is raised.
    ``None`` searches to the end.
    """
    if g.n == 0:
        return ExactResult(0, {})
    lb = max(1, len(_greedy_clique(g)))
    for k in range(lb, ub + 1):
        witness = _k_colorable(g, k, node_budget)
        if witness is not None:
            if not is_proper(g, witness):
                raise AssertionError("solver produced an improper witness")
            return ExactResult(k, witness)
    return ExactResult(None, None)


def list_color_exact(g: Graph, lists: dict[int, set[int]]) -> Coloring | None:
    """Proper coloring with c(v) in lists[v], by the exhaustive search of
    :func:`_list_color_search`; certified None on exhaustion."""
    for v in g.vertices():
        if v not in lists:
            raise KeyError(f"missing list for vertex {v}")
    color = _list_color_search(g, lists)
    if color is not None:
        if not is_proper(g, color):
            raise AssertionError("list search produced an improper coloring")
        if not all(color[v] in lists[v] for v in g.vertices()):
            raise AssertionError("list search colored outside a list")
    return color


# ---------------------------------------------------------------------------
# product coloring
# ---------------------------------------------------------------------------


def product_coloring(g: Graph, proper: Coloring, wd: Coloring, k: int) -> Coloring:
    """Injective pair encoding of (proper, weak-dynamic) colorings; the result
    is k-dynamic with palette <= |proper palette| * |wd palette|."""
    if not is_proper(g, proper):
        raise ValueError("first coloring is not proper")
    ok, _ = is_weak_dynamic(g, wd, k)
    if not ok:
        raise ValueError(f"second coloring is not {k}-weak-dynamic")
    p_vals = sorted(set(proper.values()))
    w_vals = sorted(set(wd.values()))
    p_idx = {c: i for i, c in enumerate(p_vals)}
    w_idx = {c: i for i, c in enumerate(w_vals)}
    out = {v: p_idx[proper[v]] * len(w_vals) + w_idx[wd[v]] + 1
           for v in g.vertices()}
    if not is_dynamic(g, out, k):
        raise AssertionError("pair encoding failed the dynamic check")
    return out
