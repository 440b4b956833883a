"""Exact solvers: weak-dynamic number, chromatic number, and list coloring.

These are the oracles every constructive routine is measured against, and the
guaranteed fallback of the planar coloring driver. Run without a budget, every
search is complete, and "no solution within the bound" is reported as a value
(None in results). The chromatic-number search also takes a node budget; a
search that runs past it raises :class:`SearchBudgetExceeded` instead of
deciding, so its caller can turn to a method that needs no proof of optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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


def _wd_feasible(g: Graph, k: int, ncolors: int) -> Coloring | None:
    """Find a k-weak-dynamic coloring with colors 1..ncolors, or None.

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


def wd_number_exact(g: Graph, k: int, max_colors: int) -> ExactResult:
    """Smallest palette size <= max_colors admitting a k-weak-dynamic
    coloring, with a witness; None value if the bound is exceeded."""
    if max_colors < 1:
        raise ValueError("max_colors must be >= 1")
    if g.n == 0:
        return ExactResult(0, {})
    lb = max(1, max(min(g.degree(v), k) for v in g.vertices()))
    for c in range(lb, max_colors + 1):
        witness = _wd_feasible(g, k, c)
        if witness is not None:
            ok, _ = is_weak_dynamic(g, witness, k)
            assert ok, "solver produced an invalid witness"
            return ExactResult(c, witness)
    return ExactResult(None, None)


# ---------------------------------------------------------------------------
# chromatic number (DSATUR branch and bound)
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


def _k_colorable(g: Graph, k: int,
                 node_budget: int | None = None) -> Coloring | None:
    """Proper k-colorability by DSATUR-ordered backtracking with first-use
    symmetry breaking.

    The branching vertex is the uncolored one that sees the most distinct
    colors, then has the highest degree, then the smallest id; a lazy
    max-heap keeps it, with an entry pushed whenever an uncolored vertex's
    key changes and stale entries dropped when they reach the top.  The
    search keeps its frames on an explicit stack, so its depth is not bound
    by the recursion limit.  A node is one color assignment; past
    ``node_budget`` nodes it raises :class:`SearchBudgetExceeded`.
    """
    adj = g.adjacency()
    color: dict[int, int] = {}
    nbr_colors: dict[int, set[int]] = {v: set() for v in adj}
    heap: list[tuple[int, int, int]] = []

    def rebuild() -> None:
        heap[:] = [(-len(nbr_colors[v]), -len(adj[v]), v)
                   for v in adj if v not in color]
        heapify(heap)

    def push(v: int) -> None:
        heappush(heap, (-len(nbr_colors[v]), -len(adj[v]), v))

    def pick() -> int | None:
        # stale entries pile up over a long search; drop them in one pass
        if len(heap) > 4 * len(adj) + 64:
            rebuild()
        while heap:
            sat, _, v = heap[0]
            if v not in color and -sat == len(nbr_colors[v]):
                return v
            heappop(heap)
        return None

    rebuild()
    nodes = 0
    v = pick()
    if v is None:
        return {}
    # frame: [vertex, color in place (0 = none yet), colors used above it,
    # the neighbors that gained that color]
    stack: list[list] = [[v, 0, 0, []]]
    while stack:
        frame = stack[-1]
        v, col, maxused, touched = frame
        if col:
            del color[v]
            for u in touched:
                nbr_colors[u].discard(col)
                if u not in color:
                    push(u)
        top = min(k, maxused + 1)
        col += 1
        while col <= top and col in nbr_colors[v]:
            col += 1
        if col > top:
            stack.pop()
            push(v)
            continue
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceeded(
                f"{k}-coloring search passed {node_budget} nodes on"
                f" n={g.n} m={g.m}")
        color[v] = col
        touched = [u for u in adj[v] if col not in nbr_colors[u]]
        for u in touched:
            nbr_colors[u].add(col)
            if u not in color:
                push(u)
        frame[1], frame[3] = col, touched
        if any(len(nbr_colors[u]) >= k and u not in color for u in adj[v]):
            continue
        w = pick()
        if w is None:
            return dict(color)
        stack.append([w, 0, max(maxused, col), []])
    return None


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
            assert is_proper(g, witness)
            return ExactResult(k, witness)
    return ExactResult(None, None)


# ---------------------------------------------------------------------------
# list coloring
# ---------------------------------------------------------------------------


def list_color_exact(g: Graph, lists: dict[int, set[int]]) -> Coloring | None:
    """Proper coloring with c(v) in lists[v], by exhaustive backtracking
    (choose the most constrained vertex first); certified None on exhaustion."""
    for v in g.vertices():
        if v not in lists:
            raise KeyError(f"missing list for vertex {v}")
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

    if rec():
        assert is_proper(g, color)
        assert all(color[v] in lists[v] for v in g.vertices())
        return color
    return None


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
    assert is_dynamic(g, out, k), "pair encoding failed the dynamic check"
    return out
