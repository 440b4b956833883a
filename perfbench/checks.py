"""The benchmark's checkers of colorings and of K5/K33 minor models,
written apart from ``wdcolor``.

They take the graph as an adjacency mapping ``vertex -> iterable of
neighbours`` (the ``.adj`` of a ``networkx.Graph`` works as is) and return
a list of problems, empty when the output is right.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

Adjacency = Mapping[int, Iterable[int]]

PALETTE = range(1, 7)

#: Problems reported at most for one coloring.
MAX_PROBLEMS = 5


def coloring_problems(adj: Adjacency,
                      coloring: Mapping[int, int]) -> list[str]:
    """Problems with a claimed 3-weak-dynamic coloring in colors 1..6:
    every vertex is colored, no foreign vertex is, colors lie in 1..6, and
    each vertex of degree d sees at least min(d, 3) colors around it."""
    problems: list[str] = []
    for v in coloring:
        if v not in adj:
            problems.append(f"colored vertex {v} is not in the graph")
    for v, nbrs in adj.items():
        if len(problems) >= MAX_PROBLEMS:
            break
        col = coloring.get(v)
        if col is None:
            problems.append(f"vertex {v} is uncolored")
            continue
        if isinstance(col, bool) or col not in PALETTE:
            problems.append(f"vertex {v} has color {col!r}, not in 1..6")
            continue
        nbrs = list(nbrs)
        seen = {coloring.get(u) for u in nbrs}
        need = min(len(nbrs), 3)
        if len(seen) < need:
            problems.append(
                f"vertex {v} of degree {len(nbrs)} sees {len(seen)} colors,"
                f" needs {need}")
    return problems[:MAX_PROBLEMS]


def _connected(adj: Adjacency, part: set[int]) -> bool:
    start = next(iter(part))
    seen = {start}
    todo = [start]
    while todo:
        for u in adj[todo.pop()]:
            if u in part and u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == part


def minor_model_problems(adj: Adjacency, kind: str | None,
                         branch_sets) -> list[str]:
    """Problems with a claimed K5 or K33 minor model: the branch sets are
    nonempty sets of the graph's vertices, disjoint and each connected, and
    every pair that K5 (all ten) or K33 (the first three sets against the
    last three) needs is joined by an edge."""
    sizes = {"K5": 5, "K33": 6}
    if kind not in sizes:
        return [f"no K5 or K33 minor model (kind {kind!r})"]
    sets = [set(b) for b in branch_sets or ()]
    if len(sets) != sizes[kind]:
        return [f"{kind} model has {len(sets)} branch sets"]
    problems = []
    for i, part in enumerate(sets):
        if not part or not part <= adj.keys():
            problems.append(f"branch set {i} is empty or leaves the graph")
        elif not _connected(adj, part):
            problems.append(f"branch set {i} is not connected")
    for i, j in combinations(range(len(sets)), 2):
        if sets[i] & sets[j]:
            problems.append(f"branch sets {i} and {j} overlap")
    pairs = (combinations(range(5), 2) if kind == "K5"
             else ((i, j) for i in range(3) for j in range(3, 6)))
    for i, j in pairs:
        if not any(u in sets[j] for v in sets[i] for u in adj.get(v, ())):
            problems.append(f"branch sets {i} and {j} are not joined")
    return problems[:MAX_PROBLEMS]
