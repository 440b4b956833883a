"""The left-right planarity test, iterative, on a plain adjacency mapping.

This is the LR test of Brandes, "The Left-Right Planarity Test" (2009),
after de Fraysseix, Ossona de Mendez & Rosenstiehl, "Trémaux trees and
planarity" (2006).  Three depth-first passes orient the graph and compute
lowpoints, test for a left-right partition with a stack of conflict pairs,
and build the rotation system.  Each pass is a loop over an explicit stack
with a per-vertex index into a fixed list, so a deep DFS tree costs no
recursion and a hub is never rescanned from the start of its list.

Roots are taken, and neighbours visited, in ascending order, and a tie in
the nesting order keeps that order.  The rotation is therefore the one
``networkx.check_planarity`` gives on a graph whose vertices and edges were
added in ascending order, each vertex's list starting at the same
neighbour: the leftmost one, which the embedding pass tracks.

Inside, vertex ``order[i]`` is ``i`` and every per-vertex or per-edge value
sits in a list.  Edge ``e`` is oriented ``tail[e] -> head[e]``; a conflict
pair is a 4-slot list ``[left.low, left.high, right.low, right.high]`` of
edges, an empty interval having both ends ``None``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping


def lr_planarity(adj: Mapping[Hashable, Iterable[Hashable]],
                 embed: bool = True) -> dict | None:
    """Left-right planarity test of the simple graph ``adj``: each vertex
    mapped to its neighbours, every edge listed at both ends, the vertices
    mutually comparable.

    Returns ``None`` when the graph is nonplanar.  Otherwise returns the
    rotation ``{v: clockwise neighbours}``, one tuple per vertex in
    ascending order, or ``{}`` when ``embed`` is false: the test then
    stops after its testing pass, which is all a verdict needs.
    """
    n = len(adj)
    if n > 2 and sum(len(nb) for nb in adj.values()) > 2 * (3 * n - 6):
        return None
    order = sorted(adj)
    index = {v: i for i, v in enumerate(order)}
    nbrs = [sorted(map(index.__getitem__, adj[v])) for v in order]

    # -- orientation: DFS heights, lowpoints and the nesting order ----------
    height = [-1] * n
    parent_edge = [-1] * n  # the tree edge into each vertex
    tail: list[int] = []
    head: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]  # by ascending head
    ind = [0] * n
    roots = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        returning = False  # the tree edge at ind[v] has just been finished
        while stack:
            v = stack.pop()
            hv = height[v]
            e = parent_edge[v]
            nb = nbrs[v]
            i = ind[v]
            while i < len(nb):
                w = nb[i]
                if returning:
                    returning = False
                    vw = parent_edge[w]
                else:
                    hw = height[w]
                    if hw >= 0 and hw >= hv - 1:
                        # the parent, or a descendant with its back edge
                        i += 1
                        continue
                    vw = len(tail)
                    tail.append(v)
                    head.append(w)
                    lowpt2.append(hv)
                    nesting.append(0)
                    out[v].append(vw)
                    if hw < 0:  # tree edge
                        lowpt.append(hv)
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt.append(hw)  # back edge
                low = lowpt[vw]
                nesting[vw] = 2 * low + (lowpt2[vw] < hv)  # +1 if chordal
                if e >= 0:  # fold vw's lowpoints into the parent edge
                    le = lowpt[e]
                    if low < le:
                        lowpt2[e] = min(le, lowpt2[vw])
                        lowpt[e] = low
                    elif low > le:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1
            else:
                returning = True
    del lowpt2
    m = len(tail)
    by_nesting = nesting.__getitem__
    ordered = [sorted(es, key=by_nesting) for es in out]

    # -- testing: the left-right partition --------------------------------
    S: list[list] = []  # stack of conflict pairs
    stack_bottom: list = [None] * m
    lowpt_edge = list(range(m))  # a back edge is its own
    ref: list = [None] * m
    side = [1] * m

    def add_constraints(ei: int, e: int) -> bool:
        P: list = [None, None, None, None]
        bottom = stack_bottom[ei]
        low_e = lowpt[e]
        # merge the return edges of ei into P.right
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > low_e:  # merge intervals
                if P[2] is None and P[3] is None:  # topmost interval
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge the conflicting return edges of e1 .. e(i-1) into P.left
        low_i = lowpt[ei]
        while S:
            Q = S[-1]
            if not ((Q[0] is not None or Q[1] is not None)
                    and lowpt[Q[1]] > low_i) and \
                    not ((Q[2] is not None or Q[3] is not None)
                         and lowpt[Q[3]] > low_i):
                break
            S.pop()
            if (Q[2] is not None or Q[3] is not None) \
                    and lowpt[Q[3]] > low_i:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if (Q[2] is not None or Q[3] is not None) \
                    and lowpt[Q[3]] > low_i:
                return False
            # merge the interval below lowpt(ei) into P.right
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:  # topmost interval
                P[1] = Q[1]
            elif P[0] is not None:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] is not None or P[1] is not None or P[2] is not None \
                or P[3] is not None:
            S.append(P)
        return True

    def lowest(P: list) -> int:
        """Lowest lowpoint of the return edges in conflict pair ``P``."""
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        hu = height[u]
        # drop the conflict pairs whose return edges all end at u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # trim the next pair's intervals
            P = S[-1]
            while P[1] is not None and head[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and head[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        # e takes the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ind = [0] * n
    for root in roots:
        stack = [root]
        returning = False
        while stack:
            v = stack.pop()
            hv = height[v]
            e = parent_edge[v]
            es = ordered[v]
            i = ind[v]
            while i < len(es):
                ei = es[i]
                if returning:
                    returning = False
                else:
                    stack_bottom[ei] = S[-1] if S else None
                    w = head[ei]
                    if height[w] > hv:  # tree edge
                        ind[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    S.append([None, None, ei, ei])  # back edge
                if lowpt[ei] < hv:  # ei has a return edge
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            else:
                if e >= 0:
                    remove_back_edges(e)
                returning = True
    if not embed:
        return {}

    # -- embedding -----------------------------------------------------------
    # each side relative to a reference edge becomes an absolute one
    for e in range(m):
        r = ref[e]
        if r is not None:
            chain = [e]
            while ref[r] is not None:
                chain.append(r)
                r = ref[r]
            s = side[r]
            for x in reversed(chain):
                s = side[x] = side[x] * s
                ref[x] = None
        if side[e] < 0:
            nesting[e] = -nesting[e]
    ordered = [sorted(es, key=by_nesting) for es in out]

    # half-edge 2e runs tail[e] -> head[e], 2e + 1 back; each vertex's
    # half-edges form a cyclic list, linked both ways
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    leftmost = [-1] * n
    for v, es in enumerate(ordered):
        if es:
            hs = [2 * e for e in es]
            for a, b in zip(hs, hs[1:] + hs[:1]):
                cw[a] = b
                ccw[b] = a
            leftmost[v] = hs[0]
    left_ref = [0] * n
    right_ref = [0] * n
    ind = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            es = ordered[v]
            i = ind[v]
            while i < len(es):
                e = es[i]
                i += 1
                w = head[e]
                h = 2 * e + 1  # w -> v, to be placed around w
                if height[w] > height[v]:  # tree edge: v is w's leftmost
                    x = leftmost[w]
                    if x >= 0:
                        p = ccw[x]
                        cw[p] = h
                        ccw[h] = p
                        cw[h] = x
                        ccw[x] = h
                    else:
                        cw[h] = ccw[h] = h
                    leftmost[w] = h
                    left_ref[v] = right_ref[v] = 2 * e
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[e] == 1:  # just clockwise of right_ref
                    x = right_ref[w]
                    q = cw[x]
                    cw[x] = h
                    ccw[h] = x
                    cw[h] = q
                    ccw[q] = h
                else:  # just counterclockwise of left_ref
                    x = left_ref[w]
                    p = ccw[x]
                    cw[p] = h
                    ccw[h] = p
                    cw[h] = x
                    ccw[x] = h
                    if leftmost[w] == x:
                        leftmost[w] = h
                    left_ref[w] = h

    ends = []  # the vertex each half-edge points to
    for t, hd in zip(tail, head):
        ends.append(order[hd])
        ends.append(order[t])
    rotation: dict = {}
    for v, start in zip(order, leftmost):
        around = []
        if start >= 0:
            around.append(ends[start])
            h = cw[start]
            while h != start:
                around.append(ends[h])
                h = cw[h]
        rotation[v] = tuple(around)
    return rotation
