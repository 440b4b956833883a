"""Hub families for the construction layer's tests: planar graphs with
vertices of high degree, and the radial graphs of planar graphs.

Nothing reduces a radial graph, so the anchor construction runs on it at
full size, hubs included.
"""

from __future__ import annotations

from wdcolor.graphs import Graph
from wdcolor.planarity import is_planar


def _rim(d: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % d) for i in range(d)]


def wheel(d: int) -> Graph:
    """A d-cycle ``0 .. d-1`` and hub ``d`` joined to all of it."""
    return Graph.from_edges(_rim(d) + [(d, i) for i in range(d)])


def bipyramid(d: int) -> Graph:
    """A d-cycle and two apexes ``d``, ``d+1`` each joined to all of it."""
    return Graph.from_edges(_rim(d) + [(a, i) for a in (d, d + 1)
                                       for i in range(d)])


def fan(d: int) -> Graph:
    """A d-path ``0 .. d-1`` and hub ``d`` joined to all of it."""
    return Graph.from_edges([(i, i + 1) for i in range(d - 1)]
                            + [(d, i) for i in range(d)])


def k2n_joined(d: int) -> Graph:
    """K_{2,d} on hubs ``d``, ``d+1`` plus the edge between the hubs: each
    hub's neighborhood is a star centred at the other hub."""
    return Graph.from_edges([(a, i) for a in (d, d + 1) for i in range(d)]
                            + [(d, d + 1)])


def faces(g: Graph) -> list[tuple[int, ...]]:
    """Face boundaries of ``g``'s planar embedding, traced from the
    rotation of ``is_planar(g)`` as ``count_faces`` traces them."""
    rotation = is_planar(g).rotation
    assert rotation is not None, "faces of a nonplanar graph"
    index = {v: {u: i for i, u in enumerate(order)}
             for v, order in rotation.items()}
    seen: set[tuple[int, int]] = set()
    out = []
    for v in g.vertices():
        for u in rotation[v]:
            dart, face = (u, v), []
            while dart not in seen:
                seen.add(dart)
                face.append(dart[0])
                a, b = dart
                order = rotation[b]
                dart = (b, order[(index[b][a] + 1) % len(order)])
            if face:
                out.append(tuple(face))
    return out


def radial(g: Graph) -> Graph:
    """Vertex-face incidence graph of ``g``'s embedding: ``g``'s vertices,
    then one vertex per face, numbered from ``max(g) + 1``, joined to the
    face's distinct corners."""
    top = max(g.vertices()) + 1
    return Graph.from_edges([(c, top + i) for i, face in enumerate(faces(g))
                             for c in set(face)])


HUB_FAMILIES = {"wheel": wheel, "bipyramid": bipyramid, "fan": fan,
                "k2n-joined": k2n_joined}
