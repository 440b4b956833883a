"""Seeded triangulations, their radial graphs and nonplanar graphs for the
benchmark, independent of ``wdcolor``.

Edges are sorted ``(u, v)`` pairs with ``u < v`` on vertices ``0 .. n-1``.
The same arguments give the same graph.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def _sorted_edges(edges) -> Edges:
    return sorted((min(u, v), max(u, v)) for u, v in edges)


_OCTAHEDRON_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4),
                     (1, 4), (1, 5), (2, 5), (3, 5), (4, 5))
_OCTAHEDRON_FACES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
                     (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5))


def eulerian_triangulation(n: int, rng: random.Random
                           ) -> tuple[Edges, list[tuple[int, int, int]]]:
    """Maximal planar graph on ``n`` vertices (``n >= 6``, ``n % 3 == 0``)
    whose degrees are all even and at least 4, with its ``2n - 4`` faces.

    Starts from the octahedron.  Each step puts a triangle ``xyz`` into a
    random face ``abc`` and joins ``x`` to ``b, c``, ``y`` to ``c, a`` and
    ``z`` to ``a, b``: the new vertices get degree 4 and each corner gains
    two, so every degree stays even and at least 4.
    """
    if n < 6 or n % 3:
        raise ValueError("need a multiple of 3, at least 6")
    edges = set(_OCTAHEDRON_EDGES)
    faces = list(_OCTAHEDRON_FACES)
    for x in range(6, n, 3):
        y, z = x + 1, x + 2
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges.update([(x, y), (x, z), (y, z), (b, x), (c, x), (a, y),
                      (c, y), (a, z), (b, z)])
        faces += [(b, c, x), (c, a, y), (a, b, z),
                  (a, y, z), (b, x, z), (c, x, y), (x, y, z)]
    return _sorted_edges(edges), sorted(tuple(sorted(f)) for f in faces)


def split_triangulation(n: int, rng: random.Random
                        ) -> tuple[Edges, list[tuple[int, int, int]]]:
    """Maximal planar graph on ``n`` vertices (``n >= 6``) of minimum
    degree 4, with its ``2n - 4`` faces.

    Starts from the octahedron.  Each step splits a random edge ``uv``
    whose faces are ``uva`` and ``uvb``: the edge is replaced by a new
    vertex joined to ``u``, ``v``, ``a`` and ``b``.  The new vertex has
    degree 4, ``u`` and ``v`` keep theirs and ``a``, ``b`` gain one.
    """
    if n < 6:
        raise ValueError("need at least 6 vertices")
    edges = set(_OCTAHEDRON_EDGES)
    faces = list(_OCTAHEDRON_FACES)
    for w in range(6, n):
        i = rng.randrange(len(faces))
        face = faces[i]
        side = rng.randrange(3)
        u, v = face[side], face[(side + 1) % 3]
        a = face[(side + 2) % 3]
        j = next(j for j, f in enumerate(faces)
                 if j != i and u in f and v in f)
        b = next(x for x in faces[j] if x != u and x != v)
        edges.discard((min(u, v), max(u, v)))
        edges.update([(u, w), (v, w), (a, w), (b, w)])
        faces[i] = (u, a, w)
        faces[j] = (v, a, w)
        faces += [(u, b, w), (v, b, w)]
    return _sorted_edges(edges), sorted(tuple(sorted(f)) for f in faces)


TRIANGULATIONS = {"eulerian": eulerian_triangulation,
                  "split": split_triangulation}


def radial_graph(n: int, seed: int, kind: str = "eulerian"
                 ) -> tuple[int, Edges]:
    """Vertex-face incidence graph of a seeded triangulation on ``n``
    vertices (``kind`` names one of :data:`TRIANGULATIONS`): ``3n - 4``
    vertices, where ``0 .. n-1`` are the triangulation's vertices and each
    face is a further vertex joined to its three corners."""
    _, faces = TRIANGULATIONS[kind](n, random.Random(seed))
    edges = [(corner, n + i) for i, face in enumerate(faces)
             for corner in face]
    return n + len(faces), _sorted_edges(edges)


K5: Edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
K33: Edges = [(u, v) for u in range(3) for v in range(3, 6)]


def triangulation_plus_edge(n: int, seed: int) -> Edges:
    """A seeded :func:`split_triangulation` on ``n`` vertices plus one edge
    between two vertices that were not adjacent.  A maximal planar graph
    takes no further edge, so the result is nonplanar."""
    rng = random.Random(seed)
    edges, _ = split_triangulation(n, rng)
    present = set(edges)
    while True:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in present:
            return _sorted_edges(edges + [(u, v)])
