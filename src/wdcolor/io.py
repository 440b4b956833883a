"""File formats: graphs, colorings, and list assignments.

Two graph formats are supported and sniffed automatically:

* DIMACS-style text — a header ``p edge <n> <m>`` followed by ``m`` lines
  ``e <u> <v>`` with 1-based vertex ids ``1..n``; ``c`` lines are comments.
  Vertex ids are kept exactly as written (1-based).
* JSON — ``{"n": <int>, "edges": [[u, v], ...]}`` with 0-based vertex ids
  ``0..n-1``.

Colorings are JSON ``{"colors": {"<vid>": <int>, ...}}`` and list
assignments are JSON ``{"lists": {"<vid>": [<int>, ...], ...}}``; their
vertex ids must match the ids of the graph file they accompany; colors
are positive, and a list repeats none.  Every number of a DIMACS file and
every vertex id key is written as ``str(int)`` writes it.  JSON ``true``
and ``false`` are not integers here, and no key or edge may repeat.  All
parse errors, a file not in UTF-8 too, raise :class:`FormatError`, which
carries a 1-based line number for text input.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from .graphs import Graph
from .verify import Coloring


class FormatError(ValueError):
    """Malformed input file; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _is_int(x: object) -> bool:
    """An integer, but not a bool (which Python counts as one)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _plain_int(text: str) -> int | None:
    """``int(text)`` if ``str`` writes that back as ``text``, else None:
    ``int`` also reads " 1", "01", "+1", "1_0" and non-ASCII digits."""
    try:
        return int(text) if str(int(text)) == text else None
    except ValueError:
        return None


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict; ``json.loads`` alone would keep the last
    of a repeated key's values."""
    out = dict(pairs)
    if len(out) != len(pairs):
        [(key, _)] = Counter(k for k, _ in pairs).most_common(1)
        raise FormatError(f"repeated key {key!r}")
    return out


def _load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc


def _parse_graph_json(text: str) -> Graph:
    data = _load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise FormatError('graph JSON needs an "edges" array')
    n = data.get("n")
    if not _is_int(n) or n < 0:
        raise FormatError('"n" must be a nonnegative integer')
    edges: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    for i, pair in enumerate(data["edges"]):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(map(_is_int, pair))):
            raise FormatError(f"edge #{i} is not a pair of integers")
        u, v = pair
        if u == v:
            raise FormatError(f"edge #{i} is a self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge #{i} endpoint out of range 0..{n - 1}")
        j = index.setdefault((min(u, v), max(u, v)), i)
        if j != i:
            raise FormatError(f"duplicate edge: #{j} and #{i} both join"
                              f" {u} and {v}")
        edges.append((u, v))
    return Graph.from_edges(edges, vertices=range(n))


def _parse_graph_dimacs(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise FormatError("duplicate p line", line=lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError('expected "p edge <n> <m>"', line=lineno)
            n, m = _plain_int(fields[2]), _plain_int(fields[3])
            if n is None or m is None or min(n, m) < 0:
                raise FormatError("p line counts must be nonnegative"
                                  " integers in plain decimal", line=lineno)
        elif fields[0] == "e":
            if n is None:
                raise FormatError("e line before the p line", line=lineno)
            if len(fields) != 3:
                raise FormatError('expected "e <u> <v>"', line=lineno)
            u, v = _plain_int(fields[1]), _plain_int(fields[2])
            if u is None or v is None:
                raise FormatError("edge endpoints must be integers in plain"
                                  " decimal", line=lineno)
            if u == v:
                raise FormatError(f"self-loop at {u}", line=lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"endpoint out of range 1..{n}",
                                  line=lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise FormatError(f"duplicate edge {u} {v}", line=lineno)
            seen.add(key)
            edges.append((u, v))
        else:
            raise FormatError(f"unknown line type {fields[0]!r}", line=lineno)
    if n is None:
        raise FormatError("missing p line")
    if m is not None and len(edges) != m:
        raise FormatError(f"p line promised {m} edges, found {len(edges)}")
    return Graph.from_edges(edges, vertices=range(1, n + 1))


def parse_graph(text: str) -> Graph:
    """Parse a graph in either supported format (sniffed by first byte)."""
    if text.lstrip().startswith("{"):
        return _parse_graph_json(text)
    return _parse_graph_dimacs(text)


def load_graph(path: str | Path) -> Graph:
    return parse_graph(_read_text(path))


def serialize_graph_dimacs(g: Graph) -> str:
    """DIMACS text; vertex ids are renumbered 1..n in sorted order."""
    ids = {v: i + 1 for i, v in enumerate(sorted(g.vertices()))}
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in sorted((min(ids[a], ids[b]), max(ids[a], ids[b]))
                       for a, b in g.edges()):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def serialize_graph_json(g: Graph) -> str:
    """JSON text; vertex ids are renumbered 0..n-1 in sorted order."""
    ids = {v: i for i, v in enumerate(sorted(g.vertices()))}
    edges = sorted((min(ids[a], ids[b]), max(ids[a], ids[b]))
                   for a, b in g.edges())
    return json.dumps({"n": g.n, "edges": [list(e) for e in edges]},
                      indent=2) + "\n"


def _int_keyed(obj: dict, what: str) -> dict[int, object]:
    out: dict[int, object] = {}
    for key, value in obj.items():
        vid = _plain_int(key)
        if vid is None:
            raise FormatError(f"{what} key {key!r} is not an integer in"
                              f" plain decimal")
        out[vid] = value
    return out


def parse_coloring(text: str) -> Coloring:
    """Coloring JSON ``{"colors": {"<vid>": int}}`` to a dict."""
    data = _load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("colors"), dict):
        raise FormatError('coloring JSON needs a "colors" object')
    out: Coloring = {}
    for vid, color in _int_keyed(data["colors"], "color").items():
        if not _is_int(color):
            raise FormatError(f"color of vertex {vid} is not an integer")
        if color < 1:
            raise FormatError(f"color of vertex {vid} is below 1")
        out[vid] = color
    return out


def load_coloring(path: str | Path) -> Coloring:
    return parse_coloring(_read_text(path))


def serialize_coloring(c: Coloring) -> str:
    return json.dumps(
        {"colors": {str(v): c[v] for v in sorted(c)}}, indent=2) + "\n"


def parse_lists(text: str) -> dict[int, list[int]]:
    """List-assignment JSON ``{"lists": {"<vid>": [ints]}}`` to a dict."""
    data = _load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("lists"), dict):
        raise FormatError('list-assignment JSON needs a "lists" object')
    out: dict[int, list[int]] = {}
    for vid, colors in _int_keyed(data["lists"], "list").items():
        if not isinstance(colors, list) or not all(map(_is_int, colors)):
            raise FormatError(f"list of vertex {vid} is not an integer array")
        if any(x < 1 for x in colors):
            raise FormatError(f"list of vertex {vid} has a color below 1")
        if len(set(colors)) != len(colors):
            raise FormatError(f"list of vertex {vid} repeats a color")
        out[vid] = list(colors)
    return out


def serialize_lists(lists: dict[int, list[int]]) -> str:
    return json.dumps(
        {"lists": {str(v): sorted(lists[v]) for v in sorted(lists)}},
        indent=2) + "\n"
