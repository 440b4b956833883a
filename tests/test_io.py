"""Tests for graph / coloring / list-assignment file formats."""

from __future__ import annotations

import pytest

from wdcolor.generators import named, random_planar
from wdcolor.graphs import Graph
from wdcolor.io import (
    FormatError,
    load_coloring,
    load_graph,
    parse_coloring,
    parse_graph,
    parse_lists,
    serialize_coloring,
    serialize_graph_dimacs,
    serialize_graph_json,
    serialize_lists,
)

DIMACS_C5 = """\
c five-cycle
p edge 5 5
e 1 2
e 2 3
e 3 4
e 4 5
e 5 1
"""


class TestDimacs:
    def test_parse_keeps_one_based_ids(self):
        g = parse_graph(DIMACS_C5)
        assert g.vertices() == (1, 2, 3, 4, 5)
        assert g.has_edge(5, 1)

    def test_blank_lines_and_comments_ignored(self):
        text = "c header\n\np edge 2 1\nc mid\n\ne 1 2\n"
        g = parse_graph(text)
        assert (g.n, g.m) == (2, 1)

    def test_isolated_vertices_survive(self):
        g = parse_graph("p edge 4 1\ne 1 2\n")
        assert g.n == 4
        assert g.degree(3) == 0

    def test_roundtrip_renumbers_sorted(self):
        g = Graph.from_edges([(10, 20), (20, 30)], vertices=[10, 20, 30, 40])
        text = serialize_graph_dimacs(g)
        back = parse_graph(text)
        assert back.vertices() == (1, 2, 3, 4)
        assert sorted(back.edges()) == [(1, 2), (2, 3)]

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_random(self, seed):
        # The generator hands out 0-based ids; serialization renumbers to
        # 1..n, after which the parse/serialize pair is a fixed point.
        g = random_planar(4 + seed * 2, 0.6, seed)
        once = parse_graph(serialize_graph_dimacs(g))
        assert (once.n, once.m) == (g.n, g.m)
        assert sorted(once.degree(v) for v in once.vertices()) == \
            sorted(g.degree(v) for v in g.vertices())
        assert sorted(once.edges()) == sorted(
            (min(a + 1, b + 1), max(a + 1, b + 1)) for a, b in g.edges())
        assert parse_graph(serialize_graph_dimacs(once)) == once

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("p edge 2 1\np edge 2 1\ne 1 2\n", 2, "duplicate p"),
        ("p edge 2\ne 1 2\n", 1, "p edge"),
        ("p col 2 1\ne 1 2\n", 1, "p edge"),
        ("p edge x 1\ne 1 2\n", 1, "integers"),
        ("p edge -1 0\n", 1, "nonnegative"),
        ("e 1 2\np edge 2 1\n", 1, "before the p line"),
        ("p edge 2 1\ne 1 2 3\n", 2, "e <u> <v>"),
        ("p edge 2 1\ne 1 two\n", 2, "integers"),
        ("p edge 2 1\ne 1 1\n", 2, "self-loop"),
        ("p edge 2 1\ne 1 3\n", 2, "out of range"),
        ("p edge 2 2\ne 1 2\ne 2 1\n", 3, "duplicate edge"),
        ("p edge 2 1\nq 1 2\n", 2, "unknown line type"),
        ("p edge 10 1\ne 1_0 2\n", 2, "plain decimal"),
        ("p edge 3 1\ne 01 2\n", 2, "plain decimal"),
        ("p edge 3 1\ne +1 2\n", 2, "plain decimal"),
        ("p edge 3 1\ne 1 \uff13\n", 2, "plain decimal"),
        ("p edge 0_3 1\ne 1 2\n", 1, "plain decimal"),
        ("p edge 3 +1\ne 1 2\n", 1, "plain decimal"),
        ("p edge \uff13 1\ne 1 2\n", 1, "plain decimal"),
    ])
    def test_malformed_lines_are_located(self, text, lineno, fragment):
        with pytest.raises(FormatError, match=fragment) as info:
            parse_graph(text)
        assert info.value.line == lineno
        assert f"line {lineno}:" in str(info.value)

    def test_missing_p_line(self):
        with pytest.raises(FormatError, match="missing p line"):
            parse_graph("c nothing here\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="promised 2 edges, found 1"):
            parse_graph("p edge 3 2\ne 1 2\n")


class TestJsonGraph:
    def test_parse_zero_based(self):
        g = parse_graph('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.vertices() == (0, 1, 2)

    def test_sniffing_picks_json_with_leading_space(self):
        g = parse_graph('   {"n": 2, "edges": [[0, 1]]}')
        assert (g.n, g.m) == (2, 1)

    def test_roundtrip(self):
        g = named("cube")
        assert parse_graph(serialize_graph_json(g)) == g

    def test_roundtrip_renumbers(self):
        g = Graph.from_edges([(5, 9)], vertices=[5, 9, 11])
        back = parse_graph(serialize_graph_json(g))
        assert back.vertices() == (0, 1, 2)
        assert back.has_edge(0, 1)

    @pytest.mark.parametrize("text,fragment", [
        ('{"n": 2}', '"edges" array'),
        ('{}', '"edges" array'),
        ('{"n": 2, "edges": 5}', '"edges" array'),
        ('{"n": 2, "edges": null}', '"edges" array'),
        ('{"n": 2, "edges": {"0": 1}}', '"edges" array'),
        ('{"edges": []}', '"n" must be'),
        ('{"n": -1, "edges": []}', '"n" must be'),
        ('{"n": 2, "edges": [[0]]}', "edge #0"),
        ('{"n": 2, "edges": [[0, "x"]]}', "edge #0"),
        ('{"n": 2, "edges": [[1, 1]]}', "self-loop"),
        ('{"n": 2, "edges": [[0, 2]]}', "out of range"),
        ('{"n": true, "edges": []}', '"n" must be'),
        ('{"n": 3, "edges": [[true, 2]]}', "edge #0"),
        ('{"n": 3, "edges": [[0, false]]}', "edge #0"),
        ('{"n": 3, "edges": [[0, 1], [1, 2], [1, 0]]}',
         "duplicate edge: #0 and #2"),
    ])
    def test_malformed_json_graphs(self, text, fragment):
        with pytest.raises(FormatError, match=fragment):
            parse_graph(text)

    def test_invalid_json_reports_line(self):
        with pytest.raises(FormatError, match="invalid JSON") as info:
            parse_graph('{"n": 2,\n  "edges": [[0, 1],]}')
        assert info.value.line is not None


class TestColoring:
    def test_roundtrip(self):
        c = {0: 1, 3: 2, 7: 6}
        assert parse_coloring(serialize_coloring(c)) == c

    def test_extra_keys_tolerated(self):
        text = '{"colors": {"0": 1}, "palette": 6, "verified": true}'
        assert parse_coloring(text) == {0: 1}

    @pytest.mark.parametrize("text,fragment", [
        ('{"palette": 6}', '"colors" object'),
        ('{"colors": [1, 2]}', '"colors" object'),
        ('{"colors": {"x": 1}}', "not an integer"),
        ('{"colors": {"0": "red"}}', "not an integer"),
        ('{"colors": {"0": true}}', "not an integer"),
        ('{"colors": {"0": 0}}', "below 1"),
        ('{"colors": {"0": -3}}', "below 1"),
        ('{"colors": {"1": 2, "01": 3}}', "'01' is not an integer"),
        ('{"colors": {" 1": 4}}', "' 1' is not an integer"),
        ('{"colors": {"1_0": 1}}', "'1_0' is not an integer"),
        ('{"colors": {"1": 2, "1": 3}}', "repeated key '1'"),
    ])
    def test_malformed_colorings(self, text, fragment):
        with pytest.raises(FormatError, match=fragment):
            parse_coloring(text)


class TestLists:
    def test_roundtrip_sorts(self):
        lists = {2: [3, 1, 2], 0: [6]}
        back = parse_lists(serialize_lists(lists))
        assert back == {0: [6], 2: [1, 2, 3]}

    @pytest.mark.parametrize("text,fragment", [
        ('{"colors": {}}', '"lists" object'),
        ('{"lists": {"a": [1]}}', "not an integer"),
        ('{"lists": {"0": 1}}', "integer array"),
        ('{"lists": {"0": [1, "x"]}}', "integer array"),
        ('{"lists": {"0": [1, true]}}', "integer array"),
        ('{"lists": {"0": [0, 1]}}', "below 1"),
        ('{"lists": {"1": [1], "+1": [2]}}', "'\\+1' is not an integer"),
        ('{"lists": {"10": [1], "1_0": [2]}}', "'1_0' is not an integer"),
        ('{"lists": {"0": [1], "0": [2]}}', "repeated key '0'"),
        ('{"lists": {"0": [1, 1, 2]}}', "repeats a color"),
    ])
    def test_malformed_lists(self, text, fragment):
        with pytest.raises(FormatError, match=fragment):
            parse_lists(text)


class TestFileLoading:
    def test_load_graph_and_coloring(self, tmp_path):
        gpath = tmp_path / "g.dimacs"
        gpath.write_text(DIMACS_C5)
        g = load_graph(gpath)
        assert g.n == 5
        cpath = tmp_path / "c.json"
        cpath.write_text(serialize_coloring({1: 1, 2: 2}))
        assert load_coloring(cpath) == {1: 1, 2: 2}

    @pytest.mark.parametrize("load", [load_graph, load_coloring])
    def test_a_file_that_is_not_utf8_is_a_format_error(self, tmp_path,
                                                        load):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"n": 1, "edges": [], "name": "\xe9"}'
                         .encode("latin-1"))
        with pytest.raises(FormatError, match="not UTF-8"):
            load(path)
