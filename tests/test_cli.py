"""End-to-end tests of the command-line interface.

Protocol under test: structured output on stdout (JSON; CSV for bench;
a graph file for gen), diagnostics on stderr, exit codes 0 = success,
1 = usage/input error, 2 = verification failure, 3 = invariant breach.
"""

from __future__ import annotations

import csv
import io
import json

import pytest
from click.testing import CliRunner

from hubs import bipyramid, radial
from oracles import reduce_fully
from wdcolor.cli import cli
from wdcolor.generators import random_planar
from wdcolor.graphs import Graph
from wdcolor.io import (parse_coloring, parse_graph, serialize_coloring,
                        serialize_graph_json)
from wdcolor.reductions import ReductionStep


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    result = runner.invoke(cli, list(args), catch_exceptions=False, **kwargs)
    return result


class TestGen:
    def test_named_json(self, runner):
        res = invoke(runner, "gen", "--name", "cube")
        assert res.exit_code == 0
        g = parse_graph(res.stdout)
        assert (g.n, g.m) == (8, 12)
        assert "n=8 m=12" in res.stderr

    def test_named_dimacs(self, runner):
        res = invoke(runner, "gen", "--name", "c5", "--fmt", "dimacs")
        assert res.exit_code == 0
        assert res.stdout.startswith("p edge 5 5")

    def test_random_echoes_seed_and_is_deterministic(self, runner):
        a = invoke(runner, "gen", "--random", "--n", "10", "--seed", "7")
        b = invoke(runner, "gen", "--random", "--n", "10", "--seed", "7")
        assert a.exit_code == 0
        assert a.stdout == b.stdout
        assert "seed=7" in a.stderr

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "g.json"
        res = invoke(runner, "gen", "--name", "k4", "-o", str(out))
        assert res.exit_code == 0
        assert res.stdout == ""
        assert parse_graph(out.read_text()).n == 4

    def test_requires_exactly_one_source(self, runner):
        assert invoke(runner, "gen").exit_code == 1
        assert invoke(runner, "gen", "--name", "c5",
                      "--random").exit_code == 1

    def test_unknown_name_is_usage_error(self, runner):
        res = invoke(runner, "gen", "--name", "mystery")
        assert res.exit_code == 1

    @pytest.mark.parametrize("density", ["nan", "3", "-1"])
    def test_density_outside_unit_interval_is_usage_error(self, runner,
                                                          density):
        res = invoke(runner, "gen", "--random", "--density", density)
        assert res.exit_code == 1
        assert "Usage:" in res.stderr
        assert "Invalid value for '--density'" in res.stderr
        assert res.stdout == ""

    def test_nonpositive_n_is_usage_error(self, runner):
        res = invoke(runner, "gen", "--random", "--n", "0")
        assert res.exit_code == 1
        assert "Invalid value for '--n'" in res.stderr


@pytest.fixture()
def cube_file(runner, tmp_path):
    path = tmp_path / "cube.json"
    invoke(runner, "gen", "--name", "cube", "-o", str(path))
    return path


@pytest.fixture()
def c5_file(runner, tmp_path):
    path = tmp_path / "c5.json"
    invoke(runner, "gen", "--name", "c5", "-o", str(path))
    return path


class TestColorAndVerify:
    def test_color_verify_roundtrip(self, runner, cube_file, tmp_path):
        res = invoke(runner, "color", str(cube_file))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["verified"] is True
        assert payload["palette"] <= 6
        # The color output doubles as a coloring file.
        coloring_path = tmp_path / "c.json"
        coloring_path.write_text(res.stdout)
        check = invoke(runner, "verify", str(cube_file), str(coloring_path))
        assert check.exit_code == 0
        assert json.loads(check.stdout)["valid"] is True

    def test_color_trace_out(self, runner, tmp_path):
        gpath = tmp_path / "g.json"
        invoke(runner, "gen", "--random", "--n", "10", "--density", "0.5",
               "--seed", "3", "-o", str(gpath))
        tpath = tmp_path / "trace.json"
        res = invoke(runner, "color", str(gpath), "--trace-out", str(tpath))
        assert res.exit_code == 0
        steps = json.loads(tpath.read_text())["steps"]
        assert steps
        assert all("kind" in s and "matched" in s for s in steps)

    def test_color_builds_step_records_only_for_trace_out(
            self, runner, tmp_path, monkeypatch):
        calls = []
        record = ReductionStep.to_json_dict

        def spy(step, before):
            calls.append(step.kind)
            return record(step, before)

        monkeypatch.setattr(ReductionStep, "to_json_dict", spy)
        gpath, tpath = tmp_path / "g.json", tmp_path / "trace.json"
        gpath.write_text(serialize_graph_json(random_planar(60, 0.6, 5)))
        plain = invoke(runner, "color", str(gpath))
        assert plain.exit_code == 0 and calls == []
        traced = invoke(runner, "color", str(gpath), "--trace-out",
                        str(tpath))
        assert traced.stdout == plain.stdout
        steps = json.loads(tpath.read_text())["steps"]
        assert len(steps) == len(calls) > 10

    def test_color_rejects_nonplanar(self, runner, tmp_path):
        gpath = tmp_path / "k5.json"
        invoke(runner, "gen", "--name", "k5", "-o", str(gpath))
        res = invoke(runner, "color", str(gpath))
        assert res.exit_code == 1
        assert "rejected" in res.stderr

    def test_verify_flags_violations(self, runner, c5_file, tmp_path):
        bad = tmp_path / "bad.json"
        # Constant coloring: every vertex sees one color, needs two.
        bad.write_text(serialize_coloring({v: 1 for v in range(5)}))
        res = invoke(runner, "verify", str(c5_file), str(bad), "--k", "2")
        assert res.exit_code == 2
        payload = json.loads(res.stdout)
        assert payload["valid"] is False
        assert len(payload["violations"]) == 5
        assert payload["violations"][0] == {"vertex": 0, "seen": 1,
                                            "required": 2}
        assert res.stderr.count("sees") == 5

    def test_verify_proper_mode(self, runner, c5_file, tmp_path):
        improper = tmp_path / "imp.json"
        improper.write_text(
            serialize_coloring({0: 1, 1: 1, 2: 2, 3: 2, 4: 3}))
        res = invoke(runner, "verify", str(c5_file), str(improper),
                     "--mode", "proper")
        assert res.exit_code == 2
        payload = json.loads(res.stdout)
        assert payload["proper"] is False
        assert payload["improper_edges"] == [[0, 1], [2, 3]]

    def test_verify_dynamic_mode_checks_both(self, runner, c5_file,
                                             tmp_path):
        rainbow = tmp_path / "rainbow.json"
        rainbow.write_text(
            serialize_coloring({v: v + 1 for v in range(5)}))
        res = invoke(runner, "verify", str(c5_file), str(rainbow),
                     "--mode", "dynamic", "--k", "2")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["proper"] is True
        assert payload["weak_dynamic"] is True

    def test_verify_color_below_one_is_usage_error(self, runner, c5_file,
                                                   tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text('{"colors": {"0": 0, "1": 1, "2": 2, "3": 1,'
                        ' "4": 2}}')
        res = invoke(runner, "verify", str(c5_file), str(zero))
        assert res.exit_code == 1
        assert "below 1" in res.stderr
        assert res.stdout == ""

    def test_verify_incomplete_coloring_is_usage_error(self, runner,
                                                       c5_file, tmp_path):
        partial = tmp_path / "partial.json"
        partial.write_text(serialize_coloring({0: 1}))
        res = invoke(runner, "verify", str(c5_file), str(partial))
        assert res.exit_code == 1
        assert "misses" in res.stderr


class TestSolve:
    def test_five_cycle_k2(self, runner, c5_file):
        res = invoke(runner, "solve", str(c5_file), "--k", "2")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["wd"] == 3
        assert len(payload["witness"]) == 5

    def test_infeasible_cap_reports_null(self, runner, c5_file):
        res = invoke(runner, "solve", str(c5_file), "--k", "2",
                     "--max-colors", "2")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["wd"] is None
        assert payload["witness"] is None
        assert "no 2-weak-dynamic" in res.stderr

    def test_zero_max_colors_is_usage_error(self, runner, c5_file):
        res = invoke(runner, "solve", str(c5_file), "--max-colors", "0")
        assert res.exit_code == 1
        assert "--max-colors" in res.stderr
        assert "Traceback" not in res.output
        assert res.stdout == ""

    def test_k_below_one_is_usage_error(self, runner, c5_file, tmp_path):
        mono = tmp_path / "mono.json"
        mono.write_text(serialize_coloring({v: 1 for v in range(5)}))
        for args in (("solve", str(c5_file)),
                     ("verify", str(c5_file), str(mono))):
            for k in ("0", "-2"):
                res = invoke(runner, *args, "--k", k)
                assert res.exit_code == 1
                assert "--k" in res.stderr
                assert "Traceback" not in res.output
                assert res.stdout == ""


class TestReduce:
    def test_five_cycle_reduces(self, runner, c5_file):
        res = invoke(runner, "reduce", str(c5_file))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["input"] == {"n": 5, "m": 5}
        assert payload["steps_applied"] >= 1
        assert payload["kinds"][0].startswith("L1b")
        assert "steps" not in payload

    def test_an_irreducible_graph_is_its_own_core(self, runner, tmp_path):
        g = radial(bipyramid(6))
        path = tmp_path / "g.json"
        path.write_text(serialize_graph_json(g))
        res = invoke(runner, "reduce", str(path))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["steps_applied"] == 0 and payload["kinds"] == []
        assert payload["core"] == {
            "n": g.n, "m": g.m, "vertices": sorted(g.vertices()),
            "edges": sorted([min(u, v), max(u, v)] for u, v in g.edges())}

    def test_trace_includes_steps(self, runner, c5_file):
        res = invoke(runner, "reduce", str(c5_file), "--trace")
        payload = json.loads(res.stdout)
        assert len(payload["steps"]) == payload["steps_applied"]
        assert payload["steps"][0]["kind"] == payload["kinds"][0]


class TestCheckLemmas:
    def test_single_kind(self, runner):
        res = invoke(runner, "check-lemmas", "--kind", "L4", "--budget", "3")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["kind"] == "L4"
        assert payload["ok"] is True
        assert payload["lift_failures"] == []
        assert payload["lifts_succeeded"] == payload["colorings_checked"] > 0
        assert "ok=True" in res.stderr

    def test_full_kind_string_accepted(self, runner):
        res = invoke(runner, "check-lemmas", "--kind", "L1a-degree1",
                     "--budget", "2")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["ok"] is True

    def test_all_kinds_with_small_budget(self, runner):
        res = invoke(runner, "check-lemmas", "--budget", "1")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert len(payload["reports"]) == 10
        assert all(r["ok"] for r in payload["reports"])

    def test_unknown_kind_is_usage_error(self, runner):
        res = invoke(runner, "check-lemmas", "--kind", "L99")
        assert res.exit_code == 1

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_is_usage_error(self, runner, budget):
        res = invoke(runner, "check-lemmas", "--kind", "L4",
                     "--budget", budget)
        assert res.exit_code == 1
        assert "--budget" in res.stderr
        assert "hosts=" not in res.stderr
        assert res.stdout == ""


class TestBench:
    def test_small_suite_csv(self, runner):
        res = invoke(runner, "bench", "--seed", "1")
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert len(rows) == 10
        assert {"name", "n", "m", "wd3_exact", "pipeline_colors",
                "micros"} <= set(rows[0])
        for row in rows:
            assert int(row["pipeline_colors"]) <= 6
            assert int(row["wd3_exact"]) <= int(row["pipeline_colors"])
        # Seeded instance names record the seed used.
        assert any("-s" in row["name"] for row in rows)
        assert "seed 1" in res.stderr


class TestErrorPaths:
    def test_missing_file(self, runner):
        res = invoke(runner, "solve", "/nonexistent/graph.json")
        assert res.exit_code == 1

    def test_malformed_graph_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.dimacs"
        bad.write_text("p edge 2 1\ne 1 7\n")
        res = invoke(runner, "color", str(bad))
        assert res.exit_code == 1
        assert "line 2" in res.stderr

    @pytest.mark.parametrize("data", [
        b"p edge 10 1\ne 1_0 2\n",
        b'{"n": 2, "edges": null}',
        b"p edge 2 1\nc \xe9\ne 1 2\n",
    ])
    def test_malformed_graph_file_exits_one_with_a_message(self, runner,
                                                           tmp_path, data):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(data)
        res = invoke(runner, "color", str(bad))
        assert res.exit_code == 1
        assert res.stderr.startswith(f"{bad}: ")

    def test_help_exits_zero(self, runner):
        res = invoke(runner, "--help")
        assert res.exit_code == 0
        for sub in ("gen", "verify", "solve", "color", "reduce",
                    "check-lemmas", "bench"):
            assert sub in res.stdout


def test_reduce_trace_equals_reduce_fully(runner, tmp_path):
    # the second input has two components and an isolated vertex, which
    # the command reduces together in one graph
    a, b = random_planar(150, 0.8, 5), random_planar(100, 1.0, 6)
    apart = Graph.from_edges(
        list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()],
        vertices=range(a.n + b.n + 1))
    assert len(apart.connected_components()) == 3
    for g in (random_planar(300, 0.8, 5), apart):
        path = tmp_path / "g.json"
        path.write_text(serialize_graph_json(g))
        res = invoke(runner, "reduce", str(path), "--trace")
        assert res.exit_code == 0
        core, stack = reduce_fully(g)
        steps = [step for _, step in stack]
        assert json.loads(res.stdout) == {
            "input": {"n": g.n, "m": g.m},
            "steps_applied": len(steps),
            "kinds": [s.kind for s in steps],
            "core": {"n": core.n, "m": core.m,
                     "vertices": sorted(core.vertices()),
                     "edges": sorted([min(u, v), max(u, v)]
                                     for u, v in core.edges())},
            "steps": [s.to_json_dict(before) for before, s in stack],
        }
        assert len(steps) > 100
