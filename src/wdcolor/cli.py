"""Command-line interface.

One executable, seven subcommands: ``gen`` (named or seeded random planar
graphs), ``verify`` (check a coloring file), ``solve`` (exact values),
``color`` (the constructive six-color routine), ``reduce`` (shrink to an
irreducible core, optionally with a step trace), ``check-lemmas`` (certify
the reduction rules over generated hosts), and ``bench`` (a small CSV
benchmark).

Protocol: structured output (JSON, or CSV for ``bench``, or a graph file
for ``gen``) goes to stdout; human diagnostics go to stderr.  Exit codes:
0 success, 1 usage or input error, 2 verification failure, 3 internal
invariant breach.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
import sys
import time
from dataclasses import asdict

import click

from .exact import wd_number_exact
from .generators import NAMED_GRAPH_NAMES, named, random_planar
from .graphs import EditableGraph, Graph
from .io import (FormatError, load_coloring, load_graph,
                 serialize_graph_dimacs, serialize_graph_json)
from .pipeline import (InvariantBreachError, NonplanarInputError,
                       wd3_color_planar)
from .reductions import SHORT_KINDS, certify_lemma, reduce_in_place, unwind
from .verify import is_weak_dynamic, palette_size

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BREACH = 3

# The spec for this executable reserves 1 for usage errors and 2 for
# verification failures; click's default usage-error code is 2.
click.exceptions.UsageError.exit_code = EXIT_USAGE


def _fail(code: int, message: str) -> None:
    click.echo(message, err=True)
    sys.exit(code)


def _not_nan(ctx: click.Context, param: click.Parameter,
             value: float) -> float:
    # FloatRange compares, and every comparison with NaN is false
    if math.isnan(value):
        raise click.BadParameter("nan is not a number", ctx, param)
    return value


def _emit(obj: object) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


def _load_graph_or_die(path: str) -> Graph:
    try:
        return load_graph(path)
    except FormatError as exc:
        _fail(EXIT_USAGE, f"{path}: {exc}")
    except OSError as exc:
        _fail(EXIT_USAGE, str(exc))
    raise AssertionError("unreachable")


@click.group()
def cli() -> None:
    """Weak-dynamic coloring toolkit."""


@cli.command()
@click.option("--name", type=click.Choice(NAMED_GRAPH_NAMES),
              help="Pick a graph from the fixed catalog.")
@click.option("--random", "use_random", is_flag=True,
              help="Generate a seeded random planar graph instead.")
@click.option("--n", type=click.IntRange(min=1), default=12,
              show_default=True, help="Vertex count for --random.")
@click.option("--density", type=click.FloatRange(0, 1), default=0.7,
              show_default=True, callback=_not_nan,
              help="Target edge density (fraction of 3n-6) for --random.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Random seed for --random.")
@click.option("--fmt", "--format", "fmt",
              type=click.Choice(["json", "dimacs"]), default="json",
              show_default=True, help="Output graph format.")
@click.option("-o", "--output", type=click.Path(dir_okay=False),
              help="Write to a file instead of stdout.")
def gen(name: str | None, use_random: bool, n: int, density: float,
        seed: int, fmt: str, output: str | None) -> None:
    """Generate a graph file."""
    if (name is None) == (not use_random):
        raise click.UsageError("choose exactly one of --name or --random")
    if name is not None:
        g = named(name)
        click.echo(f"named graph {name}: n={g.n} m={g.m}", err=True)
    else:
        g = random_planar(n, density, seed)
        click.echo(f"random planar graph: n={g.n} m={g.m}"
                   f" density={density} seed={seed}", err=True)
    text = (serialize_graph_json(g) if fmt == "json"
            else serialize_graph_dimacs(g))
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {output}", err=True)


@cli.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("coloring_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=click.IntRange(min=1), default=3,
              show_default=True, help="Weak-dynamic parameter.")
@click.option("--mode", type=click.Choice(["weak-dynamic", "proper",
                                           "dynamic"]),
              default="weak-dynamic", show_default=True)
def verify(graph_file: str, coloring_file: str, k: int, mode: str) -> None:
    """Check a coloring file against a graph file."""
    g = _load_graph_or_die(graph_file)
    try:
        coloring = load_coloring(coloring_file)
    except FormatError as exc:
        _fail(EXIT_USAGE, f"{coloring_file}: {exc}")
    missing = [v for v in g.vertices() if v not in coloring]
    if missing:
        _fail(EXIT_USAGE,
              f"coloring misses {len(missing)} vertices, e.g. {missing[:5]}")
    problems: list[str] = []
    out: dict[str, object] = {"mode": mode, "k": k}
    if mode in ("weak-dynamic", "dynamic"):
        ok, violations = is_weak_dynamic(g, coloring, k)
        out["weak_dynamic"] = ok
        out["violations"] = [asdict(v) for v in violations]
        problems += [f"vertex {v.vertex} sees {v.seen} colors,"
                     f" needs {v.required}" for v in violations]
    if mode in ("proper", "dynamic"):
        bad_edges = sorted((min(u, v), max(u, v)) for u, v in g.edges()
                           if coloring[u] == coloring[v])
        out["proper"] = not bad_edges
        out["improper_edges"] = [list(e) for e in bad_edges]
        problems += [f"edge ({u},{v}) has both ends colored {coloring[u]}"
                     for u, v in bad_edges]
    out["valid"] = not problems
    out["palette"] = palette_size({v: coloring[v] for v in g.vertices()})
    _emit(out)
    for line in problems:
        click.echo(line, err=True)
    sys.exit(EXIT_OK if not problems else EXIT_VERIFY)


@cli.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=click.IntRange(min=1), default=3,
              show_default=True, help="Weak-dynamic parameter.")
@click.option("--max-colors", type=click.IntRange(min=1), default=6,
              show_default=True, help="Palette-size cap for the search.")
def solve(graph_file: str, k: int, max_colors: int) -> None:
    """Exact minimum palette size (weak-dynamic), with a witness."""
    g = _load_graph_or_die(graph_file)
    res = wd_number_exact(g, k, max_colors)
    _emit({
        "wd": res.value,
        "k": k,
        "max_colors": max_colors,
        "n": g.n,
        "m": g.m,
        "witness": (None if res.witness is None
                    else {str(v): res.witness[v] for v in sorted(res.witness)}),
    })
    if res.value is None:
        click.echo(f"no {k}-weak-dynamic coloring within"
                   f" {max_colors} colors", err=True)


@cli.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace-out", type=click.Path(dir_okay=False),
              help="Write the reduction steps used, as JSON.")
def color(graph_file: str, trace_out: str | None) -> None:
    """Six-color 3-weak-dynamic coloring of a planar graph."""
    g = _load_graph_or_die(graph_file)
    steps: list[dict] | None = [] if trace_out is not None else None
    try:
        coloring = wd3_color_planar(g, trace=steps)
    except NonplanarInputError as exc:
        _fail(EXIT_USAGE, f"rejected: {exc}")
    except InvariantBreachError as exc:
        _fail(EXIT_BREACH, f"invariant breach: {exc}")
    if trace_out is not None:
        with open(trace_out, "w") as fh:
            json.dump({"steps": steps}, fh, indent=2)
        click.echo(f"wrote {len(steps)} reduction steps to {trace_out}",
                   err=True)
    _emit({
        "colors": {str(v): coloring[v] for v in sorted(coloring)},
        "palette": palette_size(coloring),
        "verified": True,
    })


@cli.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "with_trace", is_flag=True,
              help="Include every step (kind and vertex roles) in the JSON.")
def reduce(graph_file: str, with_trace: bool) -> None:
    """Shrink a graph to an irreducible core."""
    g = _load_graph_or_die(graph_file)
    e = EditableGraph(g)
    steps = reduce_in_place(e)
    cur = e.snapshot()
    out: dict[str, object] = {
        "input": {"n": g.n, "m": g.m},
        "steps_applied": len(steps),
        "kinds": [s.kind for s in steps],
        "core": {"n": cur.n, "m": cur.m,
                 "vertices": sorted(cur.vertices()),
                 "edges": sorted([min(u, v), max(u, v)]
                                 for u, v in cur.edges())},
    }
    if with_trace:
        records = [step.to_json_dict(e) for step in unwind(e, steps)]
        out["steps"] = records[::-1]
    _emit(out)


@cli.command("check-lemmas")
@click.option("--kind", default=None,
              help="One rule (L1..L10 or a full kind string);"
                   " default: all ten.")
@click.option("--budget", type=click.IntRange(min=1), default=20,
              show_default=True, help="Hosts to generate per rule.")
def check_lemmas(kind: str | None, budget: int) -> None:
    """Certify reduction rules: every coloring of every reduced host lifts."""
    labels = list(SHORT_KINDS) if kind is None else [kind]
    reports = []
    for label in labels:
        try:
            report = certify_lemma(label, budget=budget)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        reports.append(report)
        click.echo(f"{report.kind}: ok={report.ok}"
                   f" hosts={report.hosts_checked}/{report.hosts_requested}"
                   f" colorings={report.colorings_checked}"
                   f" lifts={report.lifts_succeeded}", err=True)
    if len(reports) == 1:
        _emit(reports[0].to_json_dict())
    else:
        _emit({"reports": [r.to_json_dict() for r in reports]})
    sys.exit(EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY)


@cli.command()
@click.option("--suite", type=click.Choice(["small"]), default="small",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the random instances in the suite.")
def bench(suite: str, seed: int) -> None:
    """Benchmark the constructive routine against the exact solver (CSV)."""
    instances: list[tuple[str, Graph]] = [
        (name, named(name))
        for name in ("c5", "k4", "k4_subdivided", "cube", "fig7a", "fig7b")]
    for n, density in ((8, 0.5), (10, 0.7), (12, 0.9), (14, 1.0)):
        s = seed + n
        instances.append((f"random-n{n}-d{density}-s{s}",
                          random_planar(n, density, s)))
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "n", "m", "wd3_exact", "pipeline_colors",
                     "micros"])
    for label, g in instances:
        t0 = time.perf_counter()
        coloring = wd3_color_planar(g)
        micros = round((time.perf_counter() - t0) * 1e6)
        exact = wd_number_exact(g, 3, 6)
        writer.writerow([label, g.n, g.m, exact.value,
                         palette_size(coloring), micros])
    click.echo(buf.getvalue(), nl=False)
    click.echo(f"suite {suite}: {len(instances)} instances, seed {seed}",
               err=True)


def main() -> None:
    cli(prog_name="wdcolor")


if __name__ == "__main__":
    main()
