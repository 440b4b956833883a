"""The tracer wraps every reference, restores them, and adds up."""

import csv

import wdcolor
import wdcolor.pipeline
import wdcolor.reductions

from tracing import LAYERS, METRICS, STEP_KINDS, Tracer, per_layer_metrics


def test_install_wraps_every_reference_and_uninstall_restores():
    originals = (wdcolor.is_planar, wdcolor.pipeline.is_planar,
                 wdcolor.reductions.lift_coloring, wdcolor.wd3_color_planar)
    tracer = Tracer()
    tracer.install()
    try:
        assert wdcolor.is_planar is not originals[0]
        assert wdcolor.pipeline.is_planar is wdcolor.planarity.is_planar
        assert wdcolor.pipeline.lift_coloring is \
            wdcolor.reductions.lift_coloring is not originals[2]
        assert wdcolor.wd3_color_planar.__wrapped__ is originals[3]
    finally:
        tracer.uninstall()
    assert (wdcolor.is_planar, wdcolor.pipeline.is_planar,
            wdcolor.reductions.lift_coloring,
            wdcolor.wd3_color_planar) == originals


def test_traced_operation_adds_up(tmp_path):
    g = wdcolor.random_planar(60, 1.0, 3)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        coloring = wdcolor.wd3_color_planar(g)
        op_ns = tracer.end_op()
    finally:
        tracer.uninstall()
    assert len(coloring) == 60
    totals = tracer.totals()
    assert totals["calls"]["pipeline.top"] == 1
    steps = totals["counts"]["reductions.steps"]
    assert steps == totals["calls"]["reductions.apply"] > 0
    assert steps == sum(totals["counts"].get(f"reductions.steps.{k}", 0)
                        for k in STEP_KINDS)
    assert totals["calls"]["reductions.lift"] == steps
    assert tracer.lift_problems == []
    assert 0 < sum(totals["self_ns"].values()) <= op_ns

    metrics = per_layer_metrics(totals, ops=1, op_ns=op_ns,
                                untraced_ops=1, untraced_ns=op_ns)
    assert list(metrics) == [name for name, _ in METRICS]
    assert metrics["trace.uncovered_ms"]["value"] >= 0
    assert metrics["pipeline.palette_mean"]["value"] <= 6

    path = tmp_path / "spans.csv"
    tracer.write_spans(str(path))
    rows = list(csv.DictReader(path.open()))
    assert rows[0]["layer"] == "op" and rows[0]["parent"] == "-1"
    ids = {row["span"] for row in rows}
    assert all(row["parent"] in ids for row in rows[1:])
    assert {row["layer"] for row in rows} <= {"op"} | {l for l, _, _ in LAYERS}
    assert all(int(r["start_ns"]) <= int(r["end_ns"]) for r in rows)
