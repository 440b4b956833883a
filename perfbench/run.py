"""Benchmark of wdcolor: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tri-reduce --seed 1 --seconds 40 \
        --trace 0

Run from the root of a checkout; ``wdcolor`` is imported from its ``src``.
Each workload runs in single-threaded worker processes started one after
another: three for an untraced run (set-up is measured in each and
reported as their median), one for a traced run.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
same object, every raw timing and the traced run's spans are also written
under ``perfbench/out/``.

The machine this was written on is shared, and its speed drifts by up to
1.6x over seconds to minutes.  So every time in the end-to-end metrics is
given at a fixed reference speed: it is scaled by a fixed loop timed just
before and after it (see ``worker.reference_loop_ns``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("tri-reduce", "radial-core", "small-mixed", "certify-lemmas")
UNTRACED_WORKERS = 3
#: The reference loop's time, in ms, at which operation times are reported;
#: it takes about 9 ms on an unloaded 2.0 GHz Xeon.
REFERENCE_LOOP_MS = 10.0
#: Timings of the reference loop taken on each side of an operation.
REF_WINDOW = 3
DEADLINE_S = 170.0


def run_workers(args, workers: int) -> list[dict]:
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for index in range(workers):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / workers),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.csv")]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"worker {index} exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def scaled_ms(result: dict) -> list[float]:
    """A worker's operation times in ms at the reference speed.

    A time of ``t`` counts as ``t * REFERENCE_LOOP_MS / r``, where ``r`` is
    the median of the REF_WINDOW timings of the reference loop just before
    the operation and the REF_WINDOW just after it.
    """
    refs = result["ref_ns"]
    return [t * REFERENCE_LOOP_MS / statistics.median(
                refs[max(0, a - REF_WINDOW):a + REF_WINDOW])
            for t, a in zip(result["op_ns"], result["ref_after"])]


def input_times_ms(results: list[dict]) -> list[float]:
    """Each input's median time at the reference speed over all rounds of
    all workers; inputs whose operation failed are left out."""
    items = results[0]["items"]
    failed = {name for r in results for name in r["failed_items"]}
    scaled = [scaled_ms(r) for r in results]
    return [statistics.median(t for s in scaled for t in s[i::len(items)])
            for i, name in enumerate(items) if name not in failed]


def end_to_end(results: list[dict]) -> dict:
    times = input_times_ms(results)
    work_per_round = (sum(r["work"] for r in results)
                      / sum(r["rounds"] for r in results))
    return {
        "setup_s": {"value": statistics.median(
                        r["setup_s"] * REFERENCE_LOOP_MS / r["setup_ref_ns"]
                        * 1e6 for r in results),
                    "unit": "s"},
        "work_per_s": {"value": work_per_round / (sum(times) / 1e3),
                       "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(times), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["rss_kb"]
                                                   for r in results) / 1024,
                        "unit": "MiB"},
    }


def per_layer(result: dict) -> dict:
    from tracing import per_layer_metrics
    trace = result["trace"]
    return per_layer_metrics(trace["totals"], ops=trace["ops"],
                             op_ns=trace["op_ns"],
                             untraced_ops=len(result["op_ns"]),
                             untraced_ns=sum(result["op_ns"]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, subprocess.run kills and waits for the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "wdcolor",
                                       "__init__.py")):
        print(f"no wdcolor sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    results = run_workers(args, 1 if args.trace else UNTRACED_WORKERS)
    problems = [p for r in results for p in r["problems"]]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: rounds"
          f" {[r['rounds'] for r in results]}, operations"
          f" {sum(r['attempted'] for r in results)}, failed"
          f" {sorted({n for r in results for n in r['failed_items']})},"
          " reference loop median %.2f ms" % (statistics.median(
              t for r in results for t in r["ref_ns"]) / 1e6),
          file=sys.stderr)
    line = {"correct": not problems,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": per_layer(results[0]) if args.trace
            else end_to_end(results)}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump(line, f, indent=1)
    with open(os.path.join(OUT, f"workers-{stem}.json"), "w") as f:
        json.dump(results, f)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
