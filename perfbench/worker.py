"""One workload process: set up, run whole rounds, print one JSON line.

Run by ``run.py``; not meant to be started by hand.  Set-up time runs from
the first import through importing ``wdcolor`` from the checkout's
``src``, making the inputs and one untimed warm-up operation; the
benchmark's own checker graphs and the warm-up's check come after it.

Each operation is stopped after the workload's cap (``SIGALRM``) and then
counted as failed; its time is kept apart from the timings of the others.
Before and after the set-up, and between untraced operations, the worker
times a fixed reference loop, so that ``run.py`` can scale each time by
the machine's speed at that moment.
"""

import time


def reference_loop_ns() -> int:
    """Time of a fixed pure-Python loop of dict and set work, about 10 ms
    on an unloaded machine: a sample of how fast the machine runs now."""
    t = time.perf_counter_ns()
    counts: dict[int, int] = {}
    odd: set[int] = set()
    for i in range(40000):
        k = i * 7919 % 5003
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            odd.add(k)
    return time.perf_counter_ns() - t


#: Least time between two timings of the reference loop during the rounds.
REF_EVERY_S = 0.25
REF_BEFORE_SETUP = reference_loop_ns()

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_wdcolor():
    if not os.path.isfile(os.path.join(SRC, "wdcolor", "__init__.py")):
        raise SystemExit(f"no wdcolor sources under {SRC}")
    sys.path.insert(0, SRC)
    import wdcolor
    if not os.path.abspath(wdcolor.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported wdcolor from {wdcolor.__file__},"
                         f" not from {SRC}")
    return wdcolor


class OperationCapped(BaseException):
    """Raised in an operation that runs past its cap.  A BaseException, so
    that no ``except Exception`` in the program swallows it."""


def _on_alarm(signum, frame):
    raise OperationCapped()


def capped(call, cap_s: float):
    """``call()``, or None once it has run for ``cap_s`` seconds."""
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return call()
    except OperationCapped:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _on_alarm)
    wd = import_wdcolor()
    from workloads import Workload
    workload = Workload(args.workload, wd, args.seed)
    warm = workload.warmup_item()
    warm_result = workload.run(warm)
    setup_s = time.perf_counter() - T0
    setup_ref_ns = (REF_BEFORE_SETUP + reference_loop_ns()) // 2
    workload.prepare_checks()
    problems = workload.check(warm, warm_result)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    gc.collect()
    gc.freeze()

    op_ns: list[int] = []           # untraced operations, capped ones too
    ref_ns: list[int] = []          # timings of the reference loop
    ref_after: list[int] = []       # per operation: next index in ref_ns
    traced_ns = traced_ops = 0
    work = attempted = failed = rounds = 0
    failed_items: set[str] = set()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        else:
            ref_ns.append(reference_loop_ns())
            ref_at = time.perf_counter()
        round_start = time.perf_counter()
        for index, item in enumerate(workload.items, 1):
            if traced:
                tracer.begin_op()
                result = capped(lambda: workload.run(item), workload.cap_s)
                traced_ns += tracer.end_op()
                traced_ops += 1
            else:
                t = time.perf_counter_ns()
                result = capped(lambda: workload.run(item), workload.cap_s)
                op_ns.append(time.perf_counter_ns() - t)
                # the loop runs at least REF_EVERY_S apart and after the
                # round's last operation
                if (time.perf_counter() - ref_at >= REF_EVERY_S
                        or index == len(workload.items)):
                    ref_after += [len(ref_ns)] * (len(op_ns) - len(ref_after))
                    ref_ns.append(reference_loop_ns())
                    ref_at = time.perf_counter()
            attempted += 1
            if result is None:
                failed += 1
                failed_items.add(item.name)
                continue
            work += workload.work(item, result)
            problems += workload.check(item, result)
        if traced:
            tracer.uninstall()
        rounds += 1
        now = time.perf_counter()
        # whole rounds only; stop before a round that would overrun
        if (rounds >= (2 if tracer else 1)
                and now - start + (now - round_start) > args.seconds):
            break

    out = {"setup_s": setup_s, "setup_ref_ns": setup_ref_ns,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "rounds": rounds, "items": [it.name for it in workload.items],
           "attempted": attempted, "failed": failed,
           "failed_items": sorted(failed_items),
           "work": work, "op_ns": op_ns, "ref_ns": ref_ns,
           "ref_after": ref_after, "problems": problems[:20]}
    if tracer is not None:
        out["trace"] = {"ops": traced_ops, "op_ns": traced_ns,
                        "totals": tracer.totals()}
        out["problems"] += tracer.lift_problems
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
