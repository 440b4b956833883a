"""An operation past its cap is stopped and leaves no span open."""

import signal
import time

from tracing import Tracer
from worker import OperationCapped, _on_alarm, capped


def _spin():
    while True:
        time.sleep(0.001)


def test_capped_returns_the_result_or_none():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        assert capped(lambda: 5, 1.0) == 5
        t = time.perf_counter()
        assert capped(_spin, 0.05) is None
        assert time.perf_counter() - t < 1.0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_end_op_closes_spans_left_open():
    tracer = Tracer()
    tracer.begin_op()
    tracer._push(0)          # a span whose wrapper never closed it
    took = tracer.end_op()
    assert took >= 0 and tracer._stack == []
    assert tracer.totals()["calls"] == {"planarity": 1}
    assert issubclass(OperationCapped, BaseException)
    assert not issubclass(OperationCapped, Exception)
