"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from wdcolor import pipeline


@pytest.fixture
def four_color_calls(monkeypatch) -> list:
    """Spy on ``pipeline.four_color_H`` for one test: each call appends
    ``(h, coloring)``, or ``(h, exception)`` before re-raising."""
    calls: list = []
    real = pipeline.four_color_H

    def spy(h):
        try:
            coloring = real(h)
        except Exception as exc:
            calls.append((h, exc))
            raise
        calls.append((h, coloring))
        return coloring

    monkeypatch.setattr(pipeline, "four_color_H", spy)
    return calls
