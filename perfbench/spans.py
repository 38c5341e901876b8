"""Operation counts and in-memory spans recorded around calls into oehnn.

Every public call the benchmark makes into the program goes through a
`Recorder`, which counts it as an attempted operation (and as failed if it
raises). When tracing is on, the recorder also keeps one span per call:
name, start, end, parent span and free-form attributes. Spans stay in memory
and are written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def span(self, name: str, **attrs):
        """Record `name` around the body; yields the attribute dict to fill in."""
        if not self.tracing:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def batch(self, name: str, calls: int, fn, tag: str = ""):
        """`calls` public calls made by `fn()` inside one span; returns its result."""
        self.attempted += calls
        with self.span(name, calls=calls, tag=tag):
            try:
                return fn()
            except Exception:
                self.failed += 1
                raise

    def repeat(self, name: str, n: int, fn, *args, tag: str = ""):
        """`n` identical calls `fn(*args)` inside one span."""
        return self.batch(name, n, lambda: [fn(*args) for _ in range(n)], tag=tag)

    def call(self, name: str, fn, *args, **kwargs):
        """One public call into the program."""
        return self.batch(name, 1, lambda: fn(*args, **kwargs))

    def annotate(self, **attrs) -> None:
        """Add attributes to the span of the call that just returned."""
        if self.tracing:
            self.spans[-1]["attrs"].update(attrs)

    def rollouts(self, attempted: int, diverged: int) -> None:
        """Count evaluation rollouts; a diverged rollout is a failed operation."""
        self.attempted += attempted
        self.failed += diverged


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the time child spans cover.

    The program runs in one thread, so sibling spans never overlap and the
    covered time is the sum of the children's durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += duration(span)
    totals: dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        totals[span["name"]] = totals.get(span["name"], 0.0) + duration(span) - covered
    return totals
