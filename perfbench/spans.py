"""In-memory span and count recorder for the benchmark's traced run.

Spans are recorded by the benchmark around its own calls into kmsflow's
public functions; nothing inside the library is instrumented.  Each span is
(name, start, end, parent, op id), with parent the index of the enclosing
span or -1.  Counts and report margins are recorded at the same call sites.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class NullRecorder:
    """Recorder used with tracing off: every hook is a no-op."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value) -> None:
        pass

    def report(self, rep) -> None:
        pass


class Recorder:
    """Keeps spans, per-op counts and worst report margins in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(list)
        self.margins: dict = {}
        self.verdicts: list = []
        self.op_id = -1
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, value) -> None:
        self.counts[name].append(value)

    def report(self, rep) -> None:
        """Record the verdict of one ``Report``, or of its JSON form, and
        fold it into the worst margin of its name.

        The margin of a check is the ratio that is at most 1 exactly when the
        check passes: value/bound for "le" and for "ge" with a negative bound,
        bound/value for "ge" with a positive bound.  Checks with a zero bound
        and 0/1 verdict flags (kind "ge", bound 1) carry no margin.
        """
        if isinstance(rep, dict):
            name, passed = rep["name"], rep["pass"]
            checks = [(c["value"], c["bound"], c["kind"]) for c in rep["checks"]]
        else:
            name, passed = rep.name, rep.passed
            checks = [(c.value, c.bound, c.kind) for c in rep.checks]
        self.verdicts.append((name, bool(passed)))
        for value, bound, kind in checks:
            value, bound = float(value), float(bound)
            if bound == 0.0 or (kind == "ge" and bound == 1.0):
                continue
            if kind == "ge" and bound > 0.0:
                if value <= 0.0:
                    continue
                ratio = bound / value
            else:
                ratio = value / bound
            self.margins[name] = max(self.margins.get(name, ratio), ratio)

    def self_times(self) -> dict:
        """Seconds of self time per span name: each span's duration minus the
        durations of its direct children, summed over all spans."""
        total: dict = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return dict(total)
