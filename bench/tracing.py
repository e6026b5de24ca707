"""In-memory spans around the package's public functions, and their arithmetic.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call: name, start, end, parent, and the root (the CLI command the
call ran under).  Spans stay in memory until the caller writes them out.
Self time is a span's duration minus the part of it its children cover.
The package itself is not modified: :func:`installed` swaps the wrappers in
and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    root: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``kept[name]`` holds ``(span index, keep(result))`` pairs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.kept: dict = {}
        self._stack: list = []

    def _open(self, name: str) -> int:
        root = self.spans[self._stack[0]].root if self._stack else name
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, root))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, start: float) -> None:
        span = self.spans[index]
        span.start, span.end = start, self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = self.clock()
        try:
            yield
        finally:
            self._close(index, start)

    def wrap(self, name: str, fn, keep=None):
        """``fn`` with a span around every call.

        ``keep``, if given, maps each result to what is stored in ``kept``;
        it runs after the span closes, so it is not timed as ``name``.
        """

        def traced(*args, **kwargs):
            index = self._open(name)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start)
            if keep is not None:
                self.kept.setdefault(name, []).append((index, keep(result)))
            return result

        return traced

    def children(self) -> dict:
        """``parent index -> [child spans]`` in start order."""
        out: dict = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Swap ``(owner, attribute, span name, keep)`` targets for traced wrappers.

    Only callers that look the attribute up at call time see the wrapper,
    so each target names the module or class the caller reads it from.
    """
    originals = []
    try:
        for owner, attr, name, keep in targets:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, keep))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def covered(start: float, end: float, children) -> float:
    """Length of ``[start, end]`` covered by the union of the children's intervals."""
    total, reach = 0.0, start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
        reach = max(reach, hi)
    return total


def self_time(span: Span, children) -> float:
    return span.duration - covered(span.start, span.end, children)


def step_self_times(loop: Span, children, last: str) -> list:
    """Self time of each step of a training loop span.

    A step runs from the end of the previous step (or the loop's start) to
    the end of its ``last`` child; its self time is that interval minus
    the children inside it, so batch gathering and epoch shuffles land in
    the step they delay.
    """
    out, begin, pending = [], loop.start, []
    for child in children:
        pending.append(child)
        if child.name == last:
            out.append(child.end - begin - covered(begin, child.end, pending))
            begin, pending = child.end, []
    return out


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(0.99 * len(ordered))) - 1]
