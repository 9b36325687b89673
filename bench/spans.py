"""In-memory spans for the traced run, and their self-time arithmetic.

A span covers one call into a flatlyap module (see hooks.py) or one item
of a pass.  A span opened without an item id takes its parent's, so every
span of an item shares the item's id.  Spans are kept in a list while the
pass runs and written out once it has ended, so recording costs two clock
reads and one small object per boundary.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: str | None
    start: float = 0.0
    end: float = 0.0
    #: work done inside the span, such as ``{"calls": 46656}``
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: str | None = None):
        parent = self.spans[self._open[-1]] if self._open else None
        if item is None and parent is not None:
            item = parent.item
        sp = Span(len(self.spans), name, None if parent is None else parent.id, item)
        self.spans.append(sp)
        self._open.append(sp.id)
        sp.start = self.clock()
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


@dataclass
class Layer:
    spans: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=dict)


def by_name(spans: list[Span]) -> dict[str, Layer]:
    """Span count, self time, duration and summed counts per span name."""
    selfs = self_times(spans)
    out: dict[str, Layer] = {}
    for s in spans:
        layer = out.setdefault(s.name, Layer())
        layer.spans += 1
        layer.self_s += selfs[s.id]
        layer.total_s += s.end - s.start
        for key, n in s.counts.items():
            layer.counts[key] = layer.counts.get(key, 0) + n
    return out
