"""In-memory spans around the library's layer boundaries.

The library has no tracing of its own, so the benchmark replaces the public
names each module calls through with timing wrappers: a span records its
name, start, end, parent span and the exception type it raised, if any.
Spans live in a list until the run ends and are then written out.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import csv
import gzip
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root
    error: str = ""
    amount: float = 0.0  # work the call did, in the unit its wrapper counts

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, amount=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string or ``name(*args)``; ``amount(result, *args,
        **kwargs)``, if given, sets the span's work count after the call.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            idx = len(spans)
            span = Span(label, 0, 0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    span.amount = amount(result, *args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, amount=None):
        """Replace ``owner.attr`` by a traced wrapper until ``unpatch``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, amount))

    def unpatch(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_csv(self, path):
        """Write every span as a gzipped CSV row."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_ns", "end_ns", "error", "amount"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.parent, s.name, s.start_ns, s.end_ns, s.error, s.amount])


def self_times_ns(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start_ns
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end_ns)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration_ns - covered)
    return out


def summarize(spans):
    """Totals by span name: calls, summed amount, calls with an amount,
    errors by type, self and inclusive seconds."""
    selfs = self_times_ns(spans)
    out: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = out.setdefault(
            s.name, {"calls": 0, "amount": 0.0, "counted": 0, "errors": {}, "self_s": 0.0, "total_s": 0.0}
        )
        row["calls"] += 1
        row["amount"] += s.amount
        row["counted"] += s.amount > 0
        row["self_s"] += own * 1e-9
        row["total_s"] += s.duration_ns * 1e-9
        if s.error:
            row["errors"][s.error] = row["errors"].get(s.error, 0) + 1
    return out
