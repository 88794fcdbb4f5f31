"""Span recorder that times calls into the package from outside.

The recorder replaces module and class attributes with timing wrappers and
puts the originals back on ``uninstall``; the package source is never
touched. Because the package calls its own functions through module globals
(``scoring.maxsim_score``, ``approximate_candidates``) and methods through
the class, a wrapped attribute sees calls made inside the package too.

A span is ``[name, start, end, parent, query]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``query`` the ordinal of the query in
flight, or -1. Spans stay in memory until the process writes them out.
"""

import functools
import time

NO_PARENT = -1
NO_QUERY = -1


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.query = NO_QUERY
        self._stack: list = []
        self._installed: list = []

    def add(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_call=None, before=None):
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``before(args, kwargs)`` runs ahead of the span (outside it) and
        ``on_call(args, kwargs, result)`` after it, both untimed.
        """
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(sid)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def of(self, name: str) -> list:
        return [s for s in self.spans if s[0] == name]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval that its direct
    children cover (overlapping children are merged, not double counted)."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[3] != NO_PARENT:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans) -> dict:
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
