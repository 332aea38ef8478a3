"""In-memory spans around public functions, for the traced run.

:class:`Tracer` replaces a function or method with a wrapper that
records one span per call — name, start, end and the span that was
open when it began (its parent) — and counts calls of functions too
hot for a span.  Spans stay in memory and are written once, when the
run ends (:meth:`Tracer.write`).

A span's *self time* is its duration minus the time its child spans
cover; summed per name it splits a run into layers without counting
any interval twice.  Spans are kept on one stack, so wrapped functions
must be synchronous and called from one thread (the report and watch
main threads, the serve event loop).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """Wraps callables in spans; keeps spans and per-name totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _replace(self, owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr}: {type(original)}")
        wrapper = make(original)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return wrapper

    def span(self, owner, attr: str, name: str):
        """Record a span named ``name`` around every call of
        ``owner.attr``."""
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                index = len(starts)
                names.append(name_id)
                parents.append(stack[-1][0] if stack else -1)
                frame = [index, 0.0]
                stack.append(frame)
                start = clock()
                starts.append(start)
                ends.append(start)
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    ends[index] = end
                    duration = end - start
                    if stack:
                        stack[-1][1] += duration
                    self_s[name] += duration - frame[1]
                    total_s[name] += duration
                    calls[name] += 1
            return wrapper

        return self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` without recording spans."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        return self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in start order."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [end - start for nid, start, end in
                zip(self.span_name, self.span_start, self.span_end)
                if nid == name_id]

    def summary(self) -> dict:
        """Per-name totals (JSON-ready)."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON line ``[name, start, end,
        parent]`` after a header line naming the table."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "spans": len(self.span_start),
                                     **self.summary()}) + "\n")
            names = self.names
            for nid, start, end, parent in zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent):
                handle.write(f'["{names[nid]}",{start!r},{end!r},'
                             f'{parent}]\n')
