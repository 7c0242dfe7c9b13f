"""Spans recorded from outside the program, around calls into its layers.

A span is (name, start_ns, end_ns, parent index).  Spans are kept in memory
and written out when the run ends.  Calls too frequent to keep a span for
(the per-source lookups inside an all-pairs query) are accumulated as
*leaves*: their time is charged to the enclosing span's children, so self
times stay exact, and only a total and a count are kept per name.

``patched_modules`` swaps module-level bindings (restored on exit), so the
engines' own internal calls to those functions are timed too;
``wrap_method`` shadows a bound method on one object.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, child_ns]
        self._stack: list[int] = []
        self.leaf_ns: dict[str, int] = {}
        self.leaf_calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}  # counts taken at span boundaries

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [name, perf_counter_ns(), 0, parent, 0]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += record[2] - record[1]

        return traced

    def add_leaf(self, name: str, ns: int, calls: int = 1) -> None:
        """Charge ns of untracked work to the current span's children."""
        self.leaf_ns[name] = self.leaf_ns.get(name, 0) + ns
        self.leaf_calls[name] = self.leaf_calls.get(name, 0) + calls
        if self._stack:
            self.spans[self._stack[-1]][4] += ns

    def wrap_method(self, obj, attr: str, name: str) -> None:
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e9

    def self_s(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name) / 1e9

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called name that have a span called ancestor above them."""
        spans = self.spans
        total = 0
        for s in spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            total += p >= 0
        return total

    def leaf_s(self, name: str) -> float:
        return self.leaf_ns.get(name, 0) / 1e9

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index, self_ns."""
        with open(path, "w") as f:
            for name, start, end, parent, child in self.spans:
                f.write(json.dumps([name, start, end, parent, end - start - child]) + "\n")


@contextmanager
def patched_modules(tracer: Tracer, targets):
    """Replace (module, attribute) bindings by traced wrappers, then restore."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
