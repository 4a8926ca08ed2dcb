"""In-memory spans around calls into cateff's layers.

A span is ``[name, start_ns, end_ns, parent, item]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``item`` the id of the program or
term being processed.  Spans are named ``<layer>.<function>``.  The
benchmark opens them around the public calls it makes; `patch` adds spans
around calls that cateff makes internally, recorded only when the caller is
one of the given spans, so recursion and calls from other layers pass
through untouched.  `NullTracer` has the same interface and records nothing;
the benchmark runs the same code with either one, so the difference in wall
time is the tracing overhead.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns


class NullTracer:
    active = False

    def __init__(self):
        self.counts = Counter()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def set_item(self, item):
        pass


class Tracer(NullTracer):
    active = True

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self._stack: list = []
        self._item = None
        self._patched: list = []

    def set_item(self, item):
        self._item = item

    def count(self, name, n=1):
        self.counts[name] += n

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self._item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def patch(self, module, attr, name, under, on_result=None):
        """Trace calls of ``module.attr`` made directly under a span named in
        ``under``, passing what they return to ``on_result``."""
        orig = getattr(module, attr)
        spans, stack, call = self.spans, self._stack, self.call

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] in under:
                result = call(name, orig, *args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return orig(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def unpatch(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def self_times(self):
        """Self time in ns per (span name, item): duration minus children."""
        out: dict = defaultdict(int)
        for name, start, end, parent, item in self.spans:
            out[name, item] += end - start
            if parent >= 0:
                pname, _, _, _, pitem = self.spans[parent]
                out[pname, pitem] -= end - start
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "item": item}) + "\n")
