"""Span tracer that wraps library functions in place and restores them.

A span records (id, name, parent id, start, end). Spans nest through a
thread-local stack. A span opened on a thread with no open span of its own
(a worker of a thread pool) becomes a child of the innermost span open on the
thread that created the tracer, so pool work is attributed to the subcommand
that submitted it. Busy time is therefore summed over threads, not wall time.

Self time is a span's duration minus the union of its children's intervals
clipped to the span: overlapping children on different threads are not
subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class NameSummary:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the union of its children's intervals.

    ``spans`` holds (id, name, parent_id, start, end) tuples.
    """
    children = defaultdict(list)
    for _, _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ()) if min(e, end) > max(s, start)]
        out[sid] = (end - start) - covered_length(clipped)
    return out


def summarise(spans) -> dict:
    """Per span name: calls, summed duration, summed self time, durations."""
    own = self_times(spans)
    out: dict = defaultdict(NameSummary)
    for sid, name, _, start, end in spans:
        s = out[name]
        s.calls += 1
        s.busy_s += end - start
        s.self_s += own[sid]
        s.durations.append(end - start)
    return dict(out)


class Tracer:
    """Collects spans and counters; patches functions and undoes it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list = []
        self._local.stack = self._root_stack
        self._lock = threading.Lock()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._root_stack:
            try:
                return self._root_stack[-1]
            except IndexError:
                return None
        return None

    def count(self, increments: dict) -> None:
        with self._lock:
            self.counters.update(increments)

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run ``fn`` inside a span called ``name``; ``count(args, kwargs,
        result)`` returns counter increments."""
        kwargs = kwargs or {}
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((sid, name, parent, start, end))
        if count is not None:
            self.count(count(args, kwargs, result))
        return result

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def patch(self, original, replacement, package: str) -> int:
        """Replace ``original`` wherever a module of ``package`` binds it,
        as a global or as a value of a module-level dict. Returns the number
        of bindings replaced."""
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._patches.append((namespace, key, original))
                    n += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement
                            self._patches.append((value, k, original))
                            n += 1
        return n

    def trace(self, module, attr: str, name: str, count=None,
              package: str = "stylus") -> int:
        original = getattr(module, attr)
        return self.patch(original, self.wrap(original, name, count), package)

    def restore(self) -> None:
        while self._patches:
            mapping, key, original = self._patches.pop()
            mapping[key] = original

    def summary(self) -> dict:
        return summarise(self.spans)
