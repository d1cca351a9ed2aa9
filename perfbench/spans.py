"""Spans and timers around gridarena's public functions, installed from outside.

The package is not edited. Instead a function is swapped, in every gridarena
module that holds it, for a wrapper, and swapped back afterwards. Two kinds of
wrapper exist:

* ``timer``: appends the call's duration to a list. The untraced runs use one
  per workload at most, at the boundary whose latency a user waits on.
* ``Tracer``: records a span per call (name, start, end, parent) into memory,
  plus counters read from the call's arguments and result. Parents follow the
  calling thread, and are carried into the thread pools that ``harness.sweep``
  and ``gateway.batch_complete`` start.

A span's self time is its duration minus the union of its children's
intervals, so children that ran at the same time in two threads are not
subtracted twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable


class Rebinder:
    """Swaps objects in gridarena's module namespaces and class dicts, and
    restores every swap on ``restore``."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    @staticmethod
    def _modules() -> list[Any]:
        return [module for name, module in list(sys.modules.items())
                if module is not None
                and (name == "gridarena" or name.startswith("gridarena."))]

    def function(self, module: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` by ``make(original)`` under every name
        bound to the original in any gridarena module, so that callers that
        imported it by name see the wrapper too."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def method(self, cls: type, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            wrapper: Any = classmethod(make(original.__func__))
        else:
            wrapper = make(original)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def timer(samples: list[tuple[float, float]],
          before: Callable[[], None] | None = None) -> Callable[[Any], Any]:
    """Wrapper factory appending each call's (start, wall seconds) to
    ``samples``; ``before``, if given, runs ahead of each call, untimed."""

    def make(fn: Any) -> Any:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before()
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append((started, time.perf_counter() - started))
        return timed

    return make


# A span is a list [name, start_ns, end_ns, parent_span_or_None]; lists keep
# the wrapper's work to two appends and one item store.
Span = list


class Tracer:
    """In-memory span recorder shared by every thread of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrapper(self, name: str,
                observe: Callable[["Tracer", tuple, Any], None] | None = None
                ) -> Callable[[Any], Any]:
        """Wrapper factory recording a span named ``name`` per call, then
        passing (tracer, args, result) to ``observe``."""
        spans = self.spans
        clock = time.perf_counter_ns
        stack_of = self._stack

        def make(fn: Any) -> Any:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = stack_of()
                span = [name, clock(), 0, stack[-1] if stack else None]
                spans.append(span)
                stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span[2] = clock()
                if observe is not None:
                    observe(self, args, result)
                return result
            return traced

        return make

    def executor_class(self) -> type:
        """A ThreadPoolExecutor whose tasks run under the submitting
        thread's current span."""
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._run_under, parent, fn, *args, **kwargs)

        return PropagatingExecutor

    def _run_under(self, parent: Span | None, fn: Callable, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    # -- analysis ----------------------------------------------------------

    def calls(self) -> Counter[str]:
        return Counter(span[0] for span in self.spans)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            start, end = span[1], span[2]
            covered = covered_ns(children.get(id(span), ()), start, end)
            totals[span[0]] += end - start - covered
        return {name: ns / 1e9 for name, ns in totals.items()}

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def write(self, path: os.PathLike | str) -> None:
        """One JSON line per span: id, name, start/end (ns, perf_counter
        clock), parent id, and trace id (the id of the span's root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        roots: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                parent_id = None if parent is None else index[id(parent)]
                # Parents start before their children, so they come first.
                roots.append(i if parent_id is None else roots[parent_id])
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent_id,
                                     "trace": roots[i]}) + "\n")


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
