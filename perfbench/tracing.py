"""In-memory spans recorded around library calls, with parent links.

The benchmark wraps module attributes of the program from outside: a
wrapped callable opens a span, calls through, and closes the span.  Spans
stay in memory until the run writes them out.  A span opened on a thread
that has no open span of its own (a worker of a thread pool) takes the
innermost open span of the main thread as its parent, so trials run by a
pool still count under the call that started them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans for the callables it wraps; `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, name, 0, thread=threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)  # a single append; atomic under the GIL

    def wrap(self, owner, attr: str, name: str,
             describe: Optional[Callable[[dict, object], dict]] = None) -> bool:
        """Replace owner.attr by a traced version; False if it is absent.

        describe(arguments, result) gives the span's attributes, with
        arguments bound by parameter name and defaults applied.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        signature = inspect.signature(fn) if describe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = describe(bound.arguments, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))
        self.wrapped.add(name)
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[Span]:
        """Spans closed since the last take, in closing order."""
        spans, self.spans = self.spans, []
        return spans


def covered_ns(interval: tuple[int, int], parts: list[tuple[int, int]]) -> int:
    """Length of the part of `interval` that the union of `parts` covers."""
    lo, hi = interval
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(parts):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_ns(span: Span, kids: dict[int, list[Span]]) -> int:
    """Span duration minus the time its child spans cover."""
    parts = [(c.start, c.end) for c in kids.get(span.id, ())]
    return span.ns - covered_ns((span.start, span.end), parts)


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            [[s.id, s.parent, s.name, s.start, s.end, s.thread, s.attrs] for s in spans],
            fh, separators=(",", ":"), default=str,
        )
