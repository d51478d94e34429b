"""In-memory span recorder that wraps module-level callables from outside.

The program's modules look up their collaborators (`pipeline.stabilize_phase`,
`engine._match_from_view`, ...) as module globals at call time, so replacing
such a global with a timing wrapper records a span around every call while
the program's own code runs unchanged. `Tracer.restore` puts the originals
back.

Spans opened in a worker thread that has no open span of its own take as
parent the innermost span open in the thread that created the tracer; the
thread pool in `bm4d.engine` is only used while a stage span is open there.
"""

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its direct children cover.

    Children from several threads may overlap one another; the overlap is
    counted once, so self time never goes below zero.
    """
    return span.duration - covered(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count()
        self._owner = threading.get_ident()
        self._owner_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cpu: bool = False):
        """Record one span; `cpu` also records process CPU time over it."""
        stack = self._stack()
        anchor = stack or self._owner_stack
        rec = Span(
            id=next(self._ids),
            name=name,
            parent=anchor[-1].id if anchor else None,
            thread=threading.get_ident(),
            start=0.0,
        )
        stack.append(rec)
        if cpu:
            rec.cpu_start = time.process_time()
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            if cpu:
                rec.cpu_end = time.process_time()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, module, attr: str, name, describe=None, cpu=False):
        """Replace `module.attr` by a wrapper that records a span per call.

        `name` is a span name or a function of (args, kwargs) giving one;
        `describe(args, kwargs, result)` returns attributes for the span.
        A missing attribute is recorded in `missing`, never wrapped.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label, cpu=cpu) as rec:
                result = original(*args, **kwargs)
                if describe is not None:
                    rec.attrs.update(describe(args, kwargs, result))
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]
