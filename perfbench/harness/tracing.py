"""Spans recorded from outside the program's modules.

The benchmark never edits ``src/``: it wraps calls into each layer's
public functions (``tune()``, ``save_campaign``, the dataset builders,
...) and puts a timing proxy that implements the engine's ``Backend``
protocol around every backend the program builds.  Each wrapped call
becomes a span -- name, start, end, parent, and a request/cell id --
kept in memory and written out as JSON lines when the run ends.

A layer's self time is its spans' durations minus the part of each
interval covered by child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: "int | None" = None
    rid: "str | None" = None  # request or cell id shared by a span tree
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; thread-safe, nesting tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Span | None":
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, rid: "str | None" = None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(
            sid=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent.sid if parent is not None else None,
            rid=rid,
            thread=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, rid: "str | None" = None, **attrs):
        return _SpanContext(self, name, rid, attrs)

    def wrap(self, fn, name: str, on_result=None):
        """*fn* recorded as a span; *on_result(span, result)* adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                self.end(span)

        return traced

    # -- patching -------------------------------------------------------
    def patch_function(self, original, replacement) -> int:
        """Rebind *original* to *replacement* in every loaded ``repro`` module.

        Modules that imported the name (``from .storage import
        atomic_write_text``) hold their own binding, so each is patched;
        the count of rebound names is returned.
        """
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)
                    n += 1
        return n

    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, id (+ attrs)."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, rid, attrs: dict):
        self.tracer, self.name, self.rid, self.attrs = tracer, name, rid, attrs
        self.span: "Span | None" = None

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name, self.rid, **self.attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        assert self.span is not None
        self.tracer.end(self.span)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _union_length(intervals: "list[tuple[float, float]]") -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - _union_length(children.get(s.sid, []))
        for s in spans
    }


def covered_time(spans: "list[Span]") -> float:
    """Wall time during which at least one span is open (any thread).

    With one thread this equals the sum of every span's self time.
    """
    return _union_length([(s.start, s.end) for s in spans])

