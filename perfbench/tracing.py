"""In-memory span recorder that times the program from the outside.

A :class:`Tracer` replaces public functions and methods of ``repro``
modules with thin wrappers that record one span per call: its name,
start, end and the span that was open when it began (its parent).
Spans stay in a list until the run ends; :meth:`Tracer.write` dumps
them as JSON.  :meth:`Tracer.restore` puts every original back, so the
correctness checks that follow a timed run are never traced.

A span's *self time* is its duration minus the durations of its direct
children.  The process is single-threaded, so children nest strictly
inside their parent and never overlap one another.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer"]

_MISSING = object()


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, owner: Any, attr: str, name: str,
             on_call: Optional[Callable[..., None]] = None,
             on_return: Optional[Callable[..., None]] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a class (for methods) or a module (for functions
        looked up through the module at call time).  ``on_call``, when
        given, sees the call's positional arguments first; it counts
        work without opening a span of its own.  ``on_return`` sees the
        returned value and then the positional arguments, after the span
        has closed.
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(result, *args)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, own))

    def restore(self) -> None:
        """Put back every wrapped original, newest first."""
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- reduction ---------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            cell = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            cell["calls"] += 1
            cell["total_s"] += end - start
            cell["self_s"] += end - start - child_time[i]
        return out

    def first_start(self, name: str) -> Optional[float]:
        """Start time of the first span called ``name`` (``None``: none)."""
        for span in self.spans:
            if span[0] == name:
                return span[1]
        return None

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Dump ``meta`` and every span (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [[name, start - t0, end - t0, parent]
                        for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
