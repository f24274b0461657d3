"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces named callables of the program -- module attributes such
as ``equifdp.experiment:sample`` or class attributes such as
``equifdp.model:RngStream.generator`` -- with wrappers that record one span
per call.  A name is wrapped where its callers resolve it, so a wrapper on
``equifdp.experiment:sample`` sees exactly the calls the harness makes.

Spans are kept per thread, in memory, as ``(name, start_ns, end_ns,
child_ns, elems)``.  A span's self time is its duration minus the time its
direct children in the same thread cover.  A name that a refactor has moved
or renamed is listed in :attr:`Tracer.missing` and records nothing; it never
raises.

:func:`attribute_wall` splits the wall time of a traced interval among the
spans: at each instant the wall is shared equally by the threads whose
innermost open span is not a waiting span, and an instant no such thread
covers goes to ``"untraced rest"``.  The shares and the rest therefore sum
to the traced wall time exactly, with any number of threads.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

REST = "untraced rest"


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    span   -- the span name its calls record
    path   -- ``"package.module:attr"`` or ``"package.module:Class.attr"``
    elems  -- optional function of the call's positional arguments giving a
              work count summed per span name (for example array sizes)
    wait   -- the span marks a thread that is blocked, not working; it gets
              no share of the wall time
    """

    span: str
    path: str
    elems: Optional[Callable] = None
    wait: bool = False


def _resolve(path: str):
    """Return ``(owner, attr, current value)`` or None when the path is gone."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = vars(owner).get(attr)  # a plain function, not a bound view
    else:
        value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Install wrappers on enter, restore the originals on exit."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.wait_spans = frozenset(t.span for t in self.targets if t.wait)
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = ([], [])  # open-span child-time stack, finished spans
            self._local.state = state
            with self._lock:
                self._threads.append(state[1])
            return state

    def _open(self):
        stack, _ = self._state()
        stack.append(0)
        return time.perf_counter_ns()

    def _close(self, span: str, t0: int, elems: int = 0) -> None:
        t1 = time.perf_counter_ns()
        stack, spans = self._state()
        child = stack.pop()
        if stack:
            stack[-1] += t1 - t0
        spans.append((span, t0, t1, child, elems))

    def _wrap_function(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            elems = target.elems(*args) if target.elems is not None else 0
            t0 = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(target.span, t0, elems)

        return traced

    def _wrap_context_class(self, target: Target, cls):
        """A class used as a context manager: the span covers the with-block."""
        tracer = self

        class Traced(cls):
            def __enter__(self):
                self._span_t0 = tracer._open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(target.span, self._span_t0)

        Traced.__name__ = cls.__name__
        Traced.__qualname__ = cls.__qualname__
        return Traced

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            found = _resolve(target.path)
            if found is None:
                self.missing.append(target.path)
                continue
            owner, attr, value = found
            if isinstance(value, type):
                wrapped = self._wrap_context_class(target, value)
            else:
                wrapped = self._wrap_function(target, value)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def present(self, span: str) -> bool:
        """True when every target recording `span` was found."""
        paths = [t.path for t in self.targets if t.span == span]
        return bool(paths) and not any(p in self.missing for p in paths)

    # -- reduction --------------------------------------------------------------

    def thread_spans(self) -> list[list]:
        with self._lock:
            return [list(spans) for spans in self._threads]

    def totals(self) -> dict:
        """Per span name: calls, self nanoseconds and summed work counts."""
        out: dict = {}
        for spans in self.thread_spans():
            for span, t0, t1, child, elems in spans:
                row = out.setdefault(span, [0, 0, 0])
                row[0] += 1
                row[1] += t1 - t0 - child
                row[2] += elems
        return {k: {"calls": c, "self_ns": s, "elems": e} for k, (c, s, e) in out.items()}


def _self_segments(spans):
    """Innermost-span intervals ``(t0, t1, name)`` of one thread's nested spans."""
    segments = []
    stack = []  # (name, end)
    cursor = 0
    for name, t0, t1, _, _ in sorted(spans, key=lambda s: (s[1], -s[2])):
        while stack and stack[-1][1] <= t0:
            top, end = stack.pop()
            if end > cursor:
                segments.append((cursor, end, top))
            cursor = max(cursor, end)
        if stack and t0 > cursor:
            segments.append((cursor, t0, stack[-1][0]))
        stack.append((name, t1))
        cursor = t0
    while stack:
        top, end = stack.pop()
        if end > cursor:
            segments.append((cursor, end, top))
        cursor = max(cursor, end)
    return segments


def attribute_wall(tracer: Tracer, start_ns: int, end_ns: int) -> dict:
    """Split the wall interval [start_ns, end_ns] among span names.

    Returns nanoseconds per span name plus :data:`REST`; the values sum to
    ``end_ns - start_ns``.
    """
    events = []
    for tid, spans in enumerate(tracer.thread_spans()):
        for t0, t1, name in _self_segments(spans):
            if name in tracer.wait_spans:
                continue
            t0, t1 = max(t0, start_ns), min(t1, end_ns)
            if t1 > t0:
                events.append((t0, 1, tid, name))
                events.append((t1, 0, tid, name))
    events.sort()
    out = {REST: 0.0}
    active: dict = {}
    prev = start_ns
    for t, kind, tid, name in events:
        if t > prev:
            dt = t - prev
            if active:
                share = dt / len(active)
                for layer in active.values():
                    out[layer] = out.get(layer, 0.0) + share
            else:
                out[REST] += dt
            prev = t
        if kind:
            active[tid] = name
        else:
            active.pop(tid, None)
    out[REST] += end_ns - prev
    return out
