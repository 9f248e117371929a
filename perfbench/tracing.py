"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces chosen module or class attributes with
wrappers that record one span per call -- name, start, end, the span
that caused it (the innermost open span on the same thread) and an
optional count -- and puts the originals back on exit.  Nothing inside
``src/`` is instrumented: untraced runs execute the program unchanged,
and the traced run's cost over the untraced one is reported as the
tracing overhead.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; use as a context manager around a
    traced phase (the wrappers live only inside the ``with`` block)."""

    def __init__(self):
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``count(args, kwargs, result)`` may attach a
        work count to the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = count(args, kwargs, result) if count is not None else 0
            with tracer._lock:
                tracer.spans[span_id] = (name, start, end, parent, n)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed count.

        A span's self time is its duration minus the time its child
        spans cover; children run on the caller's thread, one after
        another, so their durations add up without overlap.
        """
        with self._lock:
            spans = dict(self.spans)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans.values():
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, (name, start, end, _, n) in spans.items():
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
            row["count"] += n
        return out


def pairs_of_count_knn(args, kwargs, result) -> int:
    """Work of one ``count_knn`` dispatch: queries x leaf pages."""
    geometry = args[1] if len(args) > 1 else kwargs["geometry"]
    return int(len(result)) * int(geometry.k)


def wrap_kernel(tracer: Tracer) -> None:
    """Trace the selected counting kernel's ``count_knn`` dispatches."""
    from repro.kernels import get_kernel

    tracer.wrap(type(get_kernel()), "count_knn", "kernels.count",
                count=pairs_of_count_knn)
