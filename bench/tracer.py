"""Spans around curlplast's public functions, installed from outside the package.

A span is one call of a wrapped function.  Each wrapped name collects its
call count, its total time and its self time: the total minus the time of
the wrapped calls made inside it.  Spans are kept in memory only.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import wraps


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self._children = []  # time of finished child spans, one entry per open span
        self._undo = []

    def wrap(self, name, fn, keep_durations=False, after=None):
        """fn timed as span `name`; after(result, args) runs once fn returns."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
                if keep_durations:
                    self.durations[name].append(dt)
                if self._children:
                    self._children[-1] += dt
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def patch(self, owner, attr, name, **kwargs):
        """Replace owner.attr, where the caller looks it up, by a span."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class CountingMatrix:
    """A sparse matrix whose products with vectors are spans of one name."""

    def __init__(self, matrix, tracer, name):
        self.matrix = matrix
        self._matvec = tracer.wrap(name, matrix.__matmul__)

    def __matmul__(self, v):
        return self._matvec(v)

    def __getattr__(self, attr):
        return getattr(self.matrix, attr)
