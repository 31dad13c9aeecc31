"""Spans and counters installed into bellmanlab from outside its source.

Nothing here edits ``src/``: both mechanisms replace attributes of already
imported modules, and only inside the one process that the benchmark traces.

Spans.  Every public function of a layer module, and every public method
defined in the body of one of its classes, is replaced by a wrapper that
records ``(span id, parent id, label, start, end)``.  A function is replaced
on every module attribute bound to it, because ``stochastic`` and ``qcmaps``
import planar names directly.  Classes themselves are never replaced, so
``isinstance`` and dataclass behaviour are untouched.  Each thread keeps its
own stack of open spans; the first span on a worker thread takes as parent
the span open on the main thread, which is the ``run_suite`` call that
started the pool.  Spans are kept in memory and handed over at the end.

Counters.  ``numpy.random.Generator`` is replaced by a subclass that counts
the variates returned by ``normal`` and ``standard_normal``.  Only code that
calls ``np.random.Generator(...)`` gets the subclass; in bellmanlab that is
the Philox-keyed Brownian engine of ``stochastic``, while ``default_rng``
keeps returning plain generators.  ``numpy.fft.fft2`` and ``ifft2`` are
wrapped to count calls and input points.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np


class Counters:
    """Process-wide event counts; safe to bump from several threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.normals_drawn = 0
        self.fft2_calls = 0
        self.fft2_points = 0

    def _add(self, normals=0, calls=0, points=0):
        with self._lock:
            self.normals_drawn += normals
            self.fft2_calls += calls
            self.fft2_points += points

    def install(self):
        counters = self

        class CountingGenerator(np.random.Generator):
            def normal(self, *args, **kwargs):
                out = super().normal(*args, **kwargs)
                counters._add(normals=np.size(out))
                return out

            def standard_normal(self, *args, **kwargs):
                out = super().standard_normal(*args, **kwargs)
                counters._add(normals=np.size(out))
                return out

        np.random.Generator = CountingGenerator
        for name in ("fft2", "ifft2"):
            setattr(np.fft, name, self._counting_fft(getattr(np.fft, name)))

    def _counting_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self._add(calls=1, points=np.size(a))
            return fn(a, *args, **kwargs)
        return counted

    def as_dict(self) -> dict:
        return {"normals_drawn": self.normals_drawn,
                "fft2_calls": self.fft2_calls,
                "fft2_points": self.fft2_points}


class Tracer:
    """Span recorder; create it on the main thread."""

    def __init__(self):
        self.records = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, fn, label: str):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.records.append((sid, parent, label, start, end))
        return span

    def install(self, layers: dict):
        """Wrap the public functions and methods of each module in
        `layers`, a {layer name: module} map."""
        wrappers = {}
        for layer, mod in layers.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for mname, method in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(method):
                            setattr(obj, mname,
                                    self.wrap(method, f"{layer}.{name}.{mname}"))
        for mod in layers.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(records) -> dict:
    """Per-label calls and self time, plus the suite's busy and wait time.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; children of ``run_suite`` may overlap when
    experiments run on several threads, hence the union.
    """
    by_id = {sid: (start, end) for sid, _, _, start, end in records}
    children = defaultdict(list)
    for _, parent, _, start, end in records:
        children[parent].append((start, end))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    busy = wait = 0.0
    for sid, parent, label, start, end in records:
        calls[label] += 1
        self_s[label] += (end - start) - _covered(children[sid], start, end)
        if label == "suite.run_experiment":
            busy += end - start
            if parent in by_id:
                wait += start - by_id[parent][0]
    return {"calls": dict(calls), "self_s": dict(self_s),
            "busy_s": busy, "wait_s": wait}
