"""Layer tracing from outside the program.

A ``Tracer`` replaces public functions of the ``adlift`` modules with timing
wrappers, patching the attribute each caller actually resolves (``cli``
imports ``rank_factors`` by name, so both ``features.rank_factors`` and
``cli.rank_factors`` are patched). Every wrapped call accumulates its self
time (duration minus the time of wrapped calls made inside it) and a call
count under the layer name; calls made once per row use a leaner wrapper
that keeps no frame. ``restore`` puts every original back, so untraced
passes run the program unmodified.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections import defaultdict

WARNING_CATEGORIES = ("AllPrunedWarning", "RankDeficientWarning",
                      "UnstableRecurrenceWarning", "NoDeathsWarning")


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.stage_self = defaultdict(lambda: defaultdict(float))
        self.stage = None
        self._in_stage = self.stage_self[None]
        self._stack = []
        self._patches = []

    # --- recording ----------------------------------------------------------

    def _enter(self):
        frame = _Frame()
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, t0, t1):
        self._stack.pop()
        duration = t1 - t0
        if self._stack:
            self._stack[-1].child_s += duration
        own = duration - frame.child_s
        self.self_s[name] += own
        self.calls[name] += 1
        self._in_stage[name] += own

    def _untimed(self, t0):
        """Charge bookkeeping done inside a span to no layer."""
        spent = time.perf_counter() - t0
        self.counters["trace.hooks_s"] += spent
        if self._stack:
            self._stack[-1].child_s += spent

    def span(self, name, stage=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, stage)

    # --- patching -----------------------------------------------------------

    def wrap(self, owner, attr, name, per_row=False, hook=None):
        """Replace ``owner.attr`` by a timing wrapper recorded as ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after the call to record
        counters; its time is charged to no layer.
        """
        original = getattr(owner, attr)
        tracer = self
        if per_row:
            wrapper = self._per_row_wrapper(original, name)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, name, t0, time.perf_counter())
            if hook is not None:
                h0 = time.perf_counter()
                hook(tracer, args, kwargs, result)
                tracer._untimed(h0)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _per_row_wrapper(self, original, name):
        """A lean wrapper for leaf calls made once per row: no span, no frame."""
        tracer, clock = self, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - t0
                tracer.self_s[name] += duration
                tracer.calls[name] += 1
                tracer._in_stage[name] += duration
                if tracer._stack:
                    tracer._stack[-1].child_s += duration
        return wrapper

    def wrap_iter(self, owner, attr, name):
        """Time each step of the iterator returned by ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        step = self._per_row_wrapper(next, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            it = original(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def check_stage_sums(self, stage, wall_s, tolerance_s=1e-6):
        """Self times recorded inside ``stage`` must not exceed its wall time.

        This checks the tracer's own accounting: the self times inside a
        stage add up to the stage's wall time minus the hook time by
        construction, so only a bookkeeping error in the tracer fails it.
        """
        return sum(self.stage_self[stage].values()) <= wall_s + tolerance_s

    def count_warnings(self, caught):
        for w in caught:
            category = w.category.__name__
            key = category if category in WARNING_CATEGORIES else "other"
            self.counters[f"cli.warnings.{key}"] += 1


class _Span:
    def __init__(self, tracer, name, stage):
        self.tracer = tracer
        self.name = name
        self.stage = stage
        self.wall_s = 0.0

    def __enter__(self):
        if self.stage is not None:
            self.tracer.stage = self.stage
            self.tracer._in_stage = self.tracer.stage_self[self.stage]
        self._warnings = warnings.catch_warnings(record=True)
        self._caught = self._warnings.__enter__()
        warnings.simplefilter("always")
        self._frame = self.tracer._enter()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._exit(self._frame, self.name, self._t0, t1)
        self._warnings.__exit__(*exc)
        self.tracer.count_warnings(self._caught)
        self.wall_s = t1 - self._t0
        if self.stage is not None:
            self.tracer.stage = None
            self.tracer._in_stage = self.tracer.stage_self[None]
        return False
