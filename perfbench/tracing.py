"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``qcdeform`` from the outside: every
module namespace of the package that holds the original function object gets
the wrapper instead, and ``restore`` puts every original back.  Nothing in the
library changes, and an untraced run never calls ``install``.

Each call records a span ``(name, start, end, parent, case)`` in memory; the
spans are written out once, when the run ends.  A layer's self time is its
span's duration minus the part of that interval covered by its child spans.
Counters derived from arguments and return values are recorded at the same
call boundary by optional hooks.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    case: int


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Collects spans and counters around wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.notes: dict[int, dict] = {}  # per-span facts recorded by hooks
        self.case = -1
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Wrapper recording a span named ``name`` around each call of ``fn``.

        ``hook(tracer, idx, args, kwargs, result, error)`` runs after the call,
        with ``idx`` the index of the call's span, and adds counters or notes.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the slot so children point here
            tracer._stack.append(idx)
            start = tracer.clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.case)
                if hook is not None:
                    hook(tracer, idx, args, kwargs, result, error)

        return wrapper

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        p = self.spans[idx].parent
        while p >= 0 and self.spans[p].name != name:
            p = self.spans[p].parent
        return p

    # -- rebinding -----------------------------------------------------------

    def install(self, targets, package: str = "qcdeform") -> None:
        """Rebind wrappers for ``targets`` across the package's modules.

        Each target is ``(name, owner, attr, hook)``: ``owner`` is a module of
        the package or a class, and ``owner.attr`` the function to wrap.  For
        a module-level function every loaded ``package`` module whose
        namespace holds the same object gets the wrapper; for a class the
        class attribute is replaced (static methods stay static).
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, owner, attr, hook in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                w = self.wrap(name, fn, hook)
                setattr(owner, attr, staticmethod(w) if is_static else w)
                self._undo.append(functools.partial(setattr, owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            w = self.wrap(name, fn, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, w)
                        self._undo.append(functools.partial(setattr, mod, key, fn))

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``restore``."""
        self._undo.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every rebound attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for s, st in zip(self.spans, self_times(self.spans)):
            totals[s.name]["calls"] += 1
            totals[s.name]["self_s"] += st
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields),
                       "spans": [list(s) for s in self.spans],
                       "counters": dict(self.counters),
                       "notes": {str(k): v for k, v in self.notes.items()}}, fh)
