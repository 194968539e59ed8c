"""Span and call-count tracing by wrapping a program's public functions.

The wrappers live here, not in the program: ``Tracer.wrap`` replaces a
function at every place it is looked up.  Modules that did
``from .mod import fn`` hold their own binding of ``fn``, so every
attribute of the watched package's modules that *is* the original
function gets the wrapper too, and ``Tracer.restore`` puts all of them
back.  Methods are wrapped on their class.

A span is (name, start, end, parent span); spans stay in memory.  A
name's self time is the time its spans cover minus the part of each
span's interval that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts for the functions it wraps."""

    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.calls = defaultdict(int)
        self.measures = defaultdict(float)
        self.raised = defaultdict(int)
        self._stack: list = []
        self._saved: list = []

    # recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.calls[name] += 1
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def span_fn(self, fn, name: str, measure=None):
        """fn wrapped in a span; measure(args, result) adds to
        ``<name>.<key>`` for each (key, amount) it returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.raised[(name, type(err).__name__)] += 1
                raise
            finally:
                tracer._close(idx)
            if measure is not None:
                for key, amount in measure(args, result):
                    tracer.measures[f"{name}.{key}"] += amount
            return result

        return wrapper

    def count_fn(self, fn, name: str):
        """fn wrapped to count calls only (for very hot functions, whose
        time stays in the caller's self time)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def result_fn(self, fn, name: str):
        """fn whose returned callable is wrapped in a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span_fn(fn(*args, **kwargs), name)

        return wrapper

    # installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, mode: str = "span",
             measure=None) -> None:
        """Wrap ``owner.attr`` (owner a module, class or dict) and every
        other binding of the same function object in the watched modules.

        mode "span" records a span per call, "count" only counts calls,
        and "result" leaves the call alone but wraps the callable it
        returns in a span (for closures such as energy functions).
        """
        original = owner[attr] if isinstance(owner, dict) else \
            owner.__dict__[attr]
        if mode == "span":
            wrapped = self.span_fn(original, name, measure)
        elif mode == "count":
            wrapped = self.count_fn(original, name)
        elif mode == "result":
            wrapped = self.result_fn(original, name)
        else:
            raise ValueError(f"unknown wrap mode {mode!r}")
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not (
                    mod_name == self.package
                    or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    targets.append((mod, key))
        for tgt, key in targets:
            self._set(tgt, key, wrapped)

    def restore(self) -> None:
        """Put every wrapped binding back, newest first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name (open spans are ignored)."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0 and self.ends[idx] is not None:
                child[parent] += self.ends[idx] - self.starts[idx]
        out = defaultdict(float)
        for idx, name in enumerate(self.names):
            if self.ends[idx] is None:
                continue
            out[name] += (self.ends[idx] - self.starts[idx]) - child[idx]
        return dict(out)

    def total_times(self) -> dict:
        """Inclusive seconds per span name (for functions that do not
        call themselves)."""
        out = defaultdict(float)
        for idx, name in enumerate(self.names):
            if self.ends[idx] is not None:
                out[name] += self.ends[idx] - self.starts[idx]
        return dict(out)
