"""Spans recorded from outside the simulator, around calls into its layers.

The traced run replaces public functions and methods of the ``repro``
package with thin wrappers that record one span per call, runs the
workload, and puts every original back. Nothing inside ``src/`` knows it
is being timed.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span in the same log (``-1`` at top level) and ``run`` names
the analysis the span belongs to. Spans stay in memory until the run ends
and are written once (:meth:`SpanLog.write`). A layer's *self time* is
the duration of its spans minus the part of each covered by child spans
(:func:`self_times`).

Patching rules:

* A method is patched on the class whose ``__dict__`` defines it, so
  subclasses and instances that inherit it are covered.
* A module-level function is patched in its defining module *and* in
  every module of the patched packages that bound the same object by
  ``from ... import`` (under any alias). A reference captured in a
  closure or a default argument cannot be reached this way; the coverage
  guard in ``layers.py`` catches a layer that records no calls.
* :meth:`Patcher.restore` puts back every attribute it replaced, then
  checks that each one holds its original object again and that no
  wrapper is left in any scanned module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, RUN = range(5)


class SpanLog:
    """In-memory span store for one single-threaded traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.run])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def write(self, path) -> None:
        """Dump every span as one JSON document (called once, at exit)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "run"], "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus the union of its children.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so the result never counts a covered
    instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[span[NAME]] += (end - start) - covered
    return dict(totals)


def call_counts(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[NAME]] += 1
    return dict(out)


def durations(spans: list[list], name: str) -> list[float]:
    """Inclusive durations (s) of every span called *name*."""
    return [s[END] - s[START] for s in spans if s[NAME] == name]


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    Attributes:
        module: defining module, e.g. ``repro.linalg.solve``.
        attr: ``func`` or ``Class.method``.
        span: span name recorded per call, or a function of the call's
            positional arguments returning it.
        after: optional ``(log, args, result)`` hook run after each call
            that returned, for counts read off the result.
    """

    module: str
    attr: str
    span: str | Callable[[tuple], str]
    after: Callable | None = None


def make_wrapper(func, log: SpanLog, span, after=None):
    """Wrap *func* so each call records one span in *log*."""
    name_of = span if callable(span) else None

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = log.begin(name_of(args) if name_of else span)
        try:
            result = func(*args, **kwargs)
        finally:
            log.end(index)
        if after is not None:
            after(log, args, result)
        return result

    wrapper.__perfbench_wrapper__ = True
    return wrapper


def _is_wrapper(value) -> bool:
    return getattr(value, "__perfbench_wrapper__", False) is True


class Patcher:
    """Installs wrappers for a list of targets and restores them."""

    def __init__(self, packages: tuple[str, ...] = ("repro",)):
        self.packages = packages
        #: (owner, attribute, original) per replaced attribute.
        self.patches: list[tuple[object, str, object]] = []

    def _scanned_modules(self) -> list:
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and any(name == p or name.startswith(p + ".") for p in self.packages)
        ]

    def install(self, targets, log: SpanLog) -> None:
        defining = [importlib.import_module(target.module) for target in targets]
        modules = self._scanned_modules()
        for target, module in zip(targets, defining):
            owner_name, _, method = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                if method not in vars(owner):
                    raise LookupError(
                        f"{target.module}.{target.attr} is inherited, not defined there"
                    )
                original = vars(owner)[method]
                if not inspect.isfunction(original):
                    raise TypeError(f"{target.module}.{target.attr} is not a plain function")
                wrapper = make_wrapper(original, log, target.span, target.after)
                self._set(owner, method, original, wrapper)
                continue
            original = getattr(module, target.attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{target.module}.{target.attr} is not a plain function")
            wrapper = make_wrapper(original, log, target.span, target.after)
            bound = [
                (mod, key)
                for mod in modules
                for key, value in list(vars(mod).items())
                if value is original
            ]
            for mod, key in bound:
                self._set(mod, key, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def restore(self) -> int:
        """Undo every patch; raise if any attribute is not back as it was."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.patches
            if vars(owner).get(attr) is not original
        ]
        for module in self._scanned_modules():
            for key, value in vars(module).items():
                if _is_wrapper(value):
                    leftovers.append(f"{module.__name__}.{key}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    leftovers.extend(
                        f"{module.__name__}.{key}.{meth}"
                        for meth, member in vars(value).items()
                        if _is_wrapper(member)
                    )
        restored = len(self.patches)
        self.patches = []
        if leftovers:
            raise RuntimeError(f"wrappers not restored: {sorted(set(leftovers))}")
        return restored
