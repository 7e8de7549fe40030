"""Spans recorded from outside the program, by wrapping module attributes.

A target is named "module.attr" inside the foldloc package. Wrapping it
replaces every foldloc module attribute bound to that same function object,
so a call made through a `from .x import f` binding in another module is
recorded too. Each span holds its name, start, end, parent and any counts
taken from the call's arguments or result. A target that no longer exists
is reported as missing instead of failing the run.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            kids.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return [(s.end - s.start) - covered(kids.get(i, ())) for i, s in enumerate(spans)]


def rebind(package: str, target: str, make_wrapper):
    """Replace every binding of package's `target` function by a wrapper.

    target is "module.attr" relative to the package. Every module of the
    package whose attribute is the same function object gets
    make_wrapper(original). Returns the (module, key, original) patches, or
    None when the target does not exist.
    """
    mod_name, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(f"{package}.{mod_name}")
    except ImportError:
        return None
    original = getattr(module, attr, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    patches = []
    prefix = package + "."
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(prefix)):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, key, original))
                setattr(mod, key, wrapper)
    return patches


def restore(patches) -> None:
    for mod, key, original in reversed(patches):
        setattr(mod, key, original)


class Tracer:
    """Records spans for wrapped targets while installed."""

    def __init__(self, package: str = "foldloc"):
        self.package = package
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Span around code run by the benchmark itself, such as one fix."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def install(self, targets: dict) -> None:
        """Record a span for every call of each target ("module.attr").

        targets maps a target to None or to count(args, kwargs, result),
        which returns a dict of counts to store on the span. A target whose
        module or attribute does not exist is listed in self.missing.
        """
        self.missing = []
        for target, count in targets.items():
            patches = rebind(self.package, target,
                             partial(self._traced, target=target, count=count))
            if patches is None:
                self.missing.append(target)
            else:
                self._patches.extend(patches)

    def _traced(self, original, target: str, count):
        def traced(*args, **kwargs):
            idx = self._open(target)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx].counts = count(args, kwargs, result)
            return result
        return traced

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches.clear()


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "counts": {}})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += own
        for k, v in s.counts.items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v
    return out
