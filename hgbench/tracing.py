"""Span tracing installed from outside the package.

A :class:`Tracer` replaces chosen module attributes of ``hgstate`` with
wrappers that record one span per call (name, start, end, parent) and
restores the originals afterwards.  Nothing under ``src/`` knows about it.
Spans stay in memory; the benchmark writes them out when it ends.

``_sweep`` is not traced as a span, because a classification makes ~10^4
short calls to it.  Its wrapper only bumps a counter on the nearest
enclosing span that attributes sweeps (see ``SWEEP_OWNERS``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    sweeps: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# spans that own the _sweep calls made beneath them, innermost first wins
SWEEP_OWNERS = frozenset(
    ("geoment.solve_code", "geoment.degeneracy_pattern", "geoment._best_real_overlap")
)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval its children cover.

    Children are clipped to the span and overlapping children are counted
    once, so the result is never negative.
    """
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


class Tracer:
    """Records spans from wrappers it installs on module attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing: set[str] = set()

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_return is not None:
                on_return(span, args, result)
            return result

        return traced

    def _count_sweeps(self, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            for idx in reversed(stack):
                if spans[idx].name in SWEEP_OWNERS:
                    spans[idx].sweeps += 1
                    break
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, targets):
        """Install wrappers for ``targets`` for the duration of the block.

        Each target is ``(holder, key, name, kind, on_return)``: ``holder``
        is a module (the attribute ``key`` is replaced) or a dict (the entry
        ``key`` is replaced); ``kind`` is "span" or "sweeps".  A target
        whose attribute no longer exists is recorded in ``missing`` and
        skipped, so metrics built on it are reported missing, not zero.
        """
        restore = []
        try:
            for holder, key, name, kind, on_return in targets:
                is_dict = isinstance(holder, dict)
                present = key in holder if is_dict else hasattr(holder, key)
                if not present:
                    self.missing.add(name)
                    continue
                original = holder[key] if is_dict else getattr(holder, key)
                wrapper = (self._count_sweeps(original) if kind == "sweeps"
                           else self._wrap(name, original, on_return))
                if is_dict:
                    holder[key] = wrapper
                else:
                    setattr(holder, key, wrapper)
                restore.append((holder, key, original, is_dict))
            yield self
        finally:
            for holder, key, original, is_dict in reversed(restore):
                if is_dict:
                    holder[key] = original
                else:
                    setattr(holder, key, original)


def children_of(spans: list[Span], lo: int, hi: int) -> dict[int, list[Span]]:
    """Direct children of every span in ``spans[lo:hi]``, by parent index."""
    out: dict[int, list[Span]] = {}
    for span in spans[lo:hi]:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def outermost(spans: list[Span], name: str, lo: int, hi: int) -> list[Span]:
    """Spans in ``spans[lo:hi]`` called ``name`` that have no ancestor of the
    same name, so a nested call is not counted twice."""
    out = []
    for span in spans[lo:hi]:
        if span.name != name:
            continue
        p = span.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(span)
    return out

