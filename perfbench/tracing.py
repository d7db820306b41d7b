"""In-memory spans recorded by wrappers the benchmark installs around the
program's functions, and the self times computed from them.

A span is ``[name, start, end, parent, note]``; ``parent`` is the index of
the enclosing span or -1.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the durations of the root spans exactly.
"""

from __future__ import annotations

import functools
import time
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, note: Callable | None = None) -> Callable:
        """``fn`` recording a span per call.  ``note(args, result)`` runs after
        the span closes and its value is kept on the span; it should only keep
        references or small tuples, so its cost stays out of every span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note: Callable | None = None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by its traced
        wrapper until ``restore``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, name, note)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, note))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans = self.spans[:]
        self.spans.clear()  # the wrappers hold this list
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def root_time(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
