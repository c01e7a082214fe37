"""Call-site tracing for the benchmark's traced run.

Nothing in the program under test is traced from the inside: the tracer
swaps each traced function, at every module attribute that refers to it,
for a wrapper that records a span (name, start, end, parent) and counts,
and puts every original object back afterwards.  Spans stay in memory and
are reduced to per-name self times when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Iterable, Sequence

# observe(counts, args, kwargs, result, error) adds per-call counts; result
# is None when the call raised, and error is None when it returned.
Observer = Callable[[dict, tuple, dict, object, BaseException | None], None]


def self_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Total self time per span name.

    Each span is (name, start, end, parent), parent being the index of the
    enclosing span or -1.  A span's self time is its duration minus the
    part of that interval its child spans cover.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


class CountingHeapq:
    """Stand-in for the heapq module that counts heap pops."""

    def __init__(self, real: ModuleType) -> None:
        self.heappush = real.heappush
        self._heappop = real.heappop
        self.pops = 0

    def heappop(self, heap: list):
        self.pops += 1
        return self._heappop(heap)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        """Name of the innermost open span; inside an observer, the caller's."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrapper(self, original: Callable, name: str, observe: Observer | None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        calls_key = name + ".calls"

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                counts[calls_key] += 1
                if observe is not None:
                    observe(counts, args, kwargs, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            counts[calls_key] += 1
            if observe is not None:
                observe(counts, args, kwargs, result, None)
            return result

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap_function(self, modules: Iterable[ModuleType], fn: Callable, name: str,
                      observe: Observer | None = None) -> None:
        """Wrap fn at every module attribute bound to it, i.e. at each import site."""
        wrapper = self._wrapper(fn, name, observe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str,
                    observe: Observer | None = None) -> None:
        self._patch(cls, attr, self._wrapper(vars(cls)[attr], name, observe))

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Swap an attribute for a stand-in for the duration of the trace."""
        self._patch(owner, attr, replacement)

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not restore."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        stale = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patches
                 if vars(owner)[attr] is not original]
        self._patches.clear()
        return stale
