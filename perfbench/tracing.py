"""Spans and call counts recorded around the package's public functions.

The benchmark installs wrappers from outside: every binding of a target
function in the package's modules (module attributes and the values of
module-level dicts such as the sampler table) is replaced while an
``instrument`` block is active, and restored when it ends.  Nothing in
``src/`` knows about tracing.

Each traced call pushes a frame; on return the frame's self time is its
duration minus the time covered by its direct children.  Coarse calls
keep a ``Span`` (name, start, end, parent); hot leaf-like calls (a
polynomial gcd, one W value) are only aggregated, so a run with a
million of them keeps no per-call record.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "qplancherel"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the nearest enclosing kept span, -1 at the top


@dataclass
class Aggregate:
    calls: int = 0
    # summed over outermost calls only, so recursion is not double counted
    inclusive_ns: int = 0
    self_ns: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    totals: dict[str, Aggregate] = field(default_factory=dict)
    _frames: list[list] = field(default_factory=list)
    _depth: dict[str, int] = field(default_factory=dict)

    def _enter(self, name: str, keep: bool) -> list:
        span_index = -1
        if keep:
            span_index = len(self.spans)
            self.spans.append(Span(name, 0, 0, self._kept_parent()))
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, span_index, 0, time.perf_counter_ns()]
        self._frames.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        name, span_index, child_ns, start = frame
        self._frames.pop()
        duration = end - start
        if self._frames:
            self._frames[-1][2] += duration
        depth = self._depth[name] - 1
        self._depth[name] = depth
        agg = self.totals.setdefault(name, Aggregate())
        agg.calls += 1
        agg.self_ns += duration - child_ns
        if depth == 0:
            agg.inclusive_ns += duration
        if span_index >= 0:
            span = self.spans[span_index]
            span.start_ns, span.end_ns = start, end

    def _kept_parent(self) -> int:
        for frame in reversed(self._frames):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def wrap(self, name: str, fn, keep: bool = True):
        """`fn` timed as `name`; `keep` also records one Span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def count(self, name: str, fn):
        """`fn` with its calls counted and not timed."""
        agg = self.totals.setdefault(name, Aggregate())

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            agg.calls += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def region(self, name: str):
        """A kept span around a block of the benchmark's own code."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    # ------------------------------------------------------------------
    # readings

    def calls(self, name: str) -> int:
        agg = self.totals.get(name)
        return agg.calls if agg else 0

    def inclusive_s(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg.inclusive_ns / 1e9 if agg else 0.0

    def self_s(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg.self_ns / 1e9 if agg else 0.0

    def under(self, index: int, name: str) -> bool:
        """Whether kept span `index` lies inside a kept span called `name`."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def span_s(self, name: str, outside: str | None = None) -> float:
        """Summed duration of the kept spans called `name`, leaving out
        those nested inside a span called `outside`."""
        return sum(
            (
                (s.end_ns - s.start_ns) / 1e9
                for i, s in enumerate(self.spans)
                if s.name == name and not (outside and self.under(i, outside))
            ),
            0.0,
        )

    def as_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.start_ns, s.end_ns, s.parent] for s in self.spans
            ],
            "totals": {
                name: [a.calls, a.inclusive_ns, a.self_ns]
                for name, a in sorted(self.totals.items())
            },
        }


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def instrument(replacements: dict):
    """Swap every binding of each original function for its wrapper.

    `replacements` maps an original function object to its wrapper,
    matched by identity.  A module attribute or a module-level dict
    value bound to the original is replaced, so names imported with
    ``from ... import`` are caught too.  All bindings are restored on
    exit.
    """
    targets = {id(original): wrapper for original, wrapper in replacements.items()}
    undo = []
    try:
        for module in _package_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in targets:
                            undo.append((value, key, item))
                            value[key] = targets[id(item)]
                elif id(value) in targets:
                    undo.append((namespace, attr, value))
                    namespace[attr] = targets[id(value)]
        yield
    finally:
        for container, key, original in reversed(undo):
            container[key] = original

