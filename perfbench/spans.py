"""In-memory span tracer installed from outside the program.

The traced run wraps public functions and methods of the ``repro``
package at the attribute each caller resolves at call time: a method on
its class (``Timeline.record``), a module attribute called through the
module (``minilzo.compress``), or a name another module imported
(``repro.core.sweeps.receive``).  Nothing under ``src/`` changes; the
wrappers are removed when the run ends.

Each span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the benchmark's
operation id (chunk index, campaign index or job id) current when the
span opened.  A span's self time is its duration minus the time its
direct children cover; the program is single-threaded, so children never
overlap and that cover is their summed duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable

Measure = Callable[[dict, tuple, dict, Any], None]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any, bool]] = []

    def wrap(self, name: str, func: Callable,
             measure: Measure | None = None,
             outermost_only: bool = False) -> Callable:
        """A wrapper recording one span per call of ``func``.

        ``measure(counters, args, kwargs, result)`` adds work counts.
        With ``outermost_only`` a call made while a span of the same name
        is innermost runs unrecorded, so a recursive function is one
        span per top-level call.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            if outermost_only and stack and spans[stack[-1]][0] == name:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if measure is not None:
                measure(counters, args, kwargs, result)
            return result

        return traced

    def install(self, owner: Any, attr: str, name: str,
                measure: Measure | None = None,
                outermost_only: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper until uninstall."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr,
                self.wrap(name, original, measure, outermost_only))
        self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``wall_s`` and ``self_s``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["wall_s"] += end - start
            row["self_s"] += end - start - covered[index]
        return dict(table)

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
