"""Hierarchical span profiler for the analysis pipeline.

Where :mod:`repro.obs.metrics` answers "how many" and the engine's
event log (:mod:`repro.obs.events`) answers "in what order", the
profiler answers
"*where did the time go*": it records a tree of named spans —
phase → rule-family → flow-pass — with per-span call counts,
cumulative seconds and (derived) self seconds, and exports the tree in
the standard folded-stack format consumed by flamegraph renderers
(``a;b;c 123``, one line per stack, integer sample weight).

This is the per-phase attribution CFA-at-scale work (Vardoulakis &
Shivers' CFA2, Van Horn & Mairson's complexity analyses) leans on to
diagnose closure blowups: a cubic-family run whose flame is dominated
by ``phase.close;sweep;rule.CLOSE-COV`` tells a very different story
from one stuck in ``flow.fused``.

Design constraints, matching the engine event log's:

* **Strictly opt-in.** Every instrumented call site holds
  ``profiler=None`` by default and guards emission with a single
  ``is not None`` test, so unprofiled runs pay one pointer comparison
  per span site.
* **Cheap when on.** Spans are ``__slots__`` objects interned per
  (parent, name); entering a re-visited span is two dict-free
  attribute reads, one dict ``get`` and one ``perf_counter`` call.
  Span sites are deliberately coarse — phases, demand sweeps,
  rule-family loops, whole flow passes — never per rule firing, so a
  profiled run stays within a few percent of an unprofiled one.
* **Re-entrancy.** The same name under the same parent accumulates
  (count += 1, seconds += elapsed); recursive entry (a member sweep
  triggered inside another sweep) nests naturally as a child span.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanProfiler",
    "validate_folded",
]


def _safe_symbol(name: str) -> str:
    """Folded-stack symbols may not contain the two structural
    characters (``;`` separates frames, a space separates the stack
    from its weight)."""
    if ";" in name or " " in name or "\t" in name or "\n" in name:
        for bad in (";", " ", "\t", "\n"):
            name = name.replace(bad, "_")
    return name


class Span:
    """One node of the span tree.

    ``seconds`` is *cumulative* (includes children); ``self_seconds``
    subtracts the children's cumulative time, clamped at zero so clock
    jitter can never produce a negative flamegraph weight.
    """

    __slots__ = ("name", "parent", "children", "count", "seconds", "_start")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = _safe_symbol(name)
        self.parent = parent
        self.children: Dict[str, "Span"] = {}
        self.count = 0
        self.seconds = 0.0
        self._start = 0.0

    @property
    def self_seconds(self) -> float:
        children = sum(c.seconds for c in self.children.values())
        return max(self.seconds - children, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} count={self.count} "
            f"seconds={self.seconds:.6f}>"
        )


class SpanProfiler:
    """Records a tree of timed spans.

    Imperative API (the engine's hot sites use this directly)::

        if profiler is not None:
            profiler.push("phase.close")
        try:
            ...
        finally:
            if profiler is not None:
                profiler.pop()

    or, where allocation cost does not matter, the context-manager
    sugar ``with profiler.span("phase.close"): ...``.
    """

    enabled = True

    def __init__(self) -> None:
        self.root = Span("", None)
        self._current = self.root

    # -- recording ---------------------------------------------------------

    def push(self, name: str) -> None:
        """Enter a span named ``name`` under the current span."""
        current = self._current
        child = current.children.get(name)
        if child is None:
            child = current.children[name] = Span(name, current)
        child._start = time.perf_counter()
        self._current = child

    def pop(self) -> None:
        """Leave the current span, accumulating its elapsed time."""
        span = self._current
        if span.parent is None:
            raise RuntimeError("SpanProfiler.pop() without matching push()")
        span.count += 1
        span.seconds += time.perf_counter() - span._start
        self._current = span.parent

    def span(self, name: str) -> "_SpanScope":
        """Context-manager sugar over :meth:`push`/:meth:`pop`."""
        return _SpanScope(self, name)

    @property
    def depth(self) -> int:
        """Current nesting depth (0 = at the root)."""
        depth = 0
        span = self._current
        while span.parent is not None:
            depth += 1
            span = span.parent
        return depth

    # -- export ------------------------------------------------------------

    def walk(self) -> Iterator[Tuple[Tuple[str, ...], Span]]:
        """Depth-first (path, span) pairs, root excluded."""
        stack: List[Tuple[Tuple[str, ...], Span]] = [
            ((child.name,), child)
            for child in reversed(list(self.root.children.values()))
        ]
        while stack:
            path, span = stack.pop()
            yield path, span
            for child in reversed(list(span.children.values())):
                stack.append((path + (child.name,), child))

    def folded(self, scale: int = 1_000_000) -> List[str]:
        """The span tree in folded-stack flamegraph format.

        One line per span: ``frame(;frame)* <int>`` where the integer
        is the span's *self* time scaled by ``scale`` (default:
        microseconds). Every recorded span produces a line — zero
        weights included, so the stack structure survives even for
        spans whose time rounded away.
        """
        return [
            ";".join(path) + " " + str(int(round(span.self_seconds * scale)))
            for path, span in self.walk()
        ]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The span tree as plain JSON-safe nested dicts."""

        def node(span: Span) -> Dict[str, object]:
            return {
                "count": span.count,
                "seconds": span.seconds,
                "self_seconds": span.self_seconds,
                "children": {
                    name: node(child)
                    for name, child in sorted(span.children.items())
                },
            }

        return {
            name: node(child)
            for name, child in sorted(self.root.children.items())
        }

    def total_seconds(self) -> float:
        """Cumulative seconds across the top-level spans."""
        return sum(c.seconds for c in self.root.children.values())

    def render(self, limit: Optional[int] = None) -> str:
        """Fixed-width report: one row per span, cumulative-sorted."""
        from repro.bench import Table

        rows = sorted(
            self.walk(), key=lambda item: item[1].seconds, reverse=True
        )
        if limit is not None:
            rows = rows[:limit]
        table = Table(
            ["span", "count", "cum s", "self s"], title="span profile"
        )
        for path, span in rows:
            table.add_row(
                ";".join(path),
                span.count,
                f"{span.seconds:.6f}",
                f"{span.self_seconds:.6f}",
            )
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = sum(1 for _ in self.walk())
        return f"<SpanProfiler spans={spans} depth={self.depth}>"


class _SpanScope:
    """Tiny reusable context manager for :meth:`SpanProfiler.span`."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: SpanProfiler, name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_SpanScope":
        self._profiler.push(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.pop()


def validate_folded(lines: List[str]) -> List[str]:
    """Structurally validate folded-stack output: every line must be
    ``sym(;sym)* <int>`` with non-empty, structural-character-free
    symbols and a non-negative integer weight. Returns the lines
    unchanged; raises :class:`ValueError` naming the first offender.
    """
    for index, line in enumerate(lines):
        head, sep, weight = line.rpartition(" ")
        if not sep or not head:
            raise ValueError(
                f"folded line {index}: expected 'stack weight', "
                f"got {line!r}"
            )
        if not weight.isdigit():
            raise ValueError(
                f"folded line {index}: weight {weight!r} is not a "
                "non-negative integer"
            )
        for frame in head.split(";"):
            if not frame or " " in frame:
                raise ValueError(
                    f"folded line {index}: bad frame {frame!r}"
                )
    return lines
