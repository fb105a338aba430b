"""Hierarchical span profiler for the analysis pipeline.

Where :mod:`repro.obs.metrics` answers "how many" and the engine's
event log (:mod:`repro.obs.events`) answers "in what order", the
profiler answers
"*where did the time go*": it records a tree of named spans —
layer → rule-family or pass → ... — with per-span call counts,
cumulative seconds and (derived) self seconds, and exports the tree in
the standard folded-stack format consumed by flamegraph renderers
(``a;b;c 123``, one line per stack, integer sample weight).

This is the per-layer attribution CFA-at-scale work (Vardoulakis &
Shivers' CFA2, Van Horn & Mairson's complexity analyses) leans on to
diagnose closure blowups: a cubic-family run whose flame is dominated
by ``core.close;sweep;rule.CLOSE-COV`` tells a very different story
from one stuck in ``lint;L001;rules.eval;flow;fused``.

Design constraints, matching the engine event log's:

* **One span path.** A profiler records only while it is bound to
  the current request (:func:`repro.obs.events.bind_request`); every
  span site reads it from there
  (:func:`repro.obs.events.current_profiler`) and guards emission with
  a single ``is not None`` test, so unprofiled runs pay one pointer
  comparison per span site. A span opened at the top of a stack is
  named after its layer (:data:`LAYERS`).
* **Cheap when on.** Spans are ``__slots__`` objects interned per
  (parent, name); entering a re-visited span is two dict-free
  attribute reads, one dict ``get`` and one ``perf_counter`` call.
  Span sites are deliberately coarse — layers, demand sweeps,
  rule-family loops, whole flow passes — never per rule firing, so a
  profiled run stays within a few percent of an unprofiled one.
* **Re-entrancy.** The same name under the same parent accumulates
  (count += 1, seconds += elapsed); recursive entry (a member sweep
  triggered inside another sweep) nests naturally as a child span.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "Span",
    "SpanProfiler",
    "validate_folded",
]

#: The stack's layers: the name of every span a package span site can
#: open at the top of a stack. Finer spans (``sweep``,
#: ``rule.CLOSE-COV``, a lint pass code, ``rules.eval``, a flow pass
#: name, a daemon verb) nest under one of them. Each layer's span sits
#: in the function layerbench wraps for it, under the same name
#: (``layerbench/spans.py`` ``LAYER_TIMES``); some layers have no
#: package span site yet.
LAYERS = (
    "lang.tokenize", "lang.parse", "lang.rename", "types.infer",
    "core.build", "core.close", "queries", "export", "flow", "lint",
    "cfa.standard", "serve.job",
    "delta.splice", "delta.dred", "delta.append", "delta.replay",
    "daemon.dispatch", "daemon.protocol", "events.flush",
)


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
    jitter can never produce a negative flamegraph weight. A span
    points only at its children (the profiler's stack knows the open
    path), so a dropped tree is freed by reference counting.
    """

    __slots__ = ("name", "children", "count", "seconds", "_start")

    def __init__(self, name: str):
        self.name = _safe_symbol(name)
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

        profiler = current_profiler()
        if profiler is not None:
            profiler.push("core.close")
        try:
            ...
        finally:
            if profiler is not None:
                profiler.pop()

    or, where allocation cost does not matter, the context-manager
    sugar ``with span("core.close"): ...``
    (:func:`repro.obs.events.span`).
    """

    def __init__(self) -> None:
        self.root = Span("")
        #: The open spans, root first.
        self._open: List[Span] = [self.root]

    # -- recording ---------------------------------------------------------

    def push(self, name: str) -> None:
        """Enter a span named ``name`` under the current span."""
        current = self._open[-1]
        child = current.children.get(name)
        if child is None:
            child = current.children[name] = Span(name)
        child._start = time.perf_counter()
        self._open.append(child)

    def pop(self) -> None:
        """Leave the current span, accumulating its elapsed time."""
        if len(self._open) == 1:
            raise RuntimeError("SpanProfiler.pop() without matching push()")
        span = self._open.pop()
        span.count += 1
        span.seconds += time.perf_counter() - span._start

    @contextlib.contextmanager
    def span(self, name: str):
        """Context-manager sugar over :meth:`push`/:meth:`pop`."""
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    @property
    def depth(self) -> int:
        """Current nesting depth (0 = at the root)."""
        return len(self._open) - 1

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
