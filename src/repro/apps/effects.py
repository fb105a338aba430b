"""Effects analysis (paper Section 8), in linear time.

The naive CFA consumer "runs the standard CFA algorithm, builds the
list of functions that can be called from each call-site, and then
iterates over this information" — at least quadratic, because the call
graph alone is quadratic. The paper's linear alternative colours the
subtransitive graph directly:

    "we color all applications that involve side-effecting operations
    with red, and then propagate coloring as follows: (a) a node
    (e1 e2) is colored red if either e1, e2 or ran(e1) are red; (b) a
    node ran(e) is colored red if there is an edge ran(e) -> e' and e'
    is red."

Rule (b) pulls redness *backwards* along graph edges, but only into
``ran`` nodes — that limited transitive closure is what keeps the
fixpoint linear. We extend rule (a) in the obvious structural way to
the full language (a record is red if a field is red, etc.); an
abstraction is *never* structurally red — building a closure is pure —
which is exactly why redness must route through the ``ran`` chain to
reach the call sites that can actually run the body.

The colouring is the ``app-effects`` rule program
(:mod:`repro.rules.programs`): ``red`` closes the base-effectful seeds
forward along ``eff_edge``, the propagation relation
:meth:`repro.flow.analyses.EffectsAnalysis.downstream` defines, in
one compiled flow sweep.

:func:`effects_analysis_baseline` is the quadratic consumer, run on
any :class:`~repro.cfa.base.CFAResult`; the two produce *identical*
red sets (the paper: "computes exactly the same effects information"),
a property the test suite checks.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set

from repro._util import Stopwatch
from repro.cfa.base import CFAResult
from repro.lang.ast import App, Expr, Program

from repro.core.lc import SubtransitiveGraph, build_subtransitive_graph
from repro.core.nodes import Node
from repro.flow.analyses import (
    base_red as _base_red,
    structural_parent_rule as _structural_parent_rule,
)
from repro.flow.framework import FlowContext


class EffectsResult:
    """The set of possibly-side-effecting expression occurrences."""

    def __init__(self, program: Program, red_nids: FrozenSet[int], seconds: float):
        self.program = program
        self._red = red_nids
        self.seconds = seconds

    def is_effectful(self, expr: Expr) -> bool:
        """May evaluating ``expr`` perform a side effect?"""
        return expr.nid in self._red

    @property
    def red_nids(self) -> FrozenSet[int]:
        return self._red

    def effectful_expressions(self) -> List[Expr]:
        return [self.program.node(nid) for nid in sorted(self._red)]

    def pure_applications(self) -> List[App]:
        """Call sites proven side-effect free (e.g. safe to reorder)."""
        return [
            site
            for site in self.program.applications
            if site.nid not in self._red
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EffectsResult) and other._red == self._red
        )

    def __hash__(self) -> int:  # pragma: no cover
        return hash(self._red)


def effects_analysis(
    program: Program,
    sub: Optional[SubtransitiveGraph] = None,
) -> EffectsResult:
    """Linear-time effects analysis on the subtransitive graph."""
    # Imported on use: the rule layer is not needed to import repro.
    from repro.rules.programs import effects_rule_set

    if sub is None:
        sub = build_subtransitive_graph(program)
    ctx = FlowContext(program=program, sub=sub)
    with Stopwatch() as watch:
        evaluation = effects_rule_set().run(ctx=ctx)
    # The fixpoint mixes AST expressions with ran graph nodes; the
    # result exposes only the expression colouring.
    red = frozenset(
        item.nid
        for item in evaluation.extents.data["red"]
        if not isinstance(item, Node)
    )
    return EffectsResult(program, red, watch.elapsed)


def effects_analysis_baseline(
    program: Program, cfa: CFAResult
) -> EffectsResult:
    """The quadratic CFA-consuming baseline.

    Materialises callees per call site from a completed CFA, then runs
    the fixpoint: an application is red if a subexpression is red or
    some callee's body is red; any non-lambda node is red if a child
    is red.
    """
    parent_of: Dict[int, Expr] = {}
    for node in program.nodes:
        for child in node.children():
            parent_of[child.nid] = node

    # label -> call sites that may invoke it (the quadratic structure).
    sites_of_label: Dict[str, List[App]] = {}
    for site in program.applications:
        for label in cfa.may_call(site):
            sites_of_label.setdefault(label, []).append(site)
    # body nid -> owning abstraction label
    body_owner: Dict[int, str] = {
        lam.body.nid: lam.label for lam in program.abstractions
    }

    red: Set[int] = set()
    queue = deque()

    def mark(expr: Expr) -> None:
        if expr.nid not in red:
            red.add(expr.nid)
            queue.append(expr)

    with Stopwatch() as watch:
        for node in program.nodes:
            if _base_red(node):
                mark(node)
        while queue:
            expr = queue.popleft()
            parent = parent_of.get(expr.nid)
            if parent is not None and _structural_parent_rule(parent):
                mark(parent)
            label = body_owner.get(expr.nid)
            if label is not None:
                for site in sites_of_label.get(label, ()):
                    mark(site)
    return EffectsResult(program, frozenset(red), watch.elapsed)
