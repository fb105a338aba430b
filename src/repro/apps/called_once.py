"""Called-once analysis: functions invoked from exactly one call site.

Listed in the paper's abstract as the third linear-time CFA-consuming
application: "identify all functions called from only one call-site"
(the classic precondition for inlining a function body without code
growth).

A function labelled ``l`` is *called from* site ``(e1 e2)`` when
``l in L(e1)``. On the subtransitive graph that is a path from the
operator node to the abstraction node, so the ``app-called-once``
rule program (:mod:`repro.rules.programs`) seeds every operator node
with a marker for its site and propagates markers *forward* along
edges with the 1-bounded set lattice: an abstraction annotated with a
singleton ``{s}`` is called from exactly the one site ``s``; bottom
means dead (never called); MANY means multiple sites.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro._util import Stopwatch
from repro.flow.lattice import MANY
from repro.lang.ast import App, Lam, Program

from repro.core.lc import SubtransitiveGraph, build_subtransitive_graph
from repro.flow.framework import FlowContext


class CalledOnceResult:
    """Classification of every abstraction by caller multiplicity."""

    def __init__(
        self,
        program: Program,
        called_once: Dict[str, int],
        never_called: FrozenSet[str],
        many_callers: FrozenSet[str],
        seconds: float,
    ):
        self.program = program
        #: label -> the nid of its unique call site.
        self._once = called_once
        #: Labels of abstractions no call site can invoke.
        self.never_called = never_called
        #: Labels invoked from two or more sites.
        self.many_callers = many_callers
        self.seconds = seconds

    @property
    def once_labels(self) -> FrozenSet[str]:
        """Labels called from exactly one site."""
        return frozenset(self._once)

    def unique_site(self, label: str) -> Optional[App]:
        """The single call site of ``label``, or None."""
        nid = self._once.get(label)
        if nid is None:
            return None
        site = self.program.node(nid)
        assert isinstance(site, App)
        return site

    def classify(self, label: str) -> str:
        """'never' | 'once' | 'many' for an abstraction label."""
        self.program.abstraction(label)  # validate
        if label in self._once:
            return "once"
        if label in self.never_called:
            return "never"
        return "many"

    def inline_candidates(self) -> List[Tuple[Lam, App]]:
        """(abstraction, its unique call site) pairs."""
        return [
            (self.program.abstraction(label), self.unique_site(label))
            for label in sorted(self._once)
        ]


def called_once(
    program: Program,
    sub: Optional[SubtransitiveGraph] = None,
) -> CalledOnceResult:
    """Run the linear-time called-once analysis."""
    from repro.rules.programs import called_once_rule_set

    if sub is None:
        sub = build_subtransitive_graph(program)
    ctx = FlowContext(program=program, sub=sub)
    with Stopwatch() as watch:
        evaluation = called_once_rule_set().run(ctx=ctx)
    calls = evaluation.extents.data["calls"]
    once: Dict[str, int] = {}
    never = set()
    many = set()
    for lam in program.abstractions:
        annotation = calls.get(sub.factory.expr_node(lam))
        if annotation is None:
            never.add(lam.label)
        elif annotation is MANY:
            many.add(lam.label)
        else:
            (site_nid,) = annotation
            once[lam.label] = site_nid
    return CalledOnceResult(
        program, once, frozenset(never), frozenset(many), watch.elapsed
    )
