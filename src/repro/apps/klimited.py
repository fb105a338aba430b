"""k-limited CFA (paper Section 9), in linear time.

"In many applications of CFA, we are only interested in knowing
information about call sites where a small number of functions can be
called ... We start by annotating nodes corresponding to functions
with the singleton set containing just that function, and all other
nodes with the empty set. Then, we propagate information back along
edges." Applications named by the paper: inlining and specialization.

The annotation of a node is its *exact* label set whenever that set
has at most k elements, and :data:`~repro.flow.lattice.MANY`
otherwise — which the test suite verifies against the exact analysis.
The propagation is the ``app-klimited`` rule program
(:func:`repro.rules.programs.klimited_program`): ``klabels`` carries
k-bounded label sets backward from the lambda-bearing nodes in one
compiled flow sweep.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._util import Stopwatch
from repro.errors import QueryError
from repro.flow.lattice import MANY, Annotation
from repro.lang.ast import App, Expr, Program

from repro.core.lc import SubtransitiveGraph, build_subtransitive_graph
from repro.core.nodes import Node
from repro.flow.framework import FlowContext


class KLimitedResult:
    """Per-node k-limited annotations over a subtransitive graph."""

    def __init__(
        self,
        sub: SubtransitiveGraph,
        k: int,
        values: Dict[Node, Annotation],
        seconds: float,
    ):
        self.sub = sub
        self.program = sub.program
        self.k = k
        self._values = values
        #: Wall-clock seconds spent in the propagation phase.
        self.seconds = seconds

    def _value_at(self, node: Node) -> Annotation:
        return self._values.get(node, frozenset())

    def labels_of(self, expr: Expr) -> Annotation:
        """L(e) if it has at most k labels, else MANY."""
        if self.program.node(expr.nid) is not expr:
            raise QueryError(
                f"expression #{expr.nid} belongs to a different program"
            )
        return self._value_at(self.sub.node_of(expr))

    def labels_of_var(self, name: str) -> Annotation:
        """The variable's label set if small, else MANY."""
        return self._value_at(self.sub.node_of_var(name))

    def may_call(self, site: App) -> Annotation:
        """Callee labels of ``site`` if at most k, else MANY."""
        return self.labels_of(site.fn)

    def is_many(self, site: App) -> bool:
        return self.may_call(site) is MANY

    def monomorphic_sites(self) -> Dict[int, str]:
        """Call sites with exactly one possible callee (the inlining
        candidates), keyed by application nid."""
        out: Dict[int, str] = {}
        for site in self.program.applications:
            value = self.may_call(site)
            if value is not MANY and len(value) == 1:
                (label,) = value
                out[site.nid] = label
        return out


def k_limited_cfa(
    program: Program,
    k: int,
    sub: Optional[SubtransitiveGraph] = None,
) -> KLimitedResult:
    """Run k-limited CFA.

    Reuses a prebuilt subtransitive graph when given (the LC' build
    is shared across all the consuming analyses of a compilation).
    """
    from repro.rules.programs import klimited_rule_set

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sub is None:
        sub = build_subtransitive_graph(program)
    # Seed every abstraction: expr_node *builds* a node for one the
    # depth cap left out, so the lam_at view sees them all.
    for lam in program.abstractions:
        sub.factory.expr_node(lam)
    ctx = FlowContext(program=program, sub=sub)
    with Stopwatch() as watch:
        evaluation = klimited_rule_set(k).run(ctx=ctx)
    return KLimitedResult(
        sub, k, evaluation.extents.data["klabels"], watch.elapsed
    )
