"""The F-series dataflow lints and the T-series auditor.

The F-series rules read the flow relations of the shipped lint rule
programs (:mod:`repro.rules.programs`), evaluated once per lint
session by :attr:`~repro.lint.passes.LintContext.rules_evaluation`
(one fused sweep services the L002/L004 reachability relations and
all four F analyses):

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
``F001``  warning   tainted sink — a primitive argument may carry a
                    value read out of a mutable cell (``!r``)
``F002``  warning   escaping reference — a ``ref`` cell flows into a
                    primitive/external sink
``F003``  info      unneeded parameter — no use ever demands the
                    parameter's variable node
``F004``  warning   unreachable branch — the scrutinee's bounded
                    constructor set excludes the branch's constructor
========  ========  =====================================================

The T-series rules surface the :mod:`repro.flow.audit` linearity
auditor — the static check of the Proposition 3/4 preconditions that
the engine itself never performs:

========  ========  =====================================================
``T001``  warning   unbounded types — the program is untypeable or its
                    max type-tree size exceeds the ``P_k`` bound
``T002``  info      predicted demanded-node count exceeds the hybrid
                    driver's LC' node budget
``T003``  warning   hybrid-fallback forecast — the driver is predicted
                    to abandon LC' (and why)
========  ========  =====================================================

T verdicts depend only on the program text (type inference), never on
the graph, so :func:`audit_verdicts` is shared verbatim by the graph
path and the standard-CFA fallback path — the two engines agree by
construction.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lang.ast import Case, Ref

from repro.lint.passes import LintPass


class TaintedSinkPass(LintPass):
    """F001 — external output may depend on mutable state.

    ``lint-f001``: ``taint`` marks flow backward from every
    dereference node, so a marked node may evaluate to a value read
    out of a cell; ``tainted_sink(S)`` joins the marks with the
    primitive-argument sinks, which hand such a value to the outside
    world.
    """

    code = "F001"
    name = "tainted-sink"
    severity = "warning"

    def run(self, ctx):
        tainted = ctx.extent("tainted_sink")
        findings = []
        seen = set()
        for arg, _node in ctx.flow.sink_arg_nodes:
            if arg.nid in seen:
                continue
            if arg.nid not in tainted:
                continue
            seen.add(arg.nid)
            finding = self.finding(
                arg,
                "primitive argument may carry a value read "
                "from a mutable cell: external output depends "
                "on mutable state",
            )
            ctx.derivation(finding, "tainted_sink", (arg.nid,))
            findings.append(finding)
        return findings


class EscapingRefPass(LintPass):
    """F002 — a reference cell flows into a primitive/external sink.

    ``lint-f002``: ``escaping_ref(N)`` restricts the L004 escape marks
    to ref-bearing nodes; a ``ref`` expression they carry can be
    aliased by the outside world, so no assignment through it is
    locally accountable. Findings land in nid order.
    """

    code = "F002"
    name = "escaping-ref"
    severity = "warning"

    def run(self, ctx):
        by_nid = {}
        for node in ctx.extent("escaping_ref"):
            if getattr(node, "kind", None) != "expr":
                continue
            for expr in (node.expr, *node.absorbed):
                if isinstance(expr, Ref):
                    by_nid[expr.nid] = (expr, node)
        findings = []
        for nid in sorted(by_nid):
            expr, node = by_nid[nid]
            finding = self.finding(
                expr,
                "reference cell flows into a primitive sink and "
                "escapes the analysed program: aliasing beyond "
                "this point is unanalysable",
            )
            ctx.derivation(finding, "escaping_ref", (node,))
            findings.append(finding)
        return findings


class UnneededParamPass(LintPass):
    """F003 — a parameter no use ever demands.

    LC''s build rules materialise the use relation as in-edges on
    variable nodes (the binder itself only routes edges out, via
    ABS-1), so a parameter whose variable node attracted no in-edge is
    never needed — the abstraction is lazy in it. ``lint-f003``:
    ``unneeded_param(N, L)`` is the parameter view joined with the
    complement of ``var_used``; a parameter whose variable node was
    never built is trivially unneeded. Underscore-prefixed names opt
    out, as for L005.
    """

    code = "F003"
    name = "unneeded-param"
    severity = "info"

    def run(self, ctx):
        unneeded = ctx.extent("unneeded_param")
        peek_var = ctx.factory.peek_var
        findings = []
        for lam in ctx.program.abstractions:
            if lam.param.startswith("_"):
                continue
            var_node = peek_var(lam.param)
            if var_node is not None and (var_node, lam.label) not in unneeded:
                continue
            finding = self.finding(
                lam,
                f"parameter '{lam.param}' of function "
                f"'{lam.label}' is never needed: no use "
                "demands its variable node",
                label=lam.label,
            )
            if var_node is not None:
                ctx.derivation(
                    finding, "unneeded_param", (var_node, lam.label)
                )
            findings.append(finding)
        return findings


class UnreachableBranchPass(LintPass):
    """F004 — a case branch whose constructor cannot reach the
    scrutinee.

    ``lint-f004``: ``con_val`` propagates k-bounded constructor-name
    sets backward from every construction, with k the largest
    constructor count of any declared datatype
    (:func:`~repro.rules.programs.constructor_k`) — so the annotation
    is exact whenever it is not MANY. A branch naming a constructor
    outside a scrutinee's exact, non-empty set can never match;
    bottom (no annotation) and MANY give no verdict — conservative,
    never a false positive.
    """

    code = "F004"
    name = "unreachable-branch"
    severity = "warning"

    def run(self, ctx):
        from repro.rules.lattice import MANY

        values = ctx.extent("con_val")
        findings = []
        for node in ctx.program.nodes:
            if not isinstance(node, Case):
                continue
            scrut_node = ctx.peek(node.scrutinee)
            annotation = values.get(scrut_node)
            if annotation is None or annotation is MANY or not annotation:
                continue
            for branch in node.branches:
                if branch.cname not in annotation:
                    reachable = ", ".join(sorted(annotation))
                    finding = self.finding(
                        branch.body,
                        f"branch '{branch.cname}' can never "
                        "match: the scrutinee only constructs "
                        f"{{{reachable}}}",
                    )
                    ctx.derivation(finding, "con_val", (scrut_node,))
                    findings.append(finding)
        return findings


# -- T-series: the linearity auditor ---------------------------------------


def audit_verdicts(audit) -> List[Tuple[str, str]]:
    """``(code, message)`` pairs for a
    :class:`~repro.flow.audit.LinearityAudit` — shared by the graph
    path and the standard-CFA fallback so both engines agree."""
    verdicts: List[Tuple[str, str]] = []
    if not audit.typeable:
        verdicts.append(
            (
                "T001",
                "program is untypeable: it lies outside every "
                "bounded-type class P_k, so the linear-time "
                "guarantee (Propositions 3/4) does not apply",
            )
        )
    elif not audit.bounded:
        verdicts.append(
            (
                "T001",
                f"max type-tree size {audit.max_type_size} exceeds "
                f"the bounded-type threshold k={audit.size_threshold}: "
                "the linear-time guarantee (Propositions 3/4) does "
                "not apply",
            )
        )
    if (
        audit.typeable
        and audit.predicted_nodes is not None
        and audit.predicted_nodes > audit.node_budget
    ):
        verdicts.append(
            (
                "T002",
                f"predicted demanded-node count "
                f"{audit.predicted_nodes} exceeds the hybrid "
                f"driver's LC' node budget {audit.node_budget}",
            )
        )
    forecast = audit.forecast
    if forecast is not None:
        verdicts.append(
            (
                "T003",
                "hybrid driver is forecast to abandon LC' "
                f"({forecast}) on this program",
            )
        )
    return verdicts


class _AuditPass(LintPass):
    """Base for the T-series: one whole-program verdict, anchored at
    the root expression. T verdicts are pure type inference: they
    never read the graph or the rule programs."""

    def run(self, ctx):
        # Session-grown programs have no root expression (and no
        # whole-program type): nothing to audit.
        root = getattr(ctx.program, "root", None)
        if root is None:
            return []
        return [
            self.finding(root, message)
            for code, message in audit_verdicts(ctx.linearity_audit)
            if code == self.code
        ]


class UnboundedTypePass(_AuditPass):
    """T001 — the program violates the ``P_k`` precondition (it is
    untypeable, or its max type-tree size exceeds the threshold)."""

    code = "T001"
    name = "unbounded-type"
    severity = "warning"


class NodeBudgetPass(_AuditPass):
    """T002 — the predicted demanded-node count (sum of type-tree
    sizes over all occurrences, the Section 4 bound) exceeds the
    hybrid driver's LC' node budget."""

    code = "T002"
    name = "node-budget-exceeded"
    severity = "info"


class FallbackForecastPass(_AuditPass):
    """T003 — the hybrid driver is forecast to abandon LC' on this
    program, with the predicted reason (``inference`` or
    ``budget``)."""

    code = "T003"
    name = "fallback-forecast"
    severity = "warning"


FLOW_PASSES = (
    TaintedSinkPass,
    EscapingRefPass,
    UnneededParamPass,
    UnreachableBranchPass,
)

AUDIT_PASSES = (
    UnboundedTypePass,
    NodeBudgetPass,
    FallbackForecastPass,
)
