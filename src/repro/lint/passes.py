"""The lint passes and their shared per-program context.

Every L/F verdict is read off one evaluation of the shipped lint rule
programs (:mod:`repro.rules.programs`): :attr:`LintContext.
rules_evaluation` runs them once per lint session, and their five
recursive relations (``reach_lam``, ``escape``, ``taint``, ``calls``,
``con_val``) fuse into a single :mod:`repro.flow` sweep, so the whole
run stays linear in the subtransitive graph. No pass ever materialises
a label set — a regression test holds the ``queries.labels_of`` /
``queries.count`` counters at zero across a full lint run. A pass
then reads the output relation it needs; the L-series lives here, the
F- and T-series in :mod:`repro.lint.flowrules`.

When the context carries ``explain=True`` the programs run with
provenance and each L/F finding carries its derivation chain — which
rules fired on which ground facts — rendered by
:meth:`repro.rules.engine.RuleEvaluation.derivation` and surfaced by
``repro lint --explain``.

``scope`` (a set of nids, or ``None`` for everything) restricts a pass
to the constructs an incremental session actually needs re-examined;
passes whose findings can *appear* on untouched old constructs declare
``incremental = False`` and ignore the scope (see
:meth:`repro.session.AnalysisSession.lint`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from repro.lang.ast import Prim

from repro.lint.findings import Finding


def _span(expr):
    # Synthetic nodes (session-built, builder-made) carry 0:0 —
    # report those as spanless rather than pointing at line 0.
    if expr.line or expr.column:
        return {"line": expr.line, "column": expr.column}
    return {"line": None, "column": None}


class LintContext:
    """Shared, lazily-computed artefacts for one lint run.

    ``lint.visited_nodes`` on the registry accounts the nodes the two
    reachability relations (``reach_lam``, ``escape``) mark — the
    number the O(edges) regression tests bound by the graph size.
    """

    def __init__(
        self,
        program,
        sub,
        registry=None,
        explain=False,
        audit=None,
    ):
        self.program = program
        self.sub = sub
        self.factory = sub.factory
        self.registry = (
            registry if registry is not None else sub.stats.registry
        )
        #: When True, the rule programs run with provenance recording
        #: and the passes attach derivations to findings.
        self.explain = explain
        self._flow = None
        self._rules_evaluation = None
        self._audit = audit

    def peek(self, expr):
        """The already-built graph node of ``expr`` (never creates)."""
        return self.factory.peek_expr(expr)

    @property
    def flow(self):
        """The :class:`repro.flow.framework.FlowContext` the rule
        programs run on (same registry, same caches)."""
        if self._flow is None:
            from repro.flow.framework import FlowContext

            self._flow = FlowContext(
                self.program, self.sub, registry=self.registry
            )
        return self._flow

    @property
    def rules_evaluation(self):
        """The compiled lint rule programs (every L/F program plus
        called-once), evaluated once per lint run on the shared flow
        context: all five recursive relations fuse into one sweep."""
        if self._rules_evaluation is None:
            from repro.rules.programs import (
                constructor_k,
                lint_rule_set,
            )

            rule_set = lint_rule_set(constructor_k(self.program))
            evaluation = rule_set.run(ctx=self.flow, explain=self.explain)
            data = evaluation.extents.data
            self.registry.counter("lint.visited_nodes").inc(
                len(data["reach_lam"]) + len(data["escape"])
            )
            self._rules_evaluation = evaluation
        return self._rules_evaluation

    def extent(self, name: str):
        """One output relation of the lint programs, as stored: a dict
        of keys (bare for a single-column key, else tuples) mapped to
        True, or to the annotation of a k-bounded relation."""
        return self.rules_evaluation.extents.data[name]

    def derivation(self, finding, name: str, key) -> None:
        """Attach ``name(key)``'s derivation chain to ``finding`` when
        the run is explained."""
        if self.explain:
            finding.derivation = self.rules_evaluation.derivation(name, key)

    @property
    def linearity_audit(self):
        """The :class:`repro.flow.audit.LinearityAudit` shared by the
        T-series rules: the one handed in, else made from the graph's
        own inference outcome (inferring only if the graph ran none)."""
        if self._audit is None:
            from repro.flow.audit import audit_linearity

            self._audit = audit_linearity(
                self.program, self.sub.inference
            )
        return self._audit


def primitive_sink_args(program) -> Iterable:
    """The expressions handed to primitives — the "external sinks" a
    function can escape through (Section 8's effectful applications
    are a subset of these)."""
    for node in program.nodes:
        if isinstance(node, Prim):
            for arg in node.args:
                yield arg


class LintPass:
    """Base class: one rule code, one severity, one linear read."""

    code: str = ""
    name: str = ""
    severity: str = "warning"
    #: False when a finding may newly appear on a construct outside
    #: the redefinition scope (the session then always runs it fully).
    incremental: bool = True

    def run(
        self, ctx: LintContext, scope: Optional[Set[int]] = None
    ) -> List[Finding]:
        raise NotImplementedError

    def _in_scope(self, expr, scope: Optional[Set[int]]) -> bool:
        return scope is None or expr.nid in scope

    def finding(self, expr, message: str, label=None) -> Finding:
        return Finding(
            self.code,
            self.severity,
            expr.nid,
            message,
            label=label,
            **_span(expr),
        )


class DeadLambdaPass(LintPass):
    """L001 — an abstraction no call site can ever invoke.

    ``lint-l001``: ``dead_fun(N, L)`` joins the lambda-bearing index
    with the stratified complement of ``called``, the boolean
    projection of the 1-bounded ``calls`` propagation. Dead code that
    is *values* (never-called closures) is invisible to
    reachability-style dead code elimination on the CFG — this is the
    CFA-level counterpart. An abstraction whose node was never built
    (depth-capped away) is never called either.
    """

    code = "L001"
    name = "dead-lambda"
    severity = "warning"

    def run(self, ctx, scope=None):
        dead = ctx.extent("dead_fun")
        findings = []
        for lam in ctx.program.abstractions:
            if not self._in_scope(lam, scope):
                continue
            node = ctx.peek(lam)
            if node is not None and (node, lam.label) not in dead:
                continue
            finding = self.finding(
                lam,
                f"function '{lam.label}' is never called: "
                "no call site can invoke it",
                label=lam.label,
            )
            if node is not None:
                ctx.derivation(finding, "dead_fun", (node, lam.label))
            findings.append(finding)
        return findings


class StuckApplicationPass(LintPass):
    """L002 — an application whose operator label set is provably
    empty: ``L(e1) = {}`` so the call can never fire (the expression
    is stuck or dead at runtime).

    ``lint-l002``: ``reach_lam`` marks every node that can reach an
    abstraction (one backward sweep from the lambda-bearing nodes),
    and a site is ``stuck`` when its operator node is in the
    complement — no per-site label-set materialisation.
    """

    code = "L002"
    name = "stuck-application"
    severity = "error"

    def run(self, ctx, scope=None):
        stuck = ctx.extent("stuck")
        findings = []
        for site in ctx.program.applications:
            if site.nid not in stuck or not self._in_scope(site, scope):
                continue
            finding = self.finding(
                site,
                "this application can never fire: the "
                "operator's label set is provably empty",
            )
            ctx.derivation(finding, "stuck", (site.nid,))
            findings.append(finding)
        return findings


class CalledOncePass(LintPass):
    """L003 — an abstraction called from exactly one site: the classic
    inline-without-code-growth candidate (paper abstract, item 3).

    ``app-called-once``: an abstraction whose node's ``calls``
    annotation is a singleton is called from exactly that site."""

    code = "L003"
    name = "called-once-inline-candidate"
    severity = "info"

    def run(self, ctx, scope=None):
        from repro.rules.lattice import MANY

        calls = ctx.extent("calls")
        once = {}
        for lam in ctx.program.abstractions:
            node = ctx.peek(lam)
            annotation = calls.get(node)
            if annotation is None or annotation is MANY:
                continue
            (site_nid,) = annotation
            once[lam.label] = (site_nid, node)
        findings = []
        for label in sorted(once):
            lam = ctx.program.abstraction(label)
            if not self._in_scope(lam, scope):
                continue
            site_nid, node = once[label]
            finding = self.finding(
                lam,
                f"function '{label}' is called from exactly one "
                f"site (nid {site_nid}): inlining it cannot grow "
                "code",
                label=label,
            )
            ctx.derivation(finding, "calls", (node,))
            findings.append(finding)
        return findings


class EscapingFunctionPass(LintPass):
    """L004 — a lambda flows into a primitive/external sink, escaping
    the analysed call structure (so e.g. the L001/L003 caller counts
    cannot be trusted for specialisation past this point).

    ``lint-l004``: ``escaping_fun(N, L)`` joins the forward escape
    marks (one sweep from every primitive-argument node) with the
    lambda-bearing index. Not incremental: a new definition can make
    an *old* lambda escape, so sessions always run this pass over the
    whole program.
    """

    code = "L004"
    name = "escaping-function"
    severity = "warning"
    incremental = False

    def run(self, ctx, scope=None):
        escaping = {
            label: node for node, label in ctx.extent("escaping_fun")
        }
        findings = []
        for label in sorted(escaping):
            lam = ctx.program.abstraction(label)
            if not self._in_scope(lam, scope):
                continue
            finding = self.finding(
                lam,
                f"function '{label}' flows into a primitive sink "
                "and escapes the analysed call structure",
                label=label,
            )
            ctx.derivation(
                finding, "escaping_fun", (escaping[label], label)
            )
            findings.append(finding)
        return findings


class UnusedBindingPass(LintPass):
    """L005 — a let/letrec binding whose variable node is never
    demanded: LC' added no occurrence edge into it, so the bound value
    flows nowhere.

    ``lint-l005``: ``unused_bind(N, X)`` is the binder view joined
    with the complement of ``var_used``. In-edges to a variable node
    come only from use occurrences (build rules route binding edges
    *out of* the node and closure conclusions only target operator
    nodes), so positive in-degree is exactly "used"; a binder whose
    variable node was never built is trivially unused.
    Conventionally-ignored names (leading underscore) are skipped; a
    letrec used only by its own recursive occurrence still counts as
    used (L001 flags the enclosed lambda instead). Congruence class
    nodes may merge variables and suppress a finding — conservative,
    never a false positive.
    """

    code = "L005"
    name = "unused-binding"
    severity = "warning"

    def run(self, ctx, scope=None):
        unused = ctx.extent("unused_bind")
        peek_var = ctx.factory.peek_var
        findings = []
        for node in ctx.flow.binders:
            if not self._in_scope(node, scope):
                continue
            if node.name.startswith("_"):
                continue
            var_node = peek_var(node.name)
            if var_node is not None and (var_node, node.name) not in unused:
                continue
            finding = self.finding(
                node,
                f"binding '{node.name}' is never used: its "
                "variable node is never demanded by LC'",
            )
            if var_node is not None:
                ctx.derivation(finding, "unused_bind", (var_node, node.name))
            findings.append(finding)
        return findings


#: The L-series passes defined in this module, in rule-code order. The full registry (:data:`ALL_PASSES`) also includes the
#: F/T-series passes from :mod:`repro.lint.flowrules`.
CORE_PASSES = (
    DeadLambdaPass,
    StuckApplicationPass,
    CalledOncePass,
    EscapingFunctionPass,
    UnusedBindingPass,
)


def __getattr__(name):
    # ALL_PASSES is assembled lazily: flowrules subclasses LintPass
    # from this module, so a module-level import either way would be
    # circular. First access resolves and caches the full tuple.
    if name == "ALL_PASSES":
        from repro.lint.flowrules import AUDIT_PASSES, FLOW_PASSES

        value = CORE_PASSES + FLOW_PASSES + AUDIT_PASSES
        globals()["ALL_PASSES"] = value
        return value
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def default_passes() -> Sequence[LintPass]:
    """Fresh instances of every shipped pass."""
    from repro.lint.flowrules import AUDIT_PASSES, FLOW_PASSES

    return tuple(
        cls() for cls in CORE_PASSES + FLOW_PASSES + AUDIT_PASSES
    )
