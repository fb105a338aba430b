"""The lint driver: resolve a graph, run the passes, time them.

:func:`run_lints` accepts whatever the caller already has — a
:class:`~repro.core.lc.SubtransitiveGraph`, a
:class:`~repro.core.queries.SubtransitiveCFA`, a
:class:`~repro.core.hybrid.HybridResult`, or nothing (it then builds
the graph itself). When the hybrid driver abandoned LC' there is no
subtransitive graph to traverse; the rules are then recomputed from
the standard cubic CFA's label sets — quadratic, but only ever paid on
programs LC' could not handle — and every finding is tagged
``via="standard"`` so consumers know the linear-time guarantee did not
apply.

Per-pass wall-clock and finding counts land on the metrics registry
(``lint.pass.<code>`` timers, ``lint.findings.<code>`` counters), so a
``--metrics`` document shows lint cost next to build/close cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.core.hybrid import HybridResult, subtransitive_graph_of
from repro.lint.findings import Finding, LintResult
from repro.lint.passes import (
    ALL_PASSES,
    LintContext,
    LintPass,
    primitive_sink_args,
)
from repro.obs.events import span


def _normalise_passes(passes) -> List[LintPass]:
    if passes is None:
        return [cls() for cls in ALL_PASSES]
    resolved = []
    for item in passes:
        resolved.append(item() if isinstance(item, type) else item)
    return resolved


def run_lints(
    program,
    result=None,
    passes: Optional[Iterable] = None,
    registry=None,
    scope: Optional[Set[int]] = None,
    events=None,
    explain: bool = False,
    audit=None,
) -> LintResult:
    """Run lint passes over ``program``.

    ``result`` is an existing analysis to reuse (see module docstring);
    the T-series reads ``audit`` (a :class:`~repro.flow.audit.
    LinearityAudit`) if given, else one made from the type inference
    the analysis already ran; ``scope`` restricts incremental passes
    to a set of nids;
    ``registry``/``events`` instrument the run (defaulting to the
    graph's own registry so one metrics document covers everything).
    A bound profiler records the run as the ``lint`` span with one
    child per pass code; the shared rule evaluation's ``rules.eval``
    span nests under whichever pass demanded it first.

    ``explain=True`` runs the rule programs with provenance and
    attaches each L/F finding's derivation chain. It only applies on
    the subtransitive engine — the standard-CFA fallback has no graph
    for a rule program to run on.
    """
    with span("lint"):
        return _run_lints(
            program, result, _normalise_passes(passes), registry,
            scope, events, explain, audit,
        )


def _run_lints(
    program, result, lint_passes, registry, scope, events, explain, audit
) -> LintResult:
    if isinstance(result, HybridResult) and result.engine == "standard":
        return _fallback_lints(
            program,
            result,
            lint_passes,
            registry=registry,
            scope=scope,
            audit=audit,
        )
    sub = subtransitive_graph_of(result)
    if sub is None:
        if result is not None:
            raise TypeError(
                "run_lints expects a SubtransitiveGraph, "
                "SubtransitiveCFA, HybridResult or None, got "
                f"{type(result).__name__}"
            )
        from repro.core.lc import build_subtransitive_graph

        sub = build_subtransitive_graph(
            program, registry=registry, events=events
        )
    if registry is None:
        registry = sub.stats.registry
    ctx = LintContext(
        program, sub, registry=registry, explain=explain, audit=audit
    )
    findings: List[Finding] = []
    pass_seconds: Dict[str, float] = {}
    for lint_pass in lint_passes:
        pass_scope = scope if lint_pass.incremental else None
        timer = registry.timer(f"lint.pass.{lint_pass.code}")
        with span(lint_pass.code), timer:
            found = lint_pass.run(ctx, pass_scope)
        pass_seconds[lint_pass.code] = timer.last_seconds
        registry.counter(f"lint.findings.{lint_pass.code}").inc(
            len(found)
        )
        if events is not None:
            events.emit(
                "lint",
                rule=lint_pass.code,
                findings=len(found),
                seconds=timer.last_seconds,
            )
        findings.extend(found)
    return LintResult(
        program,
        findings,
        engine="subtransitive",
        pass_seconds=pass_seconds,
    )


# -- standard-CFA fallback ----------------------------------------------------
#
# Quadratic (it materialises label sets), used only when LC' was
# abandoned by the hybrid driver — exactly the situation in which the
# subtransitive graph does not exist. Each function mirrors one pass.


def _fb_dead_and_once(program, cfa):
    sites_of = {}
    for site in program.applications:
        for label in cfa.may_call(site):
            sites_of.setdefault(label, []).append(site)
    return sites_of


def _fallback_lints(
    program, hybrid, lint_passes, registry=None, scope=None, audit=None
) -> LintResult:
    from repro.obs.metrics import MetricsRegistry

    cfa = hybrid.result
    if registry is None:
        registry = MetricsRegistry()
    wanted = {p.code: p for p in lint_passes}
    findings: List[Finding] = []
    pass_seconds: Dict[str, float] = {}
    sites_of = None
    if "L001" in wanted or "L003" in wanted:
        sites_of = _fb_dead_and_once(program, cfa)
    # T verdicts need only the program's types, so the fallback runs
    # them with the exact graph-path logic, on the inference the LC'
    # attempt already ran; F rules need the subtransitive graph and
    # are skipped here (their no-op timers still record).
    audit_pairs = ()
    if any(code.startswith("T") for code in wanted) and getattr(
        program, "root", None
    ) is not None:
        from repro.flow.audit import audit_linearity
        from repro.lint.flowrules import audit_verdicts

        if audit is None:
            audit = audit_linearity(program, hybrid.inference)
        audit_pairs = audit_verdicts(audit)

    def emit(code, expr, message, label=None):
        template = wanted[code]
        findings.append(
            Finding(
                code,
                template.severity,
                expr.nid,
                message,
                label=label,
                line=expr.line,
                column=expr.column,
                via="standard",
            )
        )

    for code, lint_pass in wanted.items():
        timer = registry.timer(f"lint.pass.{code}")
        with timer:
            if code == "L001":
                for lam in program.abstractions:
                    if not sites_of.get(lam.label):
                        emit(
                            code,
                            lam,
                            f"function '{lam.label}' is never called: "
                            "no call site can invoke it",
                            label=lam.label,
                        )
            elif code == "L002":
                for site in program.applications:
                    if not cfa.may_call(site):
                        emit(
                            code,
                            site,
                            "this application can never fire: the "
                            "operator's label set is provably empty",
                        )
            elif code == "L003":
                for lam in program.abstractions:
                    sites = sites_of.get(lam.label, ())
                    if len(sites) == 1:
                        emit(
                            code,
                            lam,
                            f"function '{lam.label}' is called from "
                            f"exactly one site (nid {sites[0].nid}): "
                            "inlining it cannot grow code",
                            label=lam.label,
                        )
            elif code == "L004":
                escaped = {}
                for arg in primitive_sink_args(program):
                    for token in cfa.tokens_at(arg.nid):
                        from repro.lang.ast import Lam

                        if isinstance(token, Lam):
                            escaped[token.label] = token
                for label in sorted(escaped):
                    emit(
                        code,
                        escaped[label],
                        f"function '{label}' flows into a primitive "
                        "sink and escapes the analysed call structure",
                        label=label,
                    )
            elif code == "L005":
                from repro.lang.ast import Let, Letrec, Var

                used = {
                    node.name
                    for node in program.nodes
                    if isinstance(node, Var)
                }
                for node in program.nodes:
                    if not isinstance(node, (Let, Letrec)):
                        continue
                    if node.name.startswith("_"):
                        continue
                    if node.name not in used:
                        emit(
                            code,
                            node,
                            f"binding '{node.name}' is never used: "
                            "its variable node is never demanded "
                            "by LC'",
                        )
            elif code.startswith("T"):
                for vcode, message in audit_pairs:
                    if vcode == code:
                        emit(code, program.root, message)
        pass_seconds[code] = timer.last_seconds
        registry.counter(f"lint.findings.{code}").inc(
            sum(1 for f in findings if f.rule == code)
        )
    return LintResult(
        program,
        findings,
        engine="standard",
        fallback_reason=hybrid.fallback_reason,
        pass_seconds=pass_seconds,
    )
