"""E20 — the full ported surface: rule sweeps vs hand-written sweeps.

E18 pins sweep parity for the original L002/L004 pair; this experiment
pins it for **everything the rule layer now serves** (docs/RULES.md):
the merged lint set (all L/F twins plus called-once — five recursive
relations fused into one stratum), the k-limited CFA program, and the
effects program (whose propagation follows ``eff_edge``, not ``edge``
— the via-generalisation path).

Workload: the Table 1 cubic family with a side-effecting primitive
injected into one identity function (the E4 workload), so redness
genuinely propagates through the join structure. For each size the
report runs

* the **hand** side — one ``run_fused`` of the five propagations the
  lint passes demand (reach-lambda, escape, taint, called-once,
  constructors), plus ``run_flow`` of the k-limited bounded-set
  analysis and of :class:`~repro.flow.analyses.EffectsAnalysis`,
  exactly as ``repro.lint`` / ``repro.apps`` invoke them; and
* the **rule** side — ``lint_rule_set(constructor_k(p)).run``,
  ``klimited_rule_set(2).run`` and ``effects_rule_set().run`` over
  the same graph.

Both sides sum every ``flow.steps.*`` counter on private registries
(the hand side splits across ``fused``/``klimited``/``effects``, the
rule side lands everything in ``fused``). The acceptance bar mirrors
E18, now for the whole surface: the total step ratio (rules / hand)
stays within 1.1x at every size, and the rule side's steps fit a
straight line in ``nodes + edges`` with R² >= 0.99.
"""

import pytest

from repro.bench import Table, linear_fit, time_call
from repro.core.lc import build_subtransitive_graph
from repro.flow import (
    EscapeAnalysis,
    FlowContext,
    ReachabilityAnalysis,
    run_flow,
    run_fused,
)
from repro.flow.analyses import (
    BoundedSetAnalysis,
    ConstructorAnalysis,
    EffectsAnalysis,
    TaintAnalysis,
)
from repro.lang.parser import parse
from repro.obs import MetricsRegistry
from repro.rules.programs import (
    constructor_k,
    effects_rule_set,
    klimited_rule_set,
    lint_rule_set,
)
from repro.workloads.cubic import make_cubic_source

SIZES = [8, 16, 32, 64, 128]

#: The k the CLI's `repro klimited` defaults to; both sides use it.
KLIMITED_K = 2

#: Step-ratio ceiling. E18's 1.5x bound guards one pair of analyses;
#: over the full surface the slack per analysis averages out, so the
#: whole-port claim is tighter.
RATIO_BOUND = 1.1


def make_workload(n):
    """The cubic family with an effectful ``fs`` (the E4 workload), so
    the effects sweep has real propagation to do."""
    source = make_cubic_source(n).replace(
        "let fs = fn[fs] x => x in",
        "let fs = fn[fs] x => let u = print 0 in x in",
        1,
    )
    return parse(source)


def _total_steps(registry):
    """Sum of every ``flow.steps.*`` counter — sweep dequeues, however
    the runs were scheduled."""
    return sum(
        value
        for name, value in registry.counters()
        if name.startswith("flow.steps.")
    )


def _hand_sweeps(program, sub, registry):
    """The hand-written side: the exact engine invocations the lint
    driver and the two app entry points make today."""
    flow = FlowContext(program, sub, registry=registry)
    called_once_seeds = {}
    for site in program.applications:
        node = sub.factory.expr_node(site.fn)
        called_once_seeds[node] = (
            called_once_seeds.get(node, frozenset()) | {site.nid}
        )
    analyses = [
        ReachabilityAnalysis(
            flow.lambda_value_nodes,
            sub.graph.predecessors,
            name="reach-lambda",
        ),
        EscapeAnalysis(),
        TaintAnalysis(),
        BoundedSetAnalysis(
            called_once_seeds, 1, sub.graph.successors,
            name="called-once",
        ),
        ConstructorAnalysis(flow),
    ]
    run_fused(analyses, flow, fuel=flow.default_fuel())

    klimited_seeds = {}
    for lam in program.abstractions:
        node = sub.factory.expr_node(lam)
        klimited_seeds[node] = (
            klimited_seeds.get(node, frozenset()) | {lam.label}
        )
    run_flow(
        BoundedSetAnalysis(
            klimited_seeds, KLIMITED_K, sub.graph.predecessors,
            name="klimited",
        ),
        flow,
        fuel=flow.default_fuel(),
    )
    run_flow(EffectsAnalysis(), flow, fuel=flow.default_fuel())


def _rule_sweeps(program, sub, registry):
    """The compiled side: the three rule sets the CLI's --impl rules
    paths run."""
    # The hand k-limited analysis seeds through expr_node, which
    # *builds* nodes for depth-capped abstractions; touch them first
    # so the lam_at view enumerates the same seed set.
    for lam in program.abstractions:
        sub.factory.expr_node(lam)
    flow = FlowContext(program, sub, registry=registry)
    lint_rule_set(constructor_k(program)).run(
        ctx=flow, registry=registry
    )
    klimited_rule_set(KLIMITED_K).run(ctx=flow, registry=registry)
    effects_rule_set().run(ctx=flow, registry=registry)


def run_report(sizes=SIZES):
    table = Table(
        [
            "n", "n+e", "hand steps", "rule steps", "ratio",
            "hand t", "rule t",
        ],
        title="E20 — full ported surface: rule sweeps vs hand sweeps",
    )
    rows = []
    for n in sizes:
        program = make_workload(n)
        sub = build_subtransitive_graph(program)

        hand_registry = MetricsRegistry()
        hand_seconds = time_call(
            lambda: _hand_sweeps(program, sub, hand_registry), repeat=3
        )
        hand_steps = _total_steps(hand_registry) // 3

        rule_registry = MetricsRegistry()
        rule_seconds = time_call(
            lambda: _rule_sweeps(program, sub, rule_registry), repeat=3
        )
        rule_steps = _total_steps(rule_registry) // 3

        work = sub.graph.node_count + sub.graph.edge_count
        ratio = rule_steps / hand_steps if hand_steps else 0.0
        table.add_row(
            n, work, hand_steps, rule_steps, ratio,
            hand_seconds, rule_seconds,
        )
        rows.append(
            {
                "size": program.size,
                "work": work,
                "hand_steps": hand_steps,
                "rule_steps": rule_steps,
                "ratio": ratio,
                "hand_seconds": hand_seconds,
                "rule_seconds": rule_seconds,
            }
        )
    slope, intercept, r2 = linear_fit(
        [r["work"] for r in rows], [r["rule_steps"] for r in rows]
    )
    summary = {"slope": slope, "intercept": intercept, "r2": r2}
    return table, {"rows": rows, "fit": summary}


@pytest.mark.parametrize("n", [16, 32])
def test_full_rule_sweeps(benchmark, n):
    program = make_workload(n)
    sub = build_subtransitive_graph(program)
    registry = MetricsRegistry()
    benchmark(lambda: _rule_sweeps(program, sub, registry))


def test_full_surface_parity_and_linear():
    _, report = run_report(sizes=[8, 16, 32, 64])
    for row in report["rows"]:
        assert row["ratio"] <= RATIO_BOUND, row
    fit = report["fit"]
    assert fit["r2"] >= 0.99, fit


if __name__ == "__main__":
    table, report = run_report()
    print(table.render())
    fit = report["fit"]
    worst = max(r["ratio"] for r in report["rows"])
    print(
        f"rule steps ~= {fit['slope']:.3f}*(n+e) + "
        f"{fit['intercept']:.1f} (R^2 = {fit['r2']:.5f}); "
        f"worst step ratio {worst:.3f}x (bound {RATIO_BOUND}x)"
    )
