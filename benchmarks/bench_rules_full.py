"""E20 — every shipped rule sweep: exact steps, linear in the graph.

E18 pins the L002/L004 pair; this experiment pins **everything the
rule layer serves** (docs/RULES.md): the merged lint set (every L/F
program plus called-once — five recursive relations fused into one
stratum), the k-limited CFA program, and the effects program (whose
propagation follows ``eff_edge``, not ``edge``).

Workload: the Table 1 cubic family with a side-effecting primitive
injected into one identity function (the E4 workload), so redness
genuinely propagates through the join structure. For each size the
report runs ``lint_rule_set(constructor_k(p)).run``,
``klimited_rule_set(2).run`` and ``effects_rule_set().run`` over the
same graph — the invocations ``repro lint``, ``repro klimited`` and
``repro effects`` make — and sums every ``flow.steps.*`` counter on a
private registry. The counts equal the pinned :data:`PINNED_STEPS`
exactly (the hand-written lint sweep, called-once, k-limited and
effects traversals these programs replaced performed the same
dequeues), and fit a straight line in ``nodes + edges`` with
R² >= 0.99.
"""

import pytest

from repro.bench import Table, linear_fit, time_call
from repro.core.lc import build_subtransitive_graph
from repro.flow import FlowContext
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

#: The k the CLI's `repro klimited` defaults to.
KLIMITED_K = 2

#: Total ``flow.steps.*`` per run, by cubic size n.
PINNED_STEPS = {8: 824, 16: 1592, 32: 3128}


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


def _rule_sweeps(program, sub, registry):
    """The three rule sets the CLI runs."""
    # k_limited_cfa seeds every abstraction, building a node for one
    # the depth cap left out; do the same so lam_at sees them all.
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
        ["n", "n+e", "steps", "pinned", "steps/(n+e)", "sweeps t"],
        title="E20 — every shipped rule sweep over the subtransitive graph",
    )
    rows = []
    for n in sizes:
        program = make_workload(n)
        sub = build_subtransitive_graph(program)
        registry = MetricsRegistry()
        seconds = time_call(
            lambda: _rule_sweeps(program, sub, registry), repeat=3
        )
        steps = _total_steps(registry) // 3
        work = sub.graph.node_count + sub.graph.edge_count
        pinned = PINNED_STEPS.get(n)
        table.add_row(
            n, work, steps, "-" if pinned is None else pinned,
            steps / work, seconds,
        )
        rows.append(
            {
                "n": n,
                "size": program.size,
                "work": work,
                "steps": steps,
                "seconds": seconds,
            }
        )
    slope, intercept, r2 = linear_fit(
        [r["work"] for r in rows], [r["steps"] for r in rows]
    )
    summary = {"slope": slope, "intercept": intercept, "r2": r2}
    return table, {"rows": rows, "fit": summary}


@pytest.mark.parametrize("n", [16, 32])
def test_full_rule_sweeps(benchmark, n):
    program = make_workload(n)
    sub = build_subtransitive_graph(program)
    registry = MetricsRegistry()
    benchmark(lambda: _rule_sweeps(program, sub, registry))


def test_full_surface_pinned_and_linear():
    _, report = run_report(sizes=[8, 16, 32, 64])
    for row in report["rows"]:
        if row["n"] in PINNED_STEPS:
            assert row["steps"] == PINNED_STEPS[row["n"]], row
    fit = report["fit"]
    assert fit["r2"] >= 0.99, fit


if __name__ == "__main__":
    table, report = run_report()
    print(table.render())
    fit = report["fit"]
    print(
        f"steps ~= {fit['slope']:.3f}*(n+e) + "
        f"{fit['intercept']:.1f} (R^2 = {fit['r2']:.5f})"
    )
