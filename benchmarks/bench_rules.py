"""E18 — the compiled lint sweep: exact steps, linear in the graph.

The declarative layer's claim (docs/RULES.md) is that compiling the
shipped lint programs onto :func:`~repro.flow.framework.run_fused`
keeps the paper's linear bound, constant factor included: the checker
only admits programs whose recursive rules are fused propagation
analyses, so the compiled plan dequeues each (relation, item) pair at
most a bounded number of times.

Workload: the Table 1 cubic family. For each size the report runs the
``lint-l002``/``lint-l004`` programs compiled together (their single
level-0 stratum fuses the backward lambda-reachability and forward
escape propagations) and counts ``flow.steps.fused`` dequeues on a
private registry. The full merged lint set is E20's subject
(:mod:`benchmarks.bench_rules_full`). E16, which timed the retired
hand-written five-analysis lint sweep, is folded in here: on this
family taint, neededness and constructor sets do no propagation, so
its step counts were these.

The acceptance bar is twofold: the step counts equal the pinned
:data:`PINNED_STEPS` exactly (they are deterministic), and they fit a
straight line in ``nodes + edges`` with R² >= 0.99.
"""

import pytest

from repro.bench import Table, linear_fit, time_call
from repro.core.lc import build_subtransitive_graph
from repro.flow import FlowContext
from repro.obs import MetricsRegistry
from repro.rules.engine import CompiledRuleSet
from repro.rules.programs import L002_PROGRAM, L004_PROGRAM
from repro.workloads.cubic import make_cubic_program

SIZES = [8, 16, 32, 64, 128]

#: ``flow.steps.fused`` per run, by cubic size n.
PINNED_STEPS = {8: 334, 16: 646, 32: 1270}


def _rule_sweep(program, sub, registry, rule_set):
    """One CompiledRuleSet.run over the graph."""
    flow = FlowContext(program, sub, registry=registry)
    return rule_set.run(ctx=flow, registry=registry)


def run_report(sizes=SIZES):
    table = Table(
        ["n", "n+e", "steps", "pinned", "steps/(n+e)", "sweep t"],
        title="E18 — compiled lint sweep over the subtransitive graph",
    )
    rule_set = CompiledRuleSet((L002_PROGRAM, L004_PROGRAM))
    rows = []
    for n in sizes:
        program = make_cubic_program(n)
        sub = build_subtransitive_graph(program)
        registry = MetricsRegistry()
        seconds = time_call(
            lambda: _rule_sweep(program, sub, registry, rule_set),
            repeat=3,
        )
        # time_call ran the sweep 3 times into one registry; the
        # deterministic per-run step count is the total divided back.
        steps = registry.counter("flow.steps.fused").value // 3
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
def test_rule_sweep(benchmark, n):
    program = make_cubic_program(n)
    sub = build_subtransitive_graph(program)
    registry = MetricsRegistry()
    rule_set = CompiledRuleSet((L002_PROGRAM, L004_PROGRAM))
    benchmark(
        lambda: _rule_sweep(program, sub, registry, rule_set)
    )


def test_rule_sweep_pinned_and_linear():
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
