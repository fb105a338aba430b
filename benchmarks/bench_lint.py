"""E14 — lint: per-pass diagnostics timings on the subtransitive graph.

Every L/F pass reads the one evaluation of the compiled lint rule
programs over the subtransitive graph, so a full run (the T-series
audits included) should scale like the graph itself (near-linear in
the program size) and must never materialise a label set: the
``queries.labels_of`` counter is asserted to stay at zero for every
measured run.

Workload: the Table 1 cubic family — the adversarial join structure
where any per-site label-set consumer goes quadratic.
"""

import pytest

from repro.bench import Table, fit_exponent, time_call
from repro.core.lc import build_subtransitive_graph
from repro.lint import ALL_PASSES, run_lints
from repro.obs import MetricsRegistry
from repro.workloads.cubic import make_cubic_program

SIZES = [8, 16, 32, 64]

#: Rule codes in report-column order.
CODES = tuple(cls.code for cls in ALL_PASSES)


def run_report(sizes=SIZES):
    table = Table(
        ["n", "nodes", "edges", "lint t"]
        + [f"{code} t" for code in CODES]
        + ["findings", "labels_of"],
        title="E14 — lint passes over the subtransitive graph",
    )
    rows = []
    for n in sizes:
        program = make_cubic_program(n)
        registry = MetricsRegistry()
        sub = build_subtransitive_graph(program, registry=registry)

        box = {}

        def run():
            box["r"] = run_lints(program, sub, registry=registry)

        total_time = time_call(run, repeat=3)
        result = box["r"]
        labels_of = registry.counter("queries.labels_of").value
        assert labels_of == 0, "a lint pass materialised a label set"

        table.add_row(
            n,
            sub.graph.node_count,
            sub.graph.edge_count,
            total_time,
            *[result.pass_seconds.get(code, 0.0) for code in CODES],
            len(result.findings),
            labels_of,
        )
        rows.append(
            {
                "size": program.size,
                "nodes": sub.graph.node_count,
                "edges": sub.graph.edge_count,
                "lint_time": total_time,
                "findings": len(result.findings),
                "labels_of": labels_of,
                "pass_seconds": dict(result.pass_seconds),
            }
        )
    return table, rows


@pytest.mark.parametrize("n", [16, 32])
def test_lint_cubic(benchmark, n):
    program = make_cubic_program(n)
    sub = build_subtransitive_graph(program)
    benchmark(lambda: run_lints(program, sub))


def test_lint_shape():
    _, rows = run_report(sizes=[8, 16, 32])
    assert all(r["labels_of"] == 0 for r in rows)
    sizes = [r["size"] for r in rows]
    # The full lint run stays ~linear in the program size.
    assert fit_exponent(sizes, [r["lint_time"] for r in rows]) < 1.7


if __name__ == "__main__":
    table, _ = run_report()
    print(table.render())
