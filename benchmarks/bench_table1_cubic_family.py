"""E1 — Paper Table 1: the cubic-behaviour benchmark family.

Regenerates the paper's first results table: for each size of the
Section 10 parameterised benchmark, the standard algorithm's time and
work units versus the subtransitive algorithm's build time/nodes,
close time/nodes, and the quadratic cost of querying all non-trivial
applications.

Expected shape (the paper's claim, machine-independent):

* standard time grows super-quadratically (cubic trend; the work
  counter makes the trend visible even when wall-clock is noisy);
* LC' build+close node counts and time grow linearly;
* query-all grows quadratically (there are O(n) sites with O(n)-sized
  answers).

Run ``python benchmarks/bench_table1_cubic_family.py`` for the full
table, or ``pytest benchmarks/bench_table1_cubic_family.py
--benchmark-only`` for the timed variants.
"""

import pytest

from repro.bench import Table, fit_exponent, time_call
from repro.cfa.standard import analyze_standard
from repro.core.lc import build_subtransitive_graph
from repro.core.queries import SubtransitiveCFA
from repro.workloads.cubic import make_cubic_program

#: Sizes for the printed table (geometric, as in the paper).
REPORT_SIZES = [10, 20, 40, 80, 160]
#: Sizes for the pytest-benchmark timings (kept modest).
BENCH_SIZES = [20, 40, 80]


def run_report(sizes=REPORT_SIZES):
    """Compute all Table 1 rows; returns (table, measurements)."""
    table = Table(
        [
            "n",
            "nodes",
            "SBA time",
            "SBA work",
            "build t",
            "build n",
            "close t",
            "close n",
            "query t",
        ],
        title="Table 1 — cubic family: standard (SBA stand-in) vs LC'",
    )
    measurements = []
    for n in sizes:
        program = make_cubic_program(n)
        box = {}

        def run_std():
            box["std"] = analyze_standard(program)

        std_time = time_call(run_std, repeat=1)

        sub = build_subtransitive_graph(program)
        cfa = SubtransitiveCFA(sub)
        sites = program.nontrivial_applications()

        def run_queries():
            for site in sites:
                cfa.may_call(site)

        query_time = time_call(run_queries, repeat=1)
        stats = sub.stats
        table.add_row(
            n,
            program.size,
            std_time,
            box["std"].work,
            stats.build_seconds,
            stats.build_nodes,
            stats.close_seconds,
            stats.close_nodes,
            query_time,
        )
        measurements.append(
            {
                "n": n,
                "size": program.size,
                "std_time": std_time,
                "std_work": box["std"].work,
                "lc_time": stats.total_seconds,
                "lc_nodes": stats.total_nodes,
                "query_time": query_time,
            }
        )
    return table, measurements


# -- pytest-benchmark timings --------------------------------------------------


@pytest.mark.parametrize("n", BENCH_SIZES)
def test_standard_cfa_time(benchmark, n):
    program = make_cubic_program(n)
    benchmark(lambda: analyze_standard(program))


@pytest.mark.parametrize("n", BENCH_SIZES)
def test_subtransitive_build_close_time(benchmark, n):
    program = make_cubic_program(n)
    benchmark(lambda: build_subtransitive_graph(program))


@pytest.mark.parametrize("n", BENCH_SIZES)
def test_query_all_nontrivial_sites(benchmark, n):
    program = make_cubic_program(n)
    cfa = SubtransitiveCFA(build_subtransitive_graph(program))
    sites = program.nontrivial_applications()

    def run():
        total = 0
        for site in sites:
            total += len(cfa.may_call(site))
        return total

    benchmark(run)


# -- shape assertions ----------------------------------------------------------


def test_table1_shape():
    """The who-wins / what-trend content of Table 1."""
    _, rows = run_report(sizes=[10, 20, 40, 80])
    sizes = [r["size"] for r in rows]
    std_work = fit_exponent(sizes, [r["std_work"] for r in rows])
    lc_nodes = fit_exponent(sizes, [r["lc_nodes"] for r in rows])
    # The standard algorithm's work units grow super-quadratically...
    assert std_work > 2.3, std_work
    # ...while the subtransitive graph grows linearly.
    assert 0.85 < lc_nodes < 1.15, lc_nodes
    # At the largest size the standard algorithm is already slower.
    assert rows[-1]["std_time"] > rows[-1]["lc_time"]


if __name__ == "__main__":
    table, rows = run_report()
    print(table.render())
    sizes = [r["size"] for r in rows]
    print(
        "\nexponents: std-time "
        f"{fit_exponent(sizes, [r['std_time'] for r in rows]):.2f}, "
        f"std-work {fit_exponent(sizes, [r['std_work'] for r in rows]):.2f}, "
        f"LC-time {fit_exponent(sizes, [r['lc_time'] for r in rows]):.2f}, "
        f"LC-nodes {fit_exponent(sizes, [r['lc_nodes'] for r in rows]):.2f}, "
        f"query {fit_exponent(sizes, [r['query_time'] for r in rows]):.2f}"
    )
