"""Regenerate every paper table/figure reproduction in one run.

Usage::

    python benchmarks/run_all.py [--quick] [--metrics PATH | --no-metrics]

Prints the reproduction of each experiment indexed in DESIGN.md (E1 -
E21; E16, the retired hand-written lint sweep, is folded into E18,
and E17, the retired object-vs-CSR comparison, is history in
EXPERIMENTS.md), in order. ``--quick`` shrinks the sweeps for a fast
smoke run.
EXPERIMENTS.md records a reference run of this script.

Every run also writes a machine-readable metrics document (default
``BENCH_metrics.json``; see docs/OBSERVABILITY.md): all experiment
rows plus an instrumented LC' engine run over the cubic family, in
the ``repro.metrics/1`` schema. This is the perf-regression baseline
future optimisation PRs diff against.
"""

import argparse
import gc
import json

from repro._util import ensure_recursion_limit

import bench_ablation_congruence
import bench_ablation_demand
import bench_apps_effects
import bench_apps_klimited
import bench_complexity_table
import bench_constant_factor
import bench_daemon
import bench_equality_cfa
import bench_frontend
import bench_hybrid
import bench_joinpoint
import bench_lint
import bench_obs_events
import bench_polyvariant
import bench_rules
import bench_rules_full
import bench_serve
import bench_table1_cubic_family
import bench_table2_ml_programs

from repro.bench import fit_exponent

#: Schema tag of the benchmark metrics document.
BENCH_SCHEMA = "repro.bench-metrics/1"


def _jsonable(value):
    """Recursively coerce a measurement payload to JSON-safe values.

    Bench modules return rows in slightly different shapes (lists of
    dicts, summary dicts keyed by name, tuples of exponents); anything
    that is not a container or scalar is stringified.
    """
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)


def engine_metrics_document(quick: bool = False):
    """An instrumented LC' run over the cubic family, including the
    Table 1 query sweep and a full lint pass (so ``lint.pass.*``
    timers land next to build/close cost), as a validated
    ``repro.metrics/1`` document."""
    from repro.core.queries import analyze_subtransitive
    from repro.lint import run_lints
    from repro.obs import collect_metrics, validate_metrics
    from repro.workloads.cubic import make_cubic_program

    program = make_cubic_program(40 if quick else 80)
    # Settle the experiments' garbage first: a full collection they
    # left due would otherwise land in (and dominate) the build timer.
    gc.collect()
    cfa = analyze_subtransitive(program)
    for site in program.nontrivial_applications():
        cfa.may_call(site)
    run_lints(program, cfa)
    return validate_metrics(collect_metrics(cfa))


def write_metrics(path, experiments, quick: bool) -> None:
    from repro.obs import environment_provenance

    # Environment provenance lets `repro obs diff` tell "the code got
    # slower" apart from "this baseline came from another machine"
    # (cross-machine wall-clock regressions demote to warnings).
    document = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "experiments": experiments,
        "environment": environment_provenance(),
        "engine_metrics": engine_metrics_document(quick),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote metrics document to {path}")


def _print_pinned_fit(report, pinned) -> None:
    fit = report["fit"]
    drift = [
        row["n"]
        for row in report["rows"]
        if row["n"] in pinned and row["steps"] != pinned[row["n"]]
    ]
    verdict = f"DRIFT at n={drift}" if drift else "pinned counts match"
    print(
        f"steps ~= {fit['slope']:.3f}*(n+e) + {fit['intercept']:.1f} "
        f"(R^2 = {fit['r2']:.5f}); {verdict}"
    )


def main(quick: bool = False, metrics_path=None) -> None:
    ensure_recursion_limit()
    experiments = {}

    def record(key, title, rows):
        experiments[key] = {
            "title": title,
            "rows": _jsonable(rows),
        }

    print("=" * 72)
    print("E1 — Table 1: cubic family")
    print("=" * 72)
    sizes = [10, 20, 40, 80] if quick else [10, 20, 40, 80, 160]
    table, rows = bench_table1_cubic_family.run_report(sizes=sizes)
    record("E1", "Table 1: cubic family", rows)
    print(table.render())
    ns = [r["size"] for r in rows]
    print(
        "exponents: "
        f"std-time {fit_exponent(ns, [r['std_time'] for r in rows]):.2f} "
        f"std-work {fit_exponent(ns, [r['std_work'] for r in rows]):.2f} "
        f"LC-time {fit_exponent(ns, [r['lc_time'] for r in rows]):.2f} "
        f"LC-nodes {fit_exponent(ns, [r['lc_nodes'] for r in rows]):.2f} "
        f"query {fit_exponent(ns, [r['query_time'] for r in rows]):.2f}"
    )

    print("\n" + "=" * 72)
    print("E2 — Table 2: ML-like programs")
    print("=" * 72)
    table, rows = bench_table2_ml_programs.run_report()
    record("E2", "Table 2: ML-like programs", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E3 — Section 2 complexity table")
    print("=" * 72)
    table, rows = bench_complexity_table.run_report(
        sizes=[8, 16, 32] if quick else [8, 16, 32, 64]
    )
    record("E3", "Section 2 complexity table", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E4 — Section 8: effects analysis")
    print("=" * 72)
    table, rows = bench_apps_effects.run_report(
        sizes=[8, 16, 32] if quick else [8, 16, 32, 64]
    )
    record("E4", "Section 8: effects analysis", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E5 — Section 9: k-limited CFA + called-once")
    print("=" * 72)
    table, rows = bench_apps_klimited.run_report(
        sizes=[8, 16, 32] if quick else [8, 16, 32, 64]
    )
    record("E5", "Section 9: k-limited CFA + called-once", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E6 — constant factors")
    print("=" * 72)
    table, rows = bench_constant_factor.run_report()
    record("E6", "constant factors", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E7 — intro join-point example")
    print("=" * 72)
    table, rows = bench_joinpoint.run_report(
        sizes=[8, 16, 32] if quick else [8, 16, 32, 64]
    )
    record("E7", "intro join-point example", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E8 — ablation: demand-driven vs eager")
    print("=" * 72)
    table, rows = bench_ablation_demand.run_report()
    record("E8", "ablation: demand-driven vs eager", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E9 — ablation: datatype congruences")
    print("=" * 72)
    table, rows = bench_ablation_congruence.run_report()
    record("E9", "ablation: datatype congruences", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E10 — Section 7: polyvariance")
    print("=" * 72)
    table, rows = bench_polyvariant.run_report()
    record("E10", "Section 7: polyvariance", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E11 — equality-based CFA comparison")
    print("=" * 72)
    table, rows = bench_equality_cfa.run_report()
    record("E11", "equality-based CFA comparison", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E12 — hybrid driver")
    print("=" * 72)
    table, rows = bench_hybrid.run_report()
    record("E12", "hybrid driver", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E13 (extra) — front-end decomposition (traversal cost)")
    print("=" * 72)
    table, rows = bench_frontend.run_report()
    scaling_table, scaling_rows = bench_frontend.scaling_report()
    record(
        "E13", "front-end decomposition (traversal cost)", rows + scaling_rows
    )
    print(table.render())
    print(scaling_table.render())

    print("\n" + "=" * 72)
    print("E14 (extra) — lint passes over the subtransitive graph")
    print("=" * 72)
    table, rows = bench_lint.run_report(
        sizes=[8, 16, 32] if quick else bench_lint.SIZES
    )
    record("E14", "lint passes over the subtransitive graph", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E15 (extra) — batch service throughput, cold vs warm cache")
    print("=" * 72)
    table, rows = bench_serve.run_report(
        workers=[1, 2] if quick else bench_serve.WORKERS,
        count=6 if quick else bench_serve.COUNT,
    )
    record("E15", "batch service throughput, cold vs warm cache", rows)
    print(table.render())

    print("\n" + "=" * 72)
    print("E18 (extra) — compiled lint sweep: exact steps, linear")
    print("=" * 72)
    table, report = bench_rules.run_report(
        sizes=[8, 16, 32] if quick else bench_rules.SIZES
    )
    record("E18", "compiled lint sweep: exact steps, linear", report)
    print(table.render())
    _print_pinned_fit(report, bench_rules.PINNED_STEPS)

    print("\n" + "=" * 72)
    print("E19 (extra) — incremental daemon: warm delta vs cold")
    print("=" * 72)
    table, rows = bench_daemon.run_report(
        sizes=[5, 10, 20] if quick else bench_daemon.SIZES
    )
    record("E19", "incremental daemon: warm delta vs cold", rows)
    print(table.render())
    last = rows[-1]
    print(
        f"n={last['n']}: warm redefine {last['speedup']:.1f}x faster "
        f"than cold re-analysis, {last['retracted_edges']} edges "
        f"retracted, {last['fallbacks']} fallbacks"
    )

    print("\n" + "=" * 72)
    print("E20 (extra) — every shipped rule sweep: exact steps, linear")
    print("=" * 72)
    table, report = bench_rules_full.run_report(
        sizes=[8, 16, 32] if quick else bench_rules_full.SIZES
    )
    record("E20", "every shipped rule sweep: exact steps, linear", report)
    print(table.render())
    _print_pinned_fit(report, bench_rules_full.PINNED_STEPS)

    print("\n" + "=" * 72)
    print("E21 (extra) — event-log overhead on warm redefines")
    print("=" * 72)
    table, rows = bench_obs_events.run_report(
        sizes=[5, 10] if quick else bench_obs_events.SIZES,
        repeat=5 if quick else 9,
    )
    record("E21", "event-log overhead on warm redefines", rows)
    print(table.render())
    print(bench_obs_events.render_verdict(rows))

    if metrics_path is not None:
        write_metrics(metrics_path, experiments, quick)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="regenerate every paper table/figure reproduction"
    )
    parser.add_argument(
        "--quick", action="store_true", help="shrink sweeps for a smoke run"
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default="BENCH_metrics.json",
        help="where to write the metrics document "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip writing the metrics document",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    _args = _parse_args()
    main(
        quick=_args.quick,
        metrics_path=None if _args.no_metrics else _args.metrics,
    )
