"""The LC' graph sanitizer: well-formedness checks on analysis output.

LC' is fast because it maintains strong invariants; this module makes
them *checkable* after the fact, so a bad engine change (or a corrupted
graph handed across an API boundary) is caught by construction rather
than by a wrong label set three consumers later. The checks:

``close-edge-justification``
    Every recorded closure edge connects two operator nodes, its
    source was demanded (rule premise 2: "can only be applied ... if
    it is needed"), both endpoints share the firing operator, and the
    edge is actually present in the graph.

``close-edge-accounting``
    The CLOSE-COV + CLOSE-CONTRA rule counters equal the number of
    distinct closure edges — each counted firing added exactly one
    edge (duplicates are tallied separately), in batch *and*
    incremental runs.

``demand-consistency``
    An operator node is demanded iff it has an incoming edge, and the
    engine's demanded-node count matches the graph.

``budget-accounting``
    ``dom``/``ran`` (and all other operator) node counts respect the
    hybrid budget: total nodes within the node budget, no operator
    tower deeper than the factory's depth cap.

``phase-accounting``
    (Batch runs only.) The build/close phase statistics sum to the
    factory's node count and the graph's edge count.

``proposition-1-dtc``
    (Small, congruence-free, monovariant, untruncated *batch* graphs;
    session graphs are skipped — their binding edges come from the
    session wiring, which the oracle cannot see.) The
    transitive closure of the subtransitive graph agrees with the
    Proposition 1 oracle: label sets computed by reachability equal
    those of the DTC transition system.

Run it standalone (``python -m repro.lint.sanitize prog.ml``), via
``SubtransitiveGraph.sanitize()``, or with ``--sanitize`` on the CLI
analysis entry points.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro._util import Stopwatch

#: Programs larger than this skip the DTC closure comparison (the
#: oracle is cubic; the spot-check is for paper-scale examples).
DEFAULT_DTC_LIMIT = 600


class SanitizeReport:
    """Outcome of one sanitizer run."""

    def __init__(self):
        #: Names of the checks that ran.
        self.checks: List[str] = []
        #: ``{"check": name, "message": detail}`` per violation.
        self.violations: List[Dict[str, str]] = []
        #: Whether the Proposition 1 DTC comparison ran.
        self.dtc_checked = False
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, message: str) -> None:
        self.violations.append({"check": check, "message": message})

    def section(self) -> Dict[str, object]:
        """The result envelope's ``sanitize`` section: :meth:`to_dict`
        without the wall-clock ``seconds``, so it is byte-stable."""
        return {
            "ok": self.ok,
            "checks": list(self.checks),
            "violations": [dict(v) for v in self.violations],
            "dtc_checked": self.dtc_checked,
        }

    def to_dict(self) -> Dict[str, object]:
        return {**self.section(), "seconds": self.seconds}

    def render(self) -> str:
        if self.ok:
            dtc = " (incl. DTC closure agreement)" if self.dtc_checked else ""
            return (
                f"sanitize: ok — {len(self.checks)} checks passed{dtc}"
            )
        lines = [
            f"sanitize: {len(self.violations)} violation(s) "
            f"across {len(self.checks)} checks"
        ]
        for violation in self.violations:
            lines.append(
                f"  [{violation['check']}] {violation['message']}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SanitizeReport ok={self.ok}>"


def _member_opkeys(node) -> set:
    keys = {opkey for opkey, _ in node.members}
    if node.opkey is not None:
        keys.add(node.opkey)
    return keys


def _check_close_edges(sub, report: SanitizeReport) -> None:
    report.checks.append("close-edge-justification")
    graph = sub.graph
    # A congruence may canonicalise operator terms into class nodes
    # (under ≈1 even into expression-kind ones), so the structural
    # endpoint checks only hold for the exact node grammar; edge
    # presence holds always.
    structural = sub.factory.congruence is None
    for src, dst in sub.close_edges:
        where = f"{src.describe()} -> {dst.describe()}"
        if not graph.has_edge(src, dst):
            report.add(
                "close-edge-justification",
                f"closure edge {where} is missing from the graph",
            )
        if not structural:
            continue
        if src.kind != "op" or dst.kind != "op":
            report.add(
                "close-edge-justification",
                f"closure edge {where} has a non-operator endpoint",
            )
            continue
        if not src.demanded:
            report.add(
                "close-edge-justification",
                f"closure edge {where} fired from an undemanded node",
            )
        if not (_member_opkeys(src) & _member_opkeys(dst)):
            report.add(
                "close-edge-justification",
                f"closure edge {where} endpoints share no operator",
            )


def _check_close_accounting(sub, report: SanitizeReport) -> None:
    report.checks.append("close-edge-accounting")
    rules = sub.stats.rule_applications
    fired = rules["CLOSE-COV"] + rules["CLOSE-CONTRA"]
    recorded = len(sub.close_edges)
    if fired != recorded:
        report.add(
            "close-edge-accounting",
            f"CLOSE-* counters sum to {fired} but {recorded} closure "
            "edges are recorded",
        )


def _check_demand(sub, report: SanitizeReport) -> None:
    report.checks.append("demand-consistency")
    graph = sub.graph
    demanded_count = 0
    for node in sub.factory.nodes:
        if node.kind != "op":
            continue
        if node.demanded:
            demanded_count += 1
        has_incoming = graph.in_degree(node) > 0
        if node.demanded and not has_incoming:
            report.add(
                "demand-consistency",
                f"operator {node.describe()} is demanded but has no "
                "incoming edge",
            )
        elif has_incoming and not node.demanded:
            report.add(
                "demand-consistency",
                f"operator {node.describe()} has an incoming edge but "
                "was never demanded",
            )
    if demanded_count != sub.stats.demanded_nodes:
        report.add(
            "demand-consistency",
            f"engine counted {sub.stats.demanded_nodes} demanded "
            f"nodes; the graph has {demanded_count}",
        )


def _check_budget(sub, report: SanitizeReport) -> None:
    report.checks.append("budget-accounting")
    factory = sub.factory
    if (
        factory.node_budget is not None
        and factory.node_count > factory.node_budget
    ):
        report.add(
            "budget-accounting",
            f"{factory.node_count} nodes exceed the node budget "
            f"{factory.node_budget}",
        )
    for node in factory.nodes:
        if node.kind == "op" and node.depth > factory.max_depth:
            report.add(
                "budget-accounting",
                f"operator {node.describe()} has depth {node.depth} "
                f"past the cap {factory.max_depth}",
            )
    if sub.graph.node_count > factory.node_count:
        report.add(
            "budget-accounting",
            f"graph holds {sub.graph.node_count} nodes but the "
            f"factory only created {factory.node_count}",
        )


def _check_phases(sub, report: SanitizeReport) -> None:
    stats = sub.stats
    if stats.total_nodes == 0:
        # Incremental sessions interleave build and close; per-phase
        # accounting lives in the session history instead.
        return
    report.checks.append("phase-accounting")
    if stats.total_nodes != sub.factory.node_count:
        report.add(
            "phase-accounting",
            f"build+close nodes = {stats.total_nodes} but the factory "
            f"created {sub.factory.node_count}",
        )
    if stats.total_edges != sub.graph.edge_count:
        report.add(
            "phase-accounting",
            f"build+close edges = {stats.total_edges} but the graph "
            f"has {sub.graph.edge_count}",
        )
    if stats.close_edges != len(sub.close_edges):
        report.add(
            "phase-accounting",
            f"close phase added {stats.close_edges} edges but "
            f"{len(sub.close_edges)} closure edges are recorded",
        )


def _dtc_eligible(sub, dtc_limit: int) -> bool:
    if sub.program.size > dtc_limit:
        return False
    if sub.stats.total_nodes == 0:
        # Incremental session graph: its binding edges come from the
        # session wiring, not from Let nodes the DTC oracle could see.
        return False
    if sub.factory.congruence is not None:
        return False  # congruences over-approximate by design
    if sub.factory.depth_truncations:
        return False  # a capped tower may have suppressed flows
    return all(node.context == () for node in sub.factory.nodes)


def _check_dtc(sub, report: SanitizeReport) -> None:
    """Proposition 1 spot-check: reachability label sets on the
    subtransitive graph equal the DTC transition system's."""
    from repro.cfa.dtc import analyze_dtc
    from repro.core.queries import SubtransitiveCFA

    report.checks.append("proposition-1-dtc")
    report.dtc_checked = True
    dtc = analyze_dtc(sub.program)
    cfa = SubtransitiveCFA(sub)
    sub_sets = cfa.all_label_sets()
    for expr in sub.program.nodes:
        dtc_labels = dtc.labels_of(expr)
        sub_labels = sub_sets[expr.nid]
        if dtc_labels != sub_labels:
            missing = dtc_labels - sub_labels
            extra = sub_labels - dtc_labels
            report.add(
                "proposition-1-dtc",
                f"label set of e{expr.nid} disagrees with DTC "
                f"(missing={sorted(missing)}, extra={sorted(extra)})",
            )


def sanitize(
    sub,
    dtc_limit: int = DEFAULT_DTC_LIMIT,
    registry=None,
) -> SanitizeReport:
    """Validate a finished :class:`~repro.core.lc.SubtransitiveGraph`.

    ``dtc_limit`` bounds the program size for the Proposition 1 DTC
    comparison (0 disables it). The run is recorded on ``registry``
    (default: the graph's own) under the ``sanitize.*`` names.
    """
    if registry is None:
        registry = sub.stats.registry
    report = SanitizeReport()
    timer = registry.timer("sanitize.run")
    with timer, Stopwatch() as watch:
        _check_close_edges(sub, report)
        _check_close_accounting(sub, report)
        _check_demand(sub, report)
        _check_budget(sub, report)
        _check_phases(sub, report)
        if dtc_limit and _dtc_eligible(sub, dtc_limit):
            _check_dtc(sub, report)
    report.seconds = watch.elapsed
    registry.counter("sanitize.violations").inc(len(report.violations))
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point: ``python -m repro.lint.sanitize f.ml``."""
    import argparse

    from repro.errors import ReproError

    parser = argparse.ArgumentParser(
        prog="repro.lint.sanitize",
        description="validate LC' output well-formedness",
    )
    parser.add_argument("file", help="mini-ML source file, or - for stdin")
    parser.add_argument(
        "--dtc-limit",
        type=int,
        default=DEFAULT_DTC_LIMIT,
        help="max program size for the DTC closure comparison "
        "(0 disables)",
    )
    args = parser.parse_args(argv)
    try:
        from repro.core.lc import build_subtransitive_graph
        from repro.lang import parse

        if args.file == "-":
            source = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        sub = build_subtransitive_graph(parse(source))
        report = sanitize(sub, dtc_limit=args.dtc_limit)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
