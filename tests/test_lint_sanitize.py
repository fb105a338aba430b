"""Tests for the LC' graph sanitizer.

Two directions: healthy graphs from every language feature pass all
checks (including the Proposition 1 DTC comparison where eligible),
and deliberately corrupted graphs are caught by the matching check.
"""

import pytest

from repro.core.lc import SubtransitiveGraph, build_subtransitive_graph
from repro.lang import parse
from repro.lint.sanitize import DEFAULT_DTC_LIMIT, main, sanitize
from repro.obs import MetricsRegistry

from tests.helpers import sample_programs


class TestHealthyGraphs:
    @pytest.mark.parametrize(
        "name,program", list(sample_programs()),
        ids=[name for name, _ in sample_programs()],
    )
    def test_all_samples_pass(self, name, program):
        report = sanitize(build_subtransitive_graph(program))
        assert report.ok, report.render()

    def test_dtc_check_runs_on_small_monovariant_programs(self):
        sub = build_subtransitive_graph(
            parse("(fn[f] x => x x) (fn[g] y => y)")
        )
        report = sanitize(sub)
        assert report.ok
        assert report.dtc_checked
        assert "proposition-1-dtc" in report.checks

    def test_dtc_check_skipped_under_congruence(self):
        program = parse(
            "datatype intlist = Nil | Cons of int * intlist;\n"
            "letrec len = fn[len] xs => case xs of Nil => 0 "
            "| Cons(h, t) => 1 + len t end in len (Cons(1, Nil))"
        )
        report = sanitize(build_subtransitive_graph(program))
        assert report.ok
        assert not report.dtc_checked

    def test_dtc_limit_zero_disables(self):
        sub = build_subtransitive_graph(parse("(fn[f] x => x) 1"))
        report = sanitize(sub, dtc_limit=0)
        assert report.ok
        assert not report.dtc_checked

    def test_method_on_graph(self):
        sub = build_subtransitive_graph(parse("(fn[f] x => x) 1"))
        assert sub.sanitize().ok

    def test_registry_accounting(self):
        registry = MetricsRegistry()
        sub = build_subtransitive_graph(parse("(fn[f] x => x) 1"))
        report = sanitize(sub, registry=registry)
        assert report.ok
        assert registry.counter("sanitize.violations").value == 0
        assert registry.timer("sanitize.run").count == 1

    def test_report_serialises(self):
        sub = build_subtransitive_graph(parse("(fn[f] x => x) 1"))
        document = sanitize(sub).to_dict()
        assert document["ok"] is True
        assert document["violations"] == []
        assert document["checks"]
        assert "ok" in sanitize(sub).render()


def _corrupted(sub, close_edges=None):
    return SubtransitiveGraph(
        sub.program,
        sub.factory,
        sub.graph,
        sub.stats,
        sub.close_edges if close_edges is None else close_edges,
    )


class TestCorruptedGraphs:
    SRC = "(fn[f] x => x x) (fn[g] y => y)"

    def test_fabricated_close_edge_detected(self):
        sub = build_subtransitive_graph(parse(self.SRC))
        nodes = list(sub.factory.nodes)
        fake = next(
            (a, b)
            for a in nodes
            for b in nodes
            if a is not b and not sub.graph.has_edge(a, b)
        )
        report = sanitize(
            _corrupted(sub, frozenset(set(sub.close_edges) | {fake}))
        )
        assert not report.ok
        violated = {v["check"] for v in report.violations}
        assert "close-edge-justification" in violated
        assert "close-edge-accounting" in violated

    def test_dropped_close_edge_detected(self):
        sub = build_subtransitive_graph(parse(self.SRC))
        assert sub.close_edges, "need a close edge to drop"
        dropped = frozenset(list(sub.close_edges)[1:])
        report = sanitize(_corrupted(sub, dropped))
        assert not report.ok
        assert any(
            v["check"] == "close-edge-accounting"
            for v in report.violations
        )

    def test_cleared_demand_flag_detected(self):
        sub = build_subtransitive_graph(parse(self.SRC))
        victim = next(
            node
            for node in sub.factory.nodes
            if node.kind == "op" and node.demanded
        )
        victim.demanded = False
        try:
            report = sanitize(sub)
        finally:
            victim.demanded = True
        assert not report.ok
        assert any(
            v["check"] == "demand-consistency"
            for v in report.violations
        )

    def test_released_node_left_in_graph_detected(self):
        # The graph keys its rows on uids: a node its factory released
        # must not stay in it, even once the uid is handed out again.
        sub = build_subtransitive_graph(parse(self.SRC))
        factory = sub.factory
        victim = next(
            node
            for node in factory.nodes
            if node.kind == "op"
            and node in sub.graph
            and not factory.ops_over(node)
        )
        factory.release([victim], lambda node: True)
        assert factory.var_node("fresh").uid == victim.uid
        report = sanitize(sub)
        assert any(
            v["check"] == "budget-accounting"
            and f"{victim.describe()} is not the factory's live node"
            in v["message"]
            for v in report.violations
        )

    def test_violations_land_on_registry(self):
        registry = MetricsRegistry()
        sub = build_subtransitive_graph(parse(self.SRC))
        dropped = frozenset(list(sub.close_edges)[1:])
        report = sanitize(_corrupted(sub, dropped), registry=registry)
        assert registry.counter("sanitize.violations").value == len(
            report.violations
        )
        assert "violation" in report.render()


class TestStandaloneRunner:
    def test_clean_file(self, tmp_path, capsys):
        path = tmp_path / "ok.ml"
        path.write_text("(fn[f] x => x) 1")
        assert main([str(path)]) == 0
        assert "sanitize: ok" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, capsys):
        assert main(["/nonexistent.ml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ml"
        path.write_text("let = ")
        assert main([str(path)]) == 2

    def test_dtc_limit_flag(self, tmp_path, capsys):
        path = tmp_path / "ok.ml"
        path.write_text("(fn[f] x => x) 1")
        assert main([str(path), "--dtc-limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "DTC" not in out

    def test_default_limit_is_paper_scale(self):
        assert DEFAULT_DTC_LIMIT == 600
