"""Tests for the lint passes, the driver, and the renderers.

The load-bearing properties:

* each rule fires exactly where its definition says (unit programs);
* L002 agrees with the empty-label-set criterion of the *standard*
  cubic CFA on fuzzed programs (the rules are CFA verdicts, not
  heuristics);
* a full lint run never materialises a label set and visits O(graph)
  nodes (the linearity regression).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfa.standard import analyze_standard
from repro.core.hybrid import analyze_hybrid
from repro.core.lc import build_subtransitive_graph
from repro.core.queries import SubtransitiveCFA
from repro.lang import parse
from repro.lint import (
    ALL_PASSES,
    DeadLambdaPass,
    StuckApplicationPass,
    UnusedBindingPass,
    run_lints,
    severity_at_least,
)
from repro.lint.findings import SCHEMA
from repro.obs import MetricsRegistry
from repro.workloads.cubic import make_cubic_program
from repro.workloads.generators import random_typed_program

#: One program triggering every rule (mirrors examples/lint_showcase.lam).
SHOWCASE = """
let dead = fn[dead] x => x in
let keep = (fn[kept] a => a, fn[other] b => b) in
let unused = fn[u] q => q in
let once_fn = fn[once_fn] w => w in
let escaper = fn[escaper] z => z in
let _eff = print escaper in
letrec loop = fn[loop] n => loop n in
let stuck_val = (loop 1) 2 in
once_fn ((#2 keep) stuck_val)
"""


def lint_source(source, **kwargs):
    program = parse(source)
    sub = build_subtransitive_graph(program)
    return program, run_lints(program, sub, **kwargs)


class TestRules:
    def test_l001_dead_lambda(self):
        _, result = lint_source("let dead = fn[dead] x => x in 1")
        assert "L001" in result.rules_fired()
        (finding,) = result.by_rule()["L001"]
        assert finding.label == "dead"

    def test_l001_silent_when_called(self):
        _, result = lint_source("let f = fn[f] x => x in f 1")
        assert "L001" not in result.rules_fired()

    def test_l002_stuck_application(self):
        src = (
            "letrec loop = fn[loop] x => loop x in (loop 1) 2"
        )
        program, result = lint_source(src)
        (finding,) = result.by_rule()["L002"]
        # The flagged site is the outer application of a non-function.
        assert finding.nid == program.root.body.nid
        assert finding.severity == "error"

    def test_l002_silent_on_live_call(self):
        _, result = lint_source("(fn[f] x => x) 1")
        assert "L002" not in result.rules_fired()

    def test_l003_called_once_names_site(self):
        program, result = lint_source("let f = fn[f] x => x in f 1")
        (finding,) = result.by_rule()["L003"]
        assert finding.label == "f"
        (site,) = program.applications
        assert f"nid {site.nid}" in finding.message

    def test_l003_silent_on_two_sites(self):
        _, result = lint_source(
            "let f = fn[f] x => x in (f 1, f 2)"
        )
        assert "L003" not in result.rules_fired()

    def test_l004_escaping_function(self):
        _, result = lint_source(
            "let esc = fn[esc] x => x in print esc"
        )
        (finding,) = result.by_rule()["L004"]
        assert finding.label == "esc"

    def test_l004_silent_on_scalar_sink(self):
        _, result = lint_source(
            "let f = fn[f] x => x in print (f 1)"
        )
        assert "L004" not in result.rules_fired()

    def test_l005_unused_binding(self):
        _, result = lint_source("let unused = fn[u] x => x in 1")
        (finding,) = result.by_rule()["L005"]
        assert "unused" in finding.message

    def test_l005_skips_underscore_names(self):
        _, result = lint_source("let _scratch = fn[u] x => x in 1")
        assert "L005" not in result.rules_fired()

    def test_showcase_triggers_every_rule(self):
        _, result = lint_source(SHOWCASE)
        assert set(result.rules_fired()) == {
            "L001", "L002", "L003", "L004", "L005"
        }


class TestDriver:
    def test_builds_graph_when_given_none(self):
        program = parse("let dead = fn[dead] x => x in 1")
        result = run_lints(program)
        assert result.engine == "subtransitive"
        assert "L001" in result.rules_fired()

    def test_accepts_cfa_wrapper(self):
        program = parse("let dead = fn[dead] x => x in 1")
        cfa = SubtransitiveCFA(build_subtransitive_graph(program))
        result = run_lints(program, cfa)
        assert "L001" in result.rules_fired()

    def test_rejects_foreign_results(self):
        program = parse("fn[id] x => x")
        with pytest.raises(TypeError):
            run_lints(program, analyze_standard(program))

    def test_pass_subset(self):
        _, result = lint_source(
            SHOWCASE, passes=[DeadLambdaPass, UnusedBindingPass]
        )
        assert set(result.rules_fired()) == {"L001", "L005"}

    def test_pass_seconds_recorded(self):
        _, result = lint_source(SHOWCASE)
        assert set(result.pass_seconds) == {
            cls.code for cls in ALL_PASSES
        }


class TestHybridFallback:
    OMEGA = "(fn[w] x => x x) (fn[w2] y => y y)"

    def test_fallback_findings_tagged_standard(self):
        program = parse(self.OMEGA)
        hybrid = analyze_hybrid(program)
        assert hybrid.engine == "standard"
        result = run_lints(program, hybrid)
        assert result.engine == "standard"
        assert result.fallback_reason == hybrid.fallback_reason
        assert result.findings
        assert all(f.via == "standard" for f in result.findings)

    def test_fallback_agrees_with_graph_path_on_typed_program(self):
        # On a program LC' handles, force the fallback implementation
        # through a budget-0 hybrid and compare verdicts.
        program = parse(SHOWCASE)
        sub = build_subtransitive_graph(program)
        linear = run_lints(program, sub)
        forced = analyze_hybrid(program, node_budget=1)
        assert forced.engine == "standard"
        fallback = run_lints(program, forced)
        assert {(f.rule, f.nid) for f in linear.findings} == {
            (f.rule, f.nid) for f in fallback.findings
        }


class TestRenderers:
    def test_text_render_has_positions_and_codes(self):
        _, result = lint_source("let dead = fn[dead] x => x in 1")
        text = result.render_text("prog.ml")
        assert "prog.ml:1:12: L001 warning:" in text

    def test_json_document_shape(self):
        _, result = lint_source(SHOWCASE)
        document = result.to_dict("prog.ml")
        assert document["path"] == "prog.ml"
        assert document["engine"] == "subtransitive"
        assert document["fallback_reason"] is None
        assert set(document["counts"]) == set(result.rules_fired())
        for finding in document["findings"]:
            assert set(finding) >= {
                "rule", "severity", "nid", "line", "column",
                "message", "via",
            }
        json.dumps(document)  # JSON-safe throughout

    def test_findings_sorted_by_position(self):
        _, result = lint_source(SHOWCASE)
        keys = [f.sort_key for f in result.findings]
        assert keys == sorted(keys)

    def test_schema_tag(self):
        assert SCHEMA == "repro.lint/1"


class TestFiltering:
    def test_severity_order(self):
        assert severity_at_least("error", "warning")
        assert not severity_at_least("info", "warning")

    def test_filtered_by_severity(self):
        _, result = lint_source(SHOWCASE)
        errors = result.filtered(min_severity="error")
        assert set(errors.rules_fired()) == {"L002"}

    def test_filtered_by_rules(self):
        _, result = lint_source(SHOWCASE)
        only = result.filtered(rules={"L001", "L004"})
        assert set(only.rules_fired()) == {"L001", "L004"}


class TestLinearity:
    def test_no_label_set_queries_and_bounded_visits(self):
        program = make_cubic_program(24)
        registry = MetricsRegistry()
        sub = build_subtransitive_graph(program, registry=registry)
        run_lints(program, sub, registry=registry)
        assert registry.counter("queries.count").value == 0
        assert registry.counter("queries.labels_of").value == 0
        visited = registry.counter("lint.visited_nodes").value
        assert 0 < visited <= 3 * sub.graph.node_count

    def test_findings_counters_match(self):
        program = parse(SHOWCASE)
        registry = MetricsRegistry()
        sub = build_subtransitive_graph(program, registry=registry)
        result = run_lints(program, sub, registry=registry)
        for code, findings in result.by_rule().items():
            counted = registry.counter(f"lint.findings.{code}").value
            assert counted == len(findings)


class TestL002Property:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_l002_matches_standard_empty_label_sets(self, seed):
        program = random_typed_program(
            seed, fuel=20, use_datatypes=False
        )
        sub = build_subtransitive_graph(program)
        result = run_lints(
            program, sub, passes=[StuckApplicationPass]
        )
        flagged = {f.nid for f in result.findings}
        std = analyze_standard(program)
        expected = {
            site.nid
            for site in program.applications
            if not std.may_call(site)
        }
        assert flagged == expected
