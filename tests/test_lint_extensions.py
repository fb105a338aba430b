"""Tests for the F-series flow rules and T-series linearity auditor.

Complements tests/test_lint.py (which pins the L-series): positive and
negative cases per F rule, the shipped letrec/record fixtures under
examples/, and the T-series verdicts on both lint engines (graph path
and standard-CFA fallback).
"""

import pathlib

import pytest

from repro.cfa.standard import analyze_standard
from repro.core.hybrid import HybridResult, analyze_hybrid
from repro.lang import parse
from repro.lint import run_lints
from repro.workloads.cubic import make_unbounded_source

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def lint_source(src, **kwargs):
    program = parse(src)
    return program, run_lints(program, **kwargs)


def fired(result):
    return set(result.rules_fired())


# -- shipped fixtures ---------------------------------------------------------


class TestFixtures:
    def read(self, name):
        return (EXAMPLES / name).read_text(encoding="utf-8")

    def test_letrec_fixture(self):
        _, result = lint_source(self.read("letrec_lints.lam"))
        assert fired(result) == {"F001", "F002", "F003", "L003"}
        by_rule = result.by_rule()
        # Both the `+` operand and the print argument carry the taint.
        assert len(by_rule["F001"]) == 2
        # The cell itself escapes through `print cell`, not its contents.
        assert len(by_rule["F002"]) == 1
        assert by_rule["F003"][0].label == "lazy"

    def test_record_fixture(self):
        _, result = lint_source(self.read("record_lints.lam"))
        assert fired(result) == {"F004", "L003"}
        (finding,) = result.by_rule()["F004"]
        assert "Square" in finding.message
        assert "Circle" in finding.message


# -- F-series unit cases ------------------------------------------------------


class TestTaintedSink:
    def test_deref_reaching_print_fires(self):
        _, result = lint_source(
            "let r = ref 1 in let x = !r in print x"
        )
        assert "F001" in fired(result)

    def test_pure_sink_is_silent(self):
        _, result = lint_source("print 2")
        assert "F001" not in fired(result)

    def test_cell_itself_is_not_taint(self):
        # Printing the *cell* is F002's business, not F001's.
        _, result = lint_source("let r = ref 1 in print r")
        assert "F001" not in fired(result)


class TestEscapingRef:
    def test_ref_into_sink_fires(self):
        _, result = lint_source("let r = ref 1 in print r")
        assert "F002" in fired(result)

    def test_deref_into_sink_is_silent(self):
        _, result = lint_source("let r = ref 1 in print !r")
        assert "F002" not in fired(result)


class TestUnneededParam:
    def test_unused_param_fires(self):
        _, result = lint_source("(fn[k] x => 1) 2")
        assert "F003" in fired(result)

    def test_used_param_is_silent(self):
        _, result = lint_source("(fn[id] x => x) 2")
        assert "F003" not in fired(result)

    def test_underscore_param_opts_out(self):
        _, result = lint_source("(fn[k] _x => 1) 2")
        assert "F003" not in fired(result)


class TestUnreachableBranch:
    DECL = "datatype d = A | B of int;\n"

    def test_missing_constructor_fires(self):
        _, result = lint_source(
            self.DECL + "case A of | A => 1 | B(n) => n end"
        )
        assert "F004" in fired(result)

    def test_all_constructors_reachable_is_silent(self):
        _, result = lint_source(
            self.DECL
            + "let v = if true then A else B(1) in "
            "case v of | A => 1 | B(n) => n end"
        )
        assert "F004" not in fired(result)


# -- T-series: both engines agree ---------------------------------------------


class TestLinearityRules:
    def test_unbounded_family_fires_t_rules(self):
        _, result = lint_source(make_unbounded_source(8))
        codes = fired(result)
        assert {"T001", "T002", "T003"} <= codes

    def test_bounded_program_is_t_silent(self):
        _, result = lint_source("let id = fn[id] x => x in id 1")
        assert not {"T001", "T002", "T003"} & fired(result)

    def test_untypeable_program_fires_t001(self):
        # Datatype-free: LC' still answers it, so no fallback forecast.
        _, result = lint_source("(fn[w] x => x x) (fn[v] y => y y)")
        codes = fired(result)
        assert "T001" in codes
        assert "T003" not in codes

    def test_untypeable_program_with_datatypes_fires_t003(self):
        # The hybrid abandons LC' on it, and the lints say so.
        program = parse(
            "datatype box = Box of int;\n"
            "(fn[w] x => x x) (fn[v] y => y y)"
        )
        result = run_lints(program, analyze_hybrid(program))
        assert result.fallback_reason == "inference"
        assert {"T001", "T003"} <= fired(result)

    def test_fallback_engine_agrees(self):
        src = make_unbounded_source(8)
        program = parse(src)
        graph_result = run_lints(program)
        fallback = run_lints(
            program,
            HybridResult(
                "standard",
                analyze_standard(program),
                fallback_reason="budget",
            ),
        )
        assert fallback.engine == "standard"
        graph_t = {
            f.rule for f in graph_result.findings
            if f.rule.startswith("T")
        }
        fallback_t = {
            f.rule for f in fallback.findings
            if f.rule.startswith("T")
        }
        assert graph_t == fallback_t
        assert all(
            f.via == "standard"
            for f in fallback.findings
            if f.rule.startswith("T")
        )

    def test_t_findings_anchor_at_root(self):
        program, result = lint_source(make_unbounded_source(4))
        for finding in result.findings:
            if finding.rule.startswith("T"):
                assert finding.nid == program.root.nid
