"""Tests for the incremental analysis session.

The key property: growing a session definition-by-definition yields
exactly the same analysis as batch-analysing the equivalent
``let``-chained program — the paper's "incremental" claim made
executable.
"""

import pytest

from repro.core.queries import analyze_subtransitive
from repro.errors import ScopeError
from repro.lang import builders as b
from repro.lang import parse
from repro.session import AnalysisSession
from repro.workloads.generators import intlist_decl


class TestDefineAndQuery:
    def test_single_definition(self):
        session = AnalysisSession()
        session.define("id", "fn[id] x => x")
        assert session.labels_of("id") == {"id"}

    def test_cross_definition_flow(self):
        session = AnalysisSession()
        session.define("id", "fn[id] x => x")
        session.define("g", "fn[g] y => y")
        session.define("r", "id g")
        assert session.labels_of("r") == {"g"}

    def test_query_expression(self):
        session = AnalysisSession()
        session.define("id", "fn[id] x => x")
        assert session.query("id id") == {"id"}

    def test_queries_between_definitions(self):
        session = AnalysisSession()
        session.define("a", "fn[a] x => x")
        first = session.query("a")
        session.define("c", "fn[c] y => a y")
        second = session.labels_of("c")
        assert first == {"a"}
        assert second == {"c"}

    def test_self_recursive_definition(self):
        session = AnalysisSession()
        session.define("loop", "fn[loop] n => loop n")
        assert session.labels_of("loop") == {"loop"}

    def test_undefined_name_raises(self):
        session = AnalysisSession()
        with pytest.raises(ScopeError):
            session.labels_of("ghost")

    def test_unbound_reference_raises(self):
        session = AnalysisSession()
        with pytest.raises(ScopeError):
            session.define("bad", "missing 1")

    def test_redefinition_unions_flows(self):
        session = AnalysisSession()
        session.define("f", "fn[v1] x => x")
        session.define("f", "fn[v2] y => y")
        assert session.labels_of("f") == {"v1", "v2"}

    def test_datatypes_in_session(self):
        session = AnalysisSession(datatypes=[intlist_decl()])
        session.define("xs", "Cons(1, Cons(2, Nil))")
        session.define(
            "head", "case xs of Nil => 0 | Cons(h, t) => h end"
        )
        assert session.evaluate("head").value == 1


class TestIncrementalEqualsBatch:
    DEFINITIONS = [
        ("compose", "fn[compose] f => fn[c2] g => fn[c3] x => f (g x)"),
        ("inc", "fn[inc] a => a + 1"),
        ("dbl", "fn[dbl] b => b * 2"),
        ("both", "compose inc dbl"),
        ("other", "compose dbl inc"),
    ]

    def batch_program(self):
        source = ""
        for name, body in self.DEFINITIONS:
            source += f"let {name} = {body} in "
        source += "both"
        return parse(source)

    def test_per_name_label_sets_match_batch(self):
        session = AnalysisSession()
        for name, body in self.DEFINITIONS:
            session.define(name, body)
        batch = analyze_subtransitive(self.batch_program())
        for name, _ in self.DEFINITIONS:
            assert session.labels_of(name) == batch.labels_of_var(
                name
            ), name

    def test_graph_grows_monotonically(self):
        session = AnalysisSession()
        sizes = []
        for name, body in self.DEFINITIONS:
            session.define(name, body)
            sizes.append((session.graph_nodes, session.graph_edges))
        assert sizes == sorted(sizes)

    def test_each_definition_costs_roughly_its_own_size(self):
        # The incremental point: adding one small definition to a big
        # session must not rebuild the world.
        session = AnalysisSession()
        for i in range(50):
            session.define(f"w{i}", f"fn x => x + {i}")
        before = session.graph_nodes
        session.define("one_more", "fn y => y * 2")
        added = session.graph_nodes - before
        assert added < 20


class TestEvaluate:
    def test_evaluate_uses_definitions(self):
        session = AnalysisSession()
        session.define("inc", "fn x => x + 1")
        assert session.evaluate("inc 41").value == 42

    def test_effects_collected_at_define_time(self):
        session = AnalysisSession()
        session.define("noise", "print 7")
        assert session.output == ["7"]

    def test_recursive_evaluation(self):
        session = AnalysisSession()
        session.define(
            "fact",
            "fn n => if n < 2 then 1 else n * fact (n - 1)",
        )
        assert session.evaluate("fact 5").value == 120

    def test_soundness_of_session_analysis(self):
        session = AnalysisSession()
        session.define("id", "fn[id] x => x")
        session.define("g", "fn[g] y => y")
        result = session.evaluate("id g")
        assert isinstance(result.value, object)
        # The analysed label set covers the runtime value.
        assert session.query("id g") >= {"g"}


class TestSessionLint:
    def test_dead_definition_flagged(self):
        session = AnalysisSession()
        session.define("dead", "fn[dead] x => x")
        result = session.lint()
        assert "L001" in result.rules_fired()

    def test_redefinition_flips_verdicts(self):
        session = AnalysisSession()
        session.define("g", "fn[g] y => y")
        first = session.lint()
        assert any(
            f.rule == "L001" and f.label == "g" for f in first.findings
        )
        session.define("use", "g 1")
        second = session.lint()
        assert not any(
            f.rule == "L001" and f.label == "g"
            for f in second.findings
        )
        assert any(
            f.rule == "L003" and f.label == "g"
            for f in second.findings
        )

    def test_repeat_lint_hits_cache(self):
        session = AnalysisSession()
        session.define("id", "fn[id] x => x")
        first = session.lint()
        second = session.lint()
        assert second is first
        registry = session.engine.stats.registry
        assert registry.counter("lint.session.cache_hits").value == 1

    def test_incremental_path_taken_and_timed(self):
        session = AnalysisSession()
        session.define("a", "fn[a] x => x")
        first = session.lint()
        session.define("b", "fn[b] y => y")
        assert session.lint() is not first
        registry = session.engine.stats.registry
        assert registry.counter("lint.session.cache_hits").value == 0
        assert registry.timer("session.lint").count == 2

    def test_incremental_lint_equals_full_lint(self):
        from repro.lint import run_lints

        session = AnalysisSession()
        steps = [
            ("g", "fn[g] y => y"),
            ("h", "fn[h] z => z"),
            ("use", "g 1"),
            ("use2", "g 2"),
            ("pair", "(h, use)"),
        ]
        for name, source in steps:
            session.define(name, source)
            session.lint()  # exercise the incremental path each step
        incremental = session.lint()
        full = run_lints(session.program, session._graph_view())
        assert {(f.rule, f.nid) for f in incremental.findings} == {
            (f.rule, f.nid) for f in full.findings
        }

    def test_explicit_passes_bypass_cache(self):
        from repro.lint import DeadLambdaPass

        session = AnalysisSession()
        session.define("dead", "fn[dead] x => x")
        cached = session.lint()
        explicit = session.lint(passes=[DeadLambdaPass])
        assert explicit is not cached
        assert set(explicit.rules_fired()) == {"L001"}

    def test_session_sanitize_ok(self):
        session = AnalysisSession()
        session.define("id", "fn[id] x => x")
        session.define("r", "id id")
        report = session.sanitize()
        assert report.ok, report.render()
        # The DTC oracle cannot see session binding edges; the
        # sanitizer must skip that comparison for session graphs.
        assert not report.dtc_checked
