"""Correctness of the semi-naive delta engine behind the daemon.

The contract under test (docs/DAEMON.md): after **every** mutation the
warm graph's ``repro.result/1`` envelope is byte-identical to a cold
analysis of the project's rendered source, and the graph passes the
full sanitizer. Fallbacks are allowed (the state is rebuilt by replay)
but must be tagged with a reason from ``FALLBACK_REASONS``.

Lint findings carry source positions, and warm per-definition parses
number lines from 1 while the cold rendered chain shifts them — so
lint output is compared byte-identical against a *fresh replay*
``ProjectAnalysis`` (same wiring, same positions) and
modulo-positions against the true cold run.
"""

import json
import random
from collections import Counter

import pytest

from repro.core.nodes import EXPR
from repro.daemon import FALLBACK_REASONS, ProjectAnalysis
from repro.errors import ScopeError
from repro.lang.ast import App, Lam, Let, Letrec, Lit, Var
from repro.workloads.cubic import make_cubic_source
from repro.export import result_to_dict
from repro.serve.worker import _lint_section


def cold_envelope(pa):
    return result_to_dict(ProjectAnalysis.cold_cfa(pa.render_source()))


def replay_of(pa):
    fresh = ProjectAnalysis()
    for entry in pa.defs:
        fresh.define(entry.name, entry.source)
    return fresh


def strip_positions(section):
    doc = json.loads(json.dumps(section))
    findings = doc["findings"]
    for finding in findings:
        finding["line"] = None
        finding["column"] = None
    doc["findings"] = sorted(
        findings, key=lambda f: (f["rule"], f.get("nid") or 0, f["message"])
    )
    return doc


def check_exact(pa):
    """The full per-mutation contract."""
    warm = json.dumps(pa.envelope(), indent=2, sort_keys=True)
    cold = json.dumps(cold_envelope(pa), indent=2, sort_keys=True)
    assert warm == cold
    report = pa.sanitize()
    assert report["ok"], report["violations"]
    fresh = replay_of(pa)
    assert json.dumps(pa.lint(), sort_keys=True) == json.dumps(
        fresh.lint(), sort_keys=True
    )
    cold_cfa = ProjectAnalysis.cold_cfa(pa.render_source())
    cold_lint = _lint_section(cold_cfa.program, cold_cfa)
    assert json.dumps(
        strip_positions(pa.lint()), sort_keys=True
    ) == json.dumps(strip_positions(cold_lint), sort_keys=True)


@pytest.fixture(params=["object", "csr"])
def backend(request):
    """Both ids run the one (CSR) graph; they name the graph backends
    these tests used to be repeated on."""
    return request.param


class TestDefineAppend:
    def test_single_definition(self, backend):
        pa = ProjectAnalysis()
        report = pa.define("id", "fn x => x")
        assert report["delta"] is True
        assert report["version"] == 1
        check_exact(pa)

    def test_chained_definitions(self, backend):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id (fn[l1] y => y)")
        check_exact(pa)
        assert pa.query_name("use") == {"name": "use", "labels": ["l1"]}

    def test_letrec_definition(self, backend):
        pa = ProjectAnalysis()
        pa.define("loop", "fn[loop] x => loop x")
        assert pa.defs[0].recursive
        check_exact(pa)


class TestRedefine:
    def test_redefine_leaf(self, backend):
        pa = ProjectAnalysis()
        pa.define("a", "fn p => p")
        pa.define("b", "a a")
        report = pa.define("b", "a (a a)")
        assert report["delta"] is True
        assert report["retracted_edges"] > 0
        check_exact(pa)

    def test_redefine_middle_with_self_application(self, backend):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id id")
        report = pa.define("id", "fn z => z z")
        assert report["delta"] is True
        assert report["retracted_close_edges"] > 0
        check_exact(pa)

    def test_letrec_to_let_flip(self, backend):
        pa = ProjectAnalysis()
        pa.define("f", "fn[f0] x => f x")
        assert pa.defs[0].recursive
        report = pa.define("f", "fn[f1] x => x")
        assert not pa.defs[0].recursive
        assert report["delta"] is True
        check_exact(pa)

    def test_same_shape_redefine_splices_without_reindex(self, backend):
        # Equal node counts take the in-place splice fast path; the
        # result must still be cold-exact on every surface.
        pa = ProjectAnalysis()
        pa.define("a", "fn[a0] p => p")
        pa.define("b", "a (fn[b0] q => q)")
        program_before = pa.program
        report = pa.define("b", "a (fn[b1] r => r)")
        assert report["delta"] is True
        # The fast path splices into the live Program; the slow path
        # would have replaced the object wholesale.
        assert pa.program is program_before
        check_exact(pa)
        assert pa.query_name("b")["labels"] == ["b1"]

    def test_same_shape_label_collision_uses_slow_path(self, backend):
        # Duplicating another definition's label is a genuine error;
        # the splice guard must route it to the re-indexing path,
        # which rejects it atomically.
        pa = ProjectAnalysis()
        pa.define("a", "fn[dup] p => p")
        pa.define("b", "fn[b0] q => q")
        with pytest.raises(ScopeError, match="dup"):
            pa.define("b", "fn[dup] q => q")
        check_exact(pa)

    def test_version_bumps_on_every_mutation(self, backend):
        pa = ProjectAnalysis()
        pa.define("a", "fn x => x")
        pa.define("a", "fn y => y")
        pa.define("b", "a")
        pa.undefine("b")
        assert pa.version == 4


class TestUndefine:
    def test_undefine_retracts_everything(self, backend):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id id")
        report = pa.undefine("use")
        assert report["delta"] is True
        assert report["retracted_edges"] > 0
        assert [d.name for d in pa.defs] == ["id"]
        check_exact(pa)

    def test_undefine_referenced_is_rejected_pre_mutation(self, backend):
        pa = ProjectAnalysis()
        pa.define("a", "fn x => x")
        pa.define("b", "a a")
        version = pa.version
        with pytest.raises(ScopeError, match="reference"):
            pa.undefine("a")
        assert pa.version == version
        check_exact(pa)

    def test_undefine_unknown_is_rejected(self, backend):
        pa = ProjectAnalysis()
        with pytest.raises(ScopeError, match="unknown"):
            pa.undefine("ghost")

    def test_define_after_undefine_is_fresh(self, backend):
        pa = ProjectAnalysis()
        pa.define("f", "fn[f0] x => x")
        pa.undefine("f")
        pa.define("f", "fn[f1] y => y")
        check_exact(pa)
        assert pa.query_name("f")["labels"] == ["f1"]


class TestFallbacks:
    def test_rename_shift_falls_back_exactly(self, backend):
        pa = ProjectAnalysis()
        pa.define("a", "fn t => t")
        pa.define("b", "fn t => a t")
        # Redefining `a` to bind `t` twice shifts the fresh name the
        # later definition's `t` renames to — not delta-safe.
        report = pa.define("a", "fn t => fn t => t")
        assert report["delta"] is False
        assert report["delta_fallback_reason"] == "rename-shift"
        assert pa.fallbacks["rename-shift"] == 1
        check_exact(pa)

    def test_node_budget_fallback_reason_is_known(self):
        assert set(FALLBACK_REASONS) == {
            "rename-shift",
            "node-budget",
            "internal-error",
        }

    def test_fallback_counters_start_zeroed(self, backend):
        pa = ProjectAnalysis()
        assert pa.fallbacks == {reason: 0 for reason in FALLBACK_REASONS}


class TestRenderedSource:
    def test_rendering_parses_back_to_the_same_program(self, backend):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id (fn[l1] y => y)")
        source = pa.render_source()
        assert "let id =" in source
        assert source.endswith("()\n")
        check_exact(pa)

    def test_recursive_definitions_render_as_letrec(self, backend):
        pa = ProjectAnalysis()
        pa.define("loop", "fn[loop] x => loop x")
        assert "letrec loop =" in pa.render_source()


class TestQueries:
    def test_query_label(self, backend):
        pa = ProjectAnalysis()
        pa.define("id", "fn[idl] x => x")
        pa.define("use", "id id")
        result = pa.query_label("idl")
        assert result["label"] == "idl"
        assert result["nids"]

    def test_query_unknown_name_raises(self, backend):
        pa = ProjectAnalysis()
        with pytest.raises(ScopeError):
            pa.query_name("ghost")


def check_live_tables(pa):
    """The factory indexes the live program and nothing else: one
    expression-table entry per live occurrence, and every occurrence
    bucket and bearing node resolves to the live expression."""
    factory = pa.engine.factory
    program = pa.program
    assert len(factory._exprs) == program.size
    assert set(factory._exprs) == {(e.nid, ()) for e in program.nodes}
    for expr in program.nodes:
        for node in factory.occurrences(EXPR, expr.nid):
            assert node.expr is program.node(expr.nid)
    for cls in (App, Lam, Let, Letrec, Lit, Var):
        for node in factory.nodes_bearing(cls):
            assert node.expr is program.node(node.expr.nid)


class TestLiveContract:
    """A long seeded session stays O(live program): re-keying keeps
    exactly the live occurrences, whichever delta path a mutation
    takes, and the warm envelope stays cold-exact."""

    def test_seeded_session_keeps_only_live_occurrences(self):
        n = 6
        rng = random.Random(14)
        pa = ProjectAnalysis()
        for line in make_cubic_source(n).splitlines()[:-1]:
            pa.define(*line[len("let "):-len(" in")].split(" = ", 1))
        scratch = []
        paths = Counter()
        for step in range(220):
            kind = rng.choice(["splice", "dred", "append", "undefine"])
            i = rng.randint(1, n)
            j = rng.randint(1, i)
            if kind == "undefine" and not scratch:
                kind = "append"
            if kind == "splice":
                report = pa.define(f"x{i}", f"b{j} (fs f{i})")
            elif kind == "dred":
                source = rng.choice(
                    [f"b{i} (fs (fs f{j}))", f"bs (b{i} (fs f{j}))"]
                )
                report = pa.define(f"x{i}", source)
            elif kind == "append":
                scratch.append(f"z{step}")
                report = pa.define(scratch[-1], f"fs f{i}")
            else:
                report = pa.undefine(scratch.pop())
            assert report["delta"] is True
            paths[(report["op"], report["mode"])] += 1
            check_live_tables(pa)
            warm = json.dumps(pa.envelope(), sort_keys=True)
            assert warm == json.dumps(cold_envelope(pa), sort_keys=True)
        # splice, DRed (define and undefine) and append, 20+ each
        assert len(paths) == 4 and min(paths.values()) >= 20, paths
