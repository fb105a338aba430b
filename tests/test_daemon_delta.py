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

from repro.core.nodes import EXPR, NodeFactory
from repro.daemon import (
    FALLBACK_REASONS,
    ProjectAnalysis,
    ProjectRegistry,
    delta,
)
from repro.errors import (
    AnalysisBudgetExceeded,
    ScopeError,
    UnknownConstructorError,
)
from repro.lang.ast import (
    App,
    Con,
    Lam,
    Let,
    Letrec,
    Lit,
    Program,
    Record,
    Ref,
    Var,
)
from repro.lang.parser import parse
from repro.workloads.cubic import make_cubic_source
from repro.export import result_to_dict
from repro.serve.worker import _lint_section

from tests.helpers import scanned_index


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


@pytest.fixture(params=["csr"])
def backend(request):
    """The one (CSR) graph; the param keeps these tests' ids."""
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

    def test_fallback_reasons_are_known(self):
        # Over budget is a rejection, not a fallback: live node counts
        # make the warm test the cold one (TestWarmMatchesCold).
        assert set(FALLBACK_REASONS) == {"rename-shift", "internal-error"}

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


def cubic_defines(n):
    """The cubic-``n`` project as (name, source) definitions."""
    return [
        tuple(line[len("let "):-len(" in")].split(" = ", 1))
        for line in make_cubic_source(n).splitlines()[:-1]
    ]


def open_project(n):
    pa = ProjectAnalysis()
    for name, source in cubic_defines(n):
        pa.define(name, source)
    return pa


def seeded_edits(pa, n, steps, seed):
    """Drive a cubic-``n`` project through ``steps`` seeded same-shape
    and shape-changing redefinitions, appends and undefines anywhere
    in the chain; yields each report."""
    rng = random.Random(seed)
    scratch = []
    for step in range(steps):
        kind = rng.choice(["splice", "dred", "append", "undefine"])
        i = rng.randint(1, n)
        j = rng.randint(1, i)
        if kind == "undefine" and not scratch:
            kind = "append"
        if kind == "splice":
            yield pa.define(f"x{i}", f"b{j} (fs f{i})")
        elif kind == "dred":
            yield pa.define(f"x{i}", f"bs (b{i} (fs f{j}))")
        elif kind == "append":
            scratch.append(f"z{step}")
            yield pa.define(scratch[-1], f"fs f{i}")
        else:
            yield pa.undefine(scratch.pop(rng.randrange(len(scratch))))


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``Program`` constructions, fresh warm states (the
    initial one plus one per replay), occurrence-table writes and the
    daemon's auto-label allocations."""
    counts = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def counting(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    count(Program, "__init__")
    count(ProjectAnalysis, "_fresh_state")
    count(NodeFactory, "record_expr")
    allocate = delta.auto_label

    def counting_allocate(*args):
        counts["auto_label"] += 1
        return allocate(*args)

    monkeypatch.setattr(delta, "auto_label", counting_allocate)
    return counts


class TestEditCost:
    """What a mutation does to the tables is proportional to its edit:
    no define or undefine indexes a whole ``Program``, and an open
    writes each occurrence once plus one re-key of the terminal ``()``
    per append. Exact counts, not timings."""

    @pytest.mark.parametrize("n", [8, 32])
    def test_open_writes_each_occurrence_once(self, calls, n):
        pa = open_project(n)
        assert calls["__init__"] == calls["_fresh_state"] == 1
        assert calls["record_expr"] == pa.program.size + len(pa.defs) - 1

    def test_an_open_writing_auto_form_labels_allocates_each_once(
        self, calls
    ):
        # Every other abstraction writes the ``l<k>`` label a cold
        # parse gives it unwritten (as the analyser prints it), so each
        # append allocates its own auto labels and no earlier ones.
        pa = ProjectAnalysis()
        lams = 0
        for name, source in cubic_defines(16):
            if source.startswith("fn["):
                label = f"[l{lams}]" if lams % 2 else ""
                source = "fn" + label + source[source.index("]") + 1:]
                lams += 1
            pa.define(name, source)
        assert calls["auto_label"] == (lams + 1) // 2
        assert pa.program.labels == [f"l{k}" for k in range(lams)]
        check_exact(pa)

    def test_a_replay_is_one_linear_open(self, calls):
        pa = open_project(8)
        calls.clear()
        # A new parameter name shifts every later ``x`` renaming.
        report = pa.define("fs", "fn[fs] z => z")
        assert report["delta_fallback_reason"] == "rename-shift"
        assert calls["__init__"] == calls["_fresh_state"] == 1
        assert calls["record_expr"] == pa.program.size + len(pa.defs) - 1
        check_exact(pa)

    def test_seeded_session_never_reindexes(self, calls):
        pa = open_project(6)
        paths = Counter(
            (report["op"], report["mode"])
            for report in seeded_edits(pa, 6, 200, seed=22)
        )
        replays = sum(pa.fallbacks.values())
        assert calls["__init__"] == calls["_fresh_state"] == 1 + replays
        assert len(paths) == 4 and min(paths.values()) >= 20, paths
        check_live_tables(pa)
        warm = json.dumps(pa.envelope(), sort_keys=True)
        assert warm == json.dumps(cold_envelope(pa), sort_keys=True)


class TestLiveIndexes:
    def test_query_indexes_hold_live_rows_only(self):
        # The label and token indexes are built from the bearing
        # index, which drops retired rows; the graph frees them too.
        pa = open_project(6)
        for _ in seeded_edits(pa, 6, 120, seed=7):
            pass
        for i in (1, 3, 5):
            pa.define(f"f{i}", f"fn[f{i}] x => x")
            pa.define(f"f{i}", f"fn[f{i}] x => (fn[g{i}] w => w) x")
        cfa = pa.cfa()
        program = pa.program

        def live(node):
            expr = node.expr
            return expr is None or (
                expr.nid < program.size and program.node(expr.nid) is expr
            )

        labels = scanned_index(cfa, Lam, lambda expr: expr.label, live)
        assert cfa._label_index() == labels
        assert scanned_index(cfa, Lam, lambda e: e.label) == labels
        assert cfa._token_index() == scanned_index(
            cfa, (Lam, Record, Con, Ref), lambda expr: expr, live
        )
        cold = ProjectAnalysis.cold_cfa(pa.render_source())
        for entry in pa.defs:
            assert pa.query_name(entry.name)["labels"] == sorted(
                cold.labels_of_var(entry.fresh)
            )


def cold_lint(pa):
    rendered = pa.render_source()
    return _lint_section(parse(rendered), ProjectAnalysis.cold_cfa(rendered))


class TestChainEdits:
    """Edits at the head and in the middle renumber what follows them;
    labels, lines and every error stay a cold parse's."""

    def test_head_and_middle_edits_keep_cold_labels_and_lines(self):
        pa = ProjectAnalysis()
        pa.define("compose", "fn f => fn g => fn x => f (g x)")
        pa.define("inc", "fn[inc] n => n")
        pa.define("grow", "compose inc\n(fn y =>\ny)")
        pa.define("scratch1", "compose grow inc")
        pa.define("scratch2", "fn a => fn b => a")
        for edit in [
            lambda: pa.define(
                "compose", "fn f =>\nfn g => fn x => f (g (g x))"
            ),
            lambda: pa.undefine("scratch1"),
            lambda: pa.define("inc", "fn[inc] n =>\ninc n"),
            lambda: pa.define("compose", "fn f => fn g => fn x => f x"),
            lambda: pa.undefine("scratch2"),
        ]:
            report = edit()
            assert report["mode"] == "delta", report
            check_exact(pa)
            assert json.dumps(pa.lint(), sort_keys=True) == json.dumps(
                cold_lint(pa), sort_keys=True
            )

    def test_giving_up_an_auto_form_label_relabels_later_definitions(self):
        # ``l1`` is taken, so the unlabelled ``fn z`` gets ``l2``; once
        # a same-shape redefinition drops it, a cold parse gives
        # ``fn z`` ``l1``.
        pa = ProjectAnalysis()
        pa.define("b", "fn[l1] a => a")
        pa.define("a", "(b b) (fn[l0] y => fn z => y)")
        assert pa.program.abstraction("l2").param == "z"
        report = pa.define("b", "fn[k1] a => a")
        assert report["mode"] == "splice"
        check_exact(pa)
        assert pa.program.abstraction("l1").param == "z"
        pa.define("b", "fn[l2] a => a")
        check_exact(pa)

    def test_taking_an_auto_form_label_relabels_past_the_next_definition(
        self,
    ):
        # ``w`` loses ``l2`` to ``b``, although ``c`` between them ends
        # on the counter it ended on before.
        pa = ProjectAnalysis()
        pa.define("a", "fn x => x")
        pa.define("b", "fn[k1] y => y")
        pa.define("c", "fn z => z")
        pa.define("d", "fn w => w")
        pa.define("b", "fn[l2] y => y")
        check_exact(pa)
        assert pa.program.labels == ["l0", "l2", "l1", "l3"]

    @pytest.mark.parametrize(
        "name, source, error, match",
        [
            ("a", "fn[k] x => fn[k] y => y", ScopeError, "label 'k'"),
            ("a", "fn[b0] p => p", ScopeError, "label 'b0'"),
            ("a", "(fn[b0] p => p) (fn[a0] q => q)", ScopeError, "'b0'"),
            ("a", "fn[m] p => Cons p", UnknownConstructorError, "'Cons'"),
            ("a", "fn p => later", ScopeError, "unbound variable 'later'"),
            ("a", "a", ScopeError, "letrec requires"),
            ("c", "fn[m] x => fn[m] y => y", ScopeError, "label 'm'"),
            ("c", "fn x => fn y => ghost", ScopeError, "'ghost'"),
            ("c", "fn[n] x => Cons x", UnknownConstructorError, "'Cons'"),
            ("c", "fn[n] x => fn[k] y => ghost", ScopeError, "'ghost'"),
        ],
    )
    def test_a_rejected_define_leaves_the_project_as_it_was(
        self, name, source, error, match
    ):
        pa = ProjectAnalysis()
        pa.define("a", "fn[a0] p => fn[k] q => q")
        pa.define("later", "fn[b0] q => a q")

        def state():
            return (
                pa.render_source(),
                json.dumps(pa.envelope(), sort_keys=True),
                pa.version,
            )

        before = state()
        with pytest.raises(error, match=match):
            pa.define(name, source)
        assert state() == before
        check_exact(pa)
        # The renamer's pool lost whatever the failed define consumed.
        pa.define("c", "fn x => fn y => y")
        pa.define("a", "fn p => fn x => x")
        check_exact(pa)


def rendered(pairs):
    """``render_source`` of a project holding ``pairs`` (none of them
    recursive)."""
    lines = []
    for name, source in pairs:
        lines += [f"let {name} =", "(", source, ")", "in"]
    return "\n".join(lines + ["()"]) + "\n"


def check_size(pa, report):
    """The warm graph holds exactly a cold analysis's rows and edges."""
    cold = ProjectAnalysis.cold_cfa(pa.render_source())
    assert report["graph"] == {
        "nodes": cold.graph.node_count,
        "edges": cold.graph.edge_count,
    }
    assert pa.engine.factory.node_count == cold.sub.factory.node_count


#: Definitions for the size fuzz: explicit labels (``l<k>`` ones move
#: the auto labels), an untypeable self-application, and uses of other
#: definitions (the last four). Each binder is named after its step,
#: so no edit shifts a later definition's fresh names.
FUZZ_SOURCES = (
    "fn a{k} => a{k}",
    "fn[m{k}] a{k} => fn b{k} => b{k}",
    "fn a{k} => a{k} a{k}",
    "fn[l{j}] a{k} => {ref} a{k}",
    "{ref} {ref}",
    "{ref} ({ref} {ref})",
    "fn a{k} => {ref} ({ref} a{k})",
)

#: A program near its budget: ``d = w (w w)`` is untypeable and holds
#: 2,331 nodes, within 64 per syntax node only while the 24-literal
#: ``p`` pads the program. Minimised from a seeded search over
#: untypeable definitions and padding sizes.
PADDED = [
    ("p", "(" + ", ".join(map(str, range(24))) + ")"),
    ("w", "fn x => x x"),
    ("d", "w (w w)"),
]


#: A program whose first definition alone is over the budget of a
#: program that ends after it (``p`` holds 2,573 of the 4,992 nodes the
#: whole program may): defining it in this order fails at ``p``, so the
#: project reaches it by redefining ``p`` last.
HEAVY_FIRST = [
    ("p", "(fn w => w (w w)) (fn x => x x)"),
    ("pad", "(" + ", ".join(map(str, range(60))) + ")"),
    ("q", "fn y => y"),
]


class TestWarmMatchesCold:
    """The warm graph frees what each edit retires: after every
    mutation it has exactly the rows and edges of a cold analysis, and
    its node budget rejects an edit exactly when a cold analysis of the
    edited program exceeds it."""

    def test_seeded_session_matches_cold_in_size(self):
        pa = open_project(6)
        for report in seeded_edits(pa, 6, 200, seed=22):
            assert report["mode"] != "replay", report
            check_size(pa, report)
            check_exact(pa)

    def test_seeded_fuzz_matches_cold_in_size(self):
        rng = random.Random(24)
        pa = ProjectAnalysis()
        rejected = Counter()
        for k in range(80):
            names = [entry.name for entry in pa.defs]
            verb = rng.choice(["define", "redefine", "undefine", "define"])
            name = rng.choice(names) if names and verb != "define" else f"d{k}"
            edited = {entry.name: entry.source for entry in pa.defs}
            if verb == "undefine" and names:
                source = None
                del edited[name]
            else:
                refs = [other for other in names if other != name]
                source = rng.choice(FUZZ_SOURCES[: None if refs else 3])
                source = source.format(k=k, j=rng.randrange(6), ref="{ref}")
                while "{ref}" in source:
                    source = source.replace("{ref}", rng.choice(refs), 1)
                edited[name] = source
            before = (pa.render_source(), pa.version)
            try:
                if source is None:
                    report = pa.undefine(name)
                else:
                    report = pa.define(name, source)
            except (ScopeError, AnalysisBudgetExceeded) as error:
                rejected[type(error).__name__] += 1
                assert (pa.render_source(), pa.version) == before
                if isinstance(error, AnalysisBudgetExceeded):
                    with pytest.raises(AnalysisBudgetExceeded):
                        ProjectAnalysis.cold_cfa(rendered(edited.items()))
                continue
            assert report["mode"] != "replay", report
            check_size(pa, report)
            check_exact(pa)
        assert rejected["AnalysisBudgetExceeded"] and rejected["ScopeError"]

    def test_sessions_in_one_project_stay_the_size_of_the_program(
        self, calls
    ):
        pa = open_project(6)
        for seed in range(8):
            for report in seeded_edits(pa, 6, 40, seed=seed):
                cold = ProjectAnalysis.cold_cfa(pa.render_source())
                rows = len(pa.engine.graph._succ)
                assert rows <= 2 * cold.graph.node_count, (seed, report)
                nodes = pa.engine.factory.node_count
                assert nodes == cold.sub.factory.node_count
        assert calls["_fresh_state"] == 1
        assert sum(pa.fallbacks.values()) == 0

    @pytest.mark.parametrize(
        "edit",
        [
            lambda pa: pa.undefine("p"),
            lambda pa: pa.define("p", "(0, 1)"),
        ],
        ids=["undefine", "shrinking-redefine"],
    )
    def test_a_shrinking_edit_is_checked_against_the_budget_it_lowers(
        self, edit
    ):
        pa = ProjectAnalysis()
        for name, source in PADDED:
            pa.define(name, source)
        before = (pa.render_source(), pa.envelope(), pa.version)
        with pytest.raises(AnalysisBudgetExceeded):
            edit(pa)
        assert (pa.render_source(), pa.envelope(), pa.version) == before
        with pytest.raises(AnalysisBudgetExceeded):
            ProjectAnalysis.cold_cfa(rendered(PADDED[1:]))
        check_exact(pa)

    def test_a_define_over_budget_leaves_the_project_as_it_was(self):
        pa = ProjectAnalysis()
        for name, source in PADDED[1:2]:
            pa.define(name, source)
        before = (pa.render_source(), pa.envelope(), pa.version)
        with pytest.raises(AnalysisBudgetExceeded):
            pa.define(*PADDED[2])
        assert (pa.render_source(), pa.envelope(), pa.version) == before
        with pytest.raises(AnalysisBudgetExceeded):
            ProjectAnalysis.cold_cfa(rendered(PADDED[1:]))
        check_exact(pa)

    def test_a_replay_holds_the_whole_program_budget(self):
        pa = ProjectAnalysis()
        for name, source in [("p", "fn x => x"), *HEAVY_FIRST[1:]]:
            pa.define(name, source)
        assert pa.define(*HEAVY_FIRST[0])["mode"] == "delta"
        with pytest.raises(AnalysisBudgetExceeded):
            ProjectAnalysis.cold_cfa(rendered(HEAVY_FIRST[:1]))
        # Rejected: the restoring replay rebuilds ``p`` first.
        before = (pa.render_source(), pa.envelope(), pa.version)
        with pytest.raises(AnalysisBudgetExceeded):
            pa.define(
                "q",
                "((fn w => w (w w)) (fn x => x x),"
                " (fn v => v (v v)) (fn y => y y))",
            )
        assert (pa.render_source(), pa.envelope(), pa.version) == before
        # Accepted: a rename-shift replay of a program that fits.
        report = pa.define("p", "(fn w => w (w w)) (fn y => y y)")
        assert report["delta_fallback_reason"] == "rename-shift"
        assert pa.version == before[2] + 1
        check_size(pa, report)
        assert pa.envelope() == cold_envelope(pa)
        assert pa.sanitize()["ok"]

    def test_an_evicted_project_rehydrates_in_one_replay(self):
        # Defining ``HEAVY_FIRST`` in order fails at ``p``, so the
        # rehydration must replay under the whole program's budget.
        registry = ProjectRegistry(capacity=1)
        pa = registry.get("a").analysis
        for name, source in [("p", "fn x => x"), *HEAVY_FIRST[1:]]:
            pa.define(name, source)
        pa.define(*HEAVY_FIRST[0])
        before = (pa.render_source(), pa.envelope(), pa.lint())
        registry.get("b")
        back = registry.get("a").analysis
        assert back is not pa and back.version == 1
        assert (back.render_source(), back.envelope(), back.lint()) == before
        assert registry.project_names() == ["a", "b"]
        assert back.sanitize()["ok"]
