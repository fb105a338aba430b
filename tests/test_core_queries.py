"""Tests for the reachability query layer (Algorithms 1-2 etc.)."""

from pathlib import Path

import pytest

from repro.core.datatypes import make_congruence
from repro.core.lc import build_subtransitive_graph
from repro.core.queries import SubtransitiveCFA, analyze_subtransitive
from repro.cfa.standard import analyze_standard
from repro.errors import (
    AnalysisBudgetExceeded,
    QueryError,
    ScopeError,
    TypeInferenceError,
)
from repro.lang import parse
from repro.lang.ast import Con, Lam, Record, Ref
from repro.types.infer import infer_types

from tests.helpers import scanned_index

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.lam")
)

DT = "datatype intlist = Nil | Cons of int * intlist;\n"


def both(src):
    prog = parse(src)
    return prog, analyze_subtransitive(prog), analyze_standard(prog)


class TestAlgorithm1:
    def test_membership_positive(self):
        prog, sub, _ = both("(fn[f] x => x) (fn[g] y => y)")
        assert sub.is_label_in("g", prog.root)

    def test_membership_negative(self):
        prog, sub, _ = both("(fn[f] x => x) (fn[g] y => y)")
        assert not sub.is_label_in("f", prog.root)

    def test_unknown_label_raises(self):
        prog, sub, _ = both("fn[f] x => x")
        with pytest.raises(ScopeError):
            sub.is_label_in("nope", prog.root)


class TestAlgorithm2:
    def test_labels_of_matches_standard(self):
        prog, sub, std = both(
            "let id = fn[id] x => x in (id id) (fn[k] z => z)"
        )
        for node in prog.nodes:
            assert sub.labels_of(node) == std.labels_of(node)

    def test_labels_of_var(self):
        prog, sub, _ = both("(fn[f] x => x) (fn[g] y => y)")
        assert sub.labels_of_var("x") == {"g"}

    def test_tokens_include_records(self):
        prog, sub, _ = both("let p = (1, 2) in p")
        assert len(sub.records_of(prog.root)) == 1

    def test_tokens_include_constructors(self):
        prog, sub, _ = both(DT + "let l = Cons(1, Nil) in l")
        cons = sub.constructors_of(prog.root)
        assert {c.cname for c in cons} >= {"Cons"}


class TestReverseQuery:
    def test_expressions_with_label_matches_standard(self):
        prog, sub, std = both("(fn[f] x => x x) (fn[g] y => y)")
        for label in prog.labels:
            ours = {e.nid for e in sub.expressions_with_label(label)}
            theirs = {e.nid for e in std.expressions_with_label(label)}
            assert ours == theirs, label

    def test_unknown_label(self):
        prog, sub, _ = both("fn[f] x => x")
        with pytest.raises(ScopeError):
            sub.expressions_with_label("ghost")


class TestAllLabelSets:
    def test_matches_standard_pointwise(self):
        prog, sub, std = both(
            "let c = ref (fn[a] x => x) in "
            "let u = c := (fn[b] y => y) in (!c) 1"
        )
        assert sub.all_label_sets() == std.all_label_sets()

    def test_call_graph_matches(self):
        prog, sub, std = both(
            "let h = fn[h] f => f 1 in h (fn[inc] x => x + 1)"
        )
        assert sub.call_graph() == std.call_graph()


class TestErrors:
    def test_foreign_expression_rejected(self):
        prog, sub, _ = both("fn[f] x => x")
        other = parse("fn[g] y => y")
        with pytest.raises(QueryError):
            sub.labels_of(other.root)

    def test_stats_exposed(self):
        prog, sub, _ = both("fn[f] x => x")
        assert sub.stats.build_nodes > 0


class TestBearingIndexes:
    """The label and token indexes behind ``labels_of``/``tokens_at``
    read the factory's bearing index; on a cold graph they equal a scan
    of every graph row."""

    @pytest.mark.parametrize(
        "congruence", [None, "exact", "type", "base-and-type"]
    )
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
    def test_indexes_equal_a_scan_of_every_row(self, path, congruence):
        program = parse(path.read_text())
        try:
            inference = infer_types(program)
        except TypeInferenceError:
            inference = None
        chosen = make_congruence(congruence) if congruence else None
        if inference is None and (
            program.datatypes or (chosen and chosen.requires_types)
        ):
            pytest.skip("untypeable: no typed congruence")
        try:
            sub = build_subtransitive_graph(
                program, congruence=chosen, inference=inference
            )
        except AnalysisBudgetExceeded:
            pytest.skip("over budget")
        cfa = SubtransitiveCFA(sub)
        assert cfa._label_index() == scanned_index(
            cfa, Lam, lambda expr: expr.label
        )
        assert cfa._token_index() == scanned_index(
            cfa, (Lam, Record, Con, Ref), lambda expr: expr
        )
