"""Tests for Hindley-Milner inference over the mini-ML language."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TypeInferenceError
from repro.lang import parse
from repro.lang.ast import Let, Letrec
from repro.types.infer import infer_types
from repro.types.measure import type_size
from repro.types.types import (
    BOOL,
    INT,
    TData,
    TFun,
    TRecord,
    TRef,
    TScheme,
    TVar,
    UNIT,
    prune,
)
from repro.types.unify import unify
from repro.workloads.generators import random_typed_program

DT = "datatype intlist = Nil | Cons of int * intlist;\n"


def type_of(src):
    prog = parse(src)
    return infer_types(prog).type_of(prog.root)


class TestBaseForms:
    def test_int_literal(self):
        assert type_of("42") == INT

    def test_bool_literal(self):
        assert type_of("true") == BOOL

    def test_unit_literal(self):
        assert type_of("()") == UNIT

    def test_identity_function(self):
        ty = type_of("fn x => x + 1")
        assert ty == TFun(INT, INT)

    def test_application(self):
        assert type_of("(fn x => x + 1) 2") == INT

    def test_if_branches_unify(self):
        assert type_of("if true then 1 else 2") == INT

    def test_if_condition_must_be_bool(self):
        with pytest.raises(TypeInferenceError):
            type_of("if 1 then 2 else 3")

    def test_branch_mismatch(self):
        with pytest.raises(TypeInferenceError):
            type_of("if true then 1 else false")

    def test_arith_prims(self):
        assert type_of("1 + 2 * 3 - 4") == INT

    def test_comparison_prims(self):
        assert type_of("1 < 2") == BOOL

    def test_print_is_polymorphic(self):
        assert type_of("print 1") == UNIT
        assert type_of("print (fn x => x + 1)") == UNIT

    def test_self_application_rejected(self):
        with pytest.raises(TypeInferenceError):
            type_of("fn x => x x")

    def test_omega_rejected(self):
        with pytest.raises(TypeInferenceError):
            type_of("(fn x => x x) (fn y => y y)")


class TestLetPolymorphism:
    def test_let_generalises(self):
        # id used at two different types.
        assert type_of("let id = fn x => x in (id (fn y => y)) (id 1)") == INT

    def test_id_id_id(self):
        # The paper's Section 5 example: fun id x = x; (id id) id.
        src = "let id = fn x => x in ((id id) id) 1"
        assert type_of(src) == INT

    def test_lambda_bound_is_monomorphic(self):
        with pytest.raises(TypeInferenceError):
            type_of("(fn f => (f 1, f true)) (fn x => x)")

    def test_instantiations_recorded_per_occurrence(self):
        prog = parse("let id = fn x => x in (id 1, id true)")
        inference = infer_types(prog)
        from repro.lang.ast import Var

        uses = [
            n for n in prog.nodes
            if isinstance(n, Var) and n.name == "id"
        ]
        types = {str(inference.type_of(u)) for u in uses}
        assert types == {"int -> int", "bool -> bool"}

    def test_letrec_monomorphic_inside(self):
        src = (
            "letrec f = fn x => if true then x else f x in (f 1, f 2)"
        )
        assert type_of(src) == TRecord((INT, INT))

    def test_letrec_generalised_for_body(self):
        src = (
            "letrec f = fn x => if true then x else f x "
            "in (f 1, f true)"
        )
        assert type_of(src) == TRecord((INT, BOOL))

    def test_scheme_recorded(self):
        prog = parse("let id = fn x => x in id 1")
        inference = infer_types(prog)
        assert not inference.schemes["id"].is_mono


class TestRecordsRefsData:
    def test_record_type(self):
        assert type_of("(1, true)") == TRecord((INT, BOOL))

    def test_projection(self):
        assert type_of("#2 (1, true)") == BOOL

    def test_projection_out_of_range(self):
        with pytest.raises(TypeInferenceError):
            type_of("#3 (1, true)")

    def test_flex_projection_defaults_to_minimal_record(self):
        # A record constrained only by its projections defaults to the
        # smallest record the indices require.
        from repro.types.types import prune

        ty = type_of("fn p => #2 p")
        assert isinstance(ty, TFun)
        param = prune(ty.param)
        assert isinstance(param, TRecord)
        assert len(param.fields) == 2

    def test_flex_projection_resolved_by_later_use(self):
        ty = type_of("(fn p => #1 p) (1, true)")
        assert ty == INT

    def test_projection_of_non_record(self):
        with pytest.raises(TypeInferenceError):
            type_of("#1 5")

    def test_ref_types(self):
        assert type_of("ref 1") == TRef(INT)
        assert type_of("!(ref 1)") == INT
        assert type_of("(ref 1) := 2") == UNIT

    def test_assign_content_mismatch(self):
        with pytest.raises(TypeInferenceError):
            type_of("(ref 1) := true")

    def test_constructor_types(self):
        assert type_of(DT + "Cons(1, Nil)") == TData("intlist")

    def test_constructor_argument_mismatch(self):
        with pytest.raises(TypeInferenceError):
            type_of(DT + "Cons(true, Nil)")

    def test_case_result(self):
        src = DT + "case Cons(1, Nil) of Nil => 0 | Cons(h, t) => h end"
        assert type_of(src) == INT

    def test_case_branch_mismatch(self):
        src = DT + "case Nil of Nil => 0 | Cons(h, t) => true end"
        with pytest.raises(TypeInferenceError):
            type_of(src)

    def test_case_scrutinee_must_match_datatype(self):
        src = DT + "case 1 of Nil => 0 | Cons(h, t) => h end"
        with pytest.raises(TypeInferenceError):
            type_of(src)

    def test_case_params_typed_from_signature(self):
        prog = parse(
            DT + "case Nil of Nil => 0 | Cons(h, t) => h end"
        )
        inference = infer_types(prog)
        assert inference.type_of_var("h") == INT
        assert inference.type_of_var("t") == TData("intlist")

    def test_mixed_datatype_branches_rejected(self):
        src = (
            "datatype a = A;\ndatatype b = B;\n"
            "case A of A => 1 | B => 2 end"
        )
        with pytest.raises(TypeInferenceError):
            type_of(src)


class TestGeneratedProgramsAreTypeable:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_generator_only_produces_typeable_programs(self, seed):
        prog = random_typed_program(seed, fuel=20)
        inference = infer_types(prog)
        # Every occurrence got an annotation.
        for node in prog.nodes:
            inference.type_of(node)


PRINT_HELPER = (
    "let p = fn[p] x => print x in let a = p 1 in let b = p true in ()"
)


class TestPrintGeneralises:
    """``print``'s argument variable sits at the use's level, so a
    let-bound function that prints its argument is generalised."""

    def test_helper_used_at_int_and_bool(self):
        inference = infer_types(parse(PRINT_HELPER))
        assert not inference.schemes["p"].is_mono

    def test_helper_after_a_datatype(self):
        # Used to fail with "cannot unify int with bool".
        infer_types(parse("datatype nat = Z | S of nat;\n" + PRINT_HELPER))

    def test_later_use_leaves_the_helper_alone(self):
        prog = parse(
            "let p = fn[p] x => print x in let q = p (fn y => y) in ()"
        )
        ty = prune(infer_types(prog).type_of(prog.label_table["p"]))
        assert isinstance(prune(ty.param), TVar)
        assert prune(ty.result) == UNIT


def chain(src):
    """The program and its top-level let/letrec nodes."""
    prog = parse(src)
    nodes, node = [], prog.root
    while isinstance(node, (Let, Letrec)):
        nodes.append(node)
        node = node.body
    return prog, nodes


class TestPerDefinition:
    """``infer_types(program, definition=..., env=...)`` types one
    top-level binding as whole-program inference does."""

    FLEX = "let g = fn[g] r => #1 r in let h = g (1, 2) in ()"

    def test_matches_whole_program_sizes(self):
        prog, (g, h) = chain(self.FLEX)
        first = infer_types(prog, definition=g)
        second = infer_types(
            prog, definition=h, env={g.name: first.schemes[g.name]}
        )
        whole = infer_types(prog)
        for node, part in [(n, first) for n in g.bound.walk()] + [
            (n, second) for n in h.bound.walk()
        ]:
            assert type_size(part.type_of(node)) == type_size(
                whole.type_of(node)
            )
        scheme = second.schemes[h.name]
        assert len(scheme.quantified) == 1
        assert prune(scheme.body) is scheme.quantified[0]

    def test_scheme_is_taken_before_projections_resolve(self):
        # g's resolved scheme ('t) -> 't would reject the pair.
        prog, (g, h) = chain(self.FLEX)
        resolved = infer_types(prog).schemes[g.name]
        with pytest.raises(TypeInferenceError, match="arities differ"):
            infer_types(prog, definition=h, env={g.name: resolved})

    def test_letrec_definition(self):
        prog, (f, u) = chain(
            "letrec f = fn[f] x => if true then x else f x in "
            "let u = f 1 in ()"
        )
        first = infer_types(prog, definition=f)
        assert not first.schemes[f.name].is_mono
        second = infer_types(
            prog, definition=u, env={f.name: first.schemes[f.name]}
        )
        assert prune(second.type_of(u.bound)) == INT

    def test_untypeable_definition_raises(self):
        prog, (w,) = chain("let w = fn x => x x in ()")
        with pytest.raises(TypeInferenceError):
            infer_types(prog, definition=w)


class TestSchemeHelpers:
    def scheme(self, src, name):
        return infer_types(parse(src)).schemes[name]

    def test_copy_is_alpha_equal_and_detached(self):
        scheme = self.scheme("let id = fn x => x in ()", "id")
        copy = scheme.copy()
        assert copy.alpha_equal(scheme) and scheme.alpha_equal(copy)
        unify(scheme.quantified[0], INT)
        assert not copy.alpha_equal(scheme)
        assert copy.is_closed

    def test_alpha_equal_compares_shapes(self):
        first = self.scheme("let k = fn x => fn y => x in ()", "k")
        second = self.scheme("let k = fn x => fn y => y in ()", "k")
        again = self.scheme("let k = fn a => fn b => a in ()", "k")
        assert first.alpha_equal(again)
        assert not first.alpha_equal(second)
        assert not first.alpha_equal(
            self.scheme("let k = fn x => x + 1 in ()", "k")
        )

    def test_closed_only_when_every_variable_is_quantified(self):
        free = TVar()
        assert not TScheme((), TFun(free, UNIT)).is_closed
        assert TScheme((free,), TFun(free, UNIT)).is_closed
        assert TScheme((), INT).is_closed
