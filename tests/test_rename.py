"""Tests for alpha-renaming and scope checking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScopeError
from repro.lang import builders as b
from repro.lang import parse_expr
from repro.lang.ast import Lam, Let, Var
from repro.lang.compare import ast_equal
from repro.lang.rename import (
    alpha_rename,
    bound_variables,
    check_scopes,
    free_variables,
    fresh_name,
)
from repro.workloads.generators import random_typed_program


def binder_names(expr):
    names = []
    for node in expr.walk():
        if isinstance(node, Lam):
            names.append(node.param)
        elif isinstance(node, Let):
            names.append(node.name)
    return names


class TestAlphaRename:
    def test_distinct_binders_after_rename(self):
        expr = parse_expr("(fn x => x) ((fn x => x) (fn x => x))")
        renamed = alpha_rename(expr)
        names = binder_names(renamed)
        assert len(names) == len(set(names))

    def test_first_occurrence_keeps_its_name(self):
        expr = parse_expr("fn x => fn x => x")
        renamed = alpha_rename(expr)
        assert renamed.param == "x"
        assert renamed.body.param == "x_1"

    def test_inner_shadowing_rebinds_occurrences(self):
        expr = parse_expr("fn x => fn x => x")
        renamed = alpha_rename(expr)
        assert renamed.body.body.name == renamed.body.param

    def test_outer_occurrence_unaffected_by_shadow(self):
        expr = parse_expr("fn x => (fn x => x) x")
        renamed = alpha_rename(expr)
        outer_param = renamed.param
        application = renamed.body
        assert application.arg.name == outer_param
        assert application.fn.body.name == application.fn.param

    def test_labels_preserved(self):
        expr = parse_expr("fn[keep] x => x")
        assert alpha_rename(expr).label == "keep"

    def test_structure_preserved_up_to_names(self):
        expr = parse_expr("let f = fn x => x in f (fn y => y)")
        renamed = alpha_rename(expr)
        # No shadowing here, so names are unchanged entirely.
        assert ast_equal(expr, renamed)

    def test_unbound_variable_rejected(self):
        with pytest.raises(ScopeError):
            alpha_rename(b.var("free"))

    def test_letrec_binder_visible_in_bound(self):
        expr = parse_expr("letrec f = fn x => f x in f")
        renamed = alpha_rename(expr)
        assert renamed.bound.body.fn.name == renamed.name

    def test_case_params_renamed_apart(self):
        from repro.lang.parser import parse

        prog_src = (
            "datatype intlist = Nil | Cons of int * intlist;\n"
            "case Nil of Cons(h, t) => case Nil of Cons(h, t) => h "
            "| Nil => 0 end | Nil => 1 end"
        )
        prog = parse(prog_src)  # parse() alpha-renames internally
        names = []
        from repro.lang.ast import Case

        for node in prog.root.walk():
            if isinstance(node, Case):
                for branch in node.branches:
                    names.extend(branch.params)
        assert len(names) == len(set(names))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_rename_idempotent_on_generated(self, seed):
        prog = random_typed_program(seed, fuel=15)
        once = alpha_rename(prog.root)
        twice = alpha_rename(once)
        assert ast_equal(once, twice)


class TestCheckScopes:
    def test_accepts_closed_terms(self):
        check_scopes(parse_expr("fn x => x x"))

    def test_rejects_free_variable(self):
        with pytest.raises(ScopeError):
            check_scopes(parse_expr("fn x => y"))

    def test_let_bound_not_visible_in_its_own_bound(self):
        with pytest.raises(ScopeError):
            check_scopes(b.let("x", b.var("x"), b.lit(1)))

    def test_letrec_bound_visible_in_its_own_bound(self):
        check_scopes(parse_expr("letrec f = fn x => f x in f"))

    def test_case_binds_pattern_variables(self):
        expr = b.case(
            b.con("Nil"), ("Cons", ("h", "t"), b.var("h"))
        )
        check_scopes(expr)

    def test_case_pattern_variables_not_visible_in_scrutinee(self):
        expr = b.case(b.var("h"), ("Cons", ("h", "t"), b.var("h")))
        with pytest.raises(ScopeError):
            check_scopes(expr)


class TestBoundVariables:
    def test_collects_all_binder_kinds(self):
        expr = b.let(
            "a",
            b.lam("p", b.var("p")),
            b.case(b.con("Nil"), ("Cons", ("h", "t"), b.var("h"))),
        )
        assert bound_variables(expr) == {"a", "p", "h", "t"}


def probe_from_one(base, used):
    """The fresh-name rule spelled out: the first of ``base``,
    ``base_1``, ``base_2``, ... not in ``used``, probed from 1."""
    if base not in used:
        used.add(base)
        return base
    counter = 1
    while f"{base}_{counter}" in used:
        counter += 1
    used.add(f"{base}_{counter}")
    return f"{base}_{counter}"


class TestFreshNames:
    def test_same_parameter_chain_counts_up(self):
        n = 2_000
        expr = parse_expr("fn y => " * n + "y")
        names = binder_names(alpha_rename(expr))
        assert names == ["y"] + [f"y_{i}" for i in range(1, n)]

    def test_user_binder_is_skipped_over(self):
        expr = parse_expr("fn y_3 => " + "fn y => " * 5 + "y_3")
        names = binder_names(alpha_rename(expr))
        assert names == ["y_3", "y", "y_1", "y_2", "y_4", "y_5"]

    @settings(max_examples=200, deadline=None)
    @given(
        taken=st.sets(st.sampled_from(["a", "a_1", "a_3", "b_2", "a_1_1"])),
        bases=st.lists(st.sampled_from(["a", "b", "a_1", "b_2"]), max_size=30),
    )
    def test_resumed_counter_equals_probe_from_one(self, taken, bases):
        used, reference = set(taken), set(taken)
        counters = {}
        for base in bases:
            assert fresh_name(base, used, counters) == probe_from_one(
                base, reference
            )
        assert used == reference

    def test_recording_renamer_consumption(self):
        from repro.daemon.delta import _RecordingRenamer

        renamer = _RecordingRenamer({"x", "f_1"})
        env = {"g": "g"}
        renamer.rename(
            parse_expr("let f = fn x => fn x => x in f (fn f => g f)"), env
        )
        assert renamer.consumed == [
            ("x", "x_1"), ("x", "x_2"), ("f", "f"), ("f", "f_2"),
        ]
        assert env == {"g": "g"}


class TestScopeMap:
    def test_caller_env_is_left_alone_on_error(self):
        env = {"g": "g_1"}
        with pytest.raises(ScopeError, match="'free'"):
            alpha_rename(parse_expr("fn x => fn g => x g free"), free=env)
        assert env == {"g": "g_1"}

    def test_shadowing_is_undone_after_the_binder(self):
        renamed = alpha_rename(
            parse_expr("(fn g => g) g"), free={"g": "top"}
        )
        assert renamed.fn.param == "g"
        assert renamed.fn.body.name == "g"
        assert renamed.arg.name == "top"

    def test_first_unbound_variable_is_named(self):
        expr = parse_expr("fn x => (fn y => z) w")
        with pytest.raises(ScopeError, match="'z'"):
            alpha_rename(expr)
        with pytest.raises(ScopeError, match="'z'"):
            check_scopes(expr)

    def test_free_variables_in_first_occurrence_order(self):
        expr = parse_expr("let a = b in fn x => c x a (fn c => c b) d")
        assert list(free_variables(expr)) == ["b", "c", "d"]

    @pytest.mark.parametrize(
        "expr",
        [
            parse_expr("(fn y => y) y"),
            parse_expr("(let y = 1 in y) y"),
            parse_expr("(letrec y = fn x => y x in y) y"),
            b.app(
                b.case(b.con("Nil"), ("Cons", ("y", "t"), b.var("y"))),
                b.var("y"),
            ),
        ],
    )
    def test_binder_scope_ends_with_its_body(self, expr):
        assert list(free_variables(expr)) == ["y"]
        with pytest.raises(ScopeError, match="'y'"):
            check_scopes(expr)

    def test_deep_chain_checks_in_linear_time(self):
        # 20,000 distinct binders: a set copy per binder would be
        # 2 * 10^8 element copies.
        n = 20_000
        expr = parse_expr("".join(f"fn x{i} => " for i in range(n)) + "x0")
        check_scopes(expr)
        assert not free_variables(expr)
