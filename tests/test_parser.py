"""Unit tests for the mini-ML parser."""

import pytest

from repro.errors import ParseError
from repro.lang import parse, parse_expr
from repro.lang.parser import MAX_NESTING
from repro.lang.ast import (
    App,
    Assign,
    Case,
    Con,
    Deref,
    If,
    Lam,
    Let,
    Letrec,
    Lit,
    Prim,
    Proj,
    Record,
    Ref,
    Var,
)
from repro.types.types import INT, TData, TFun, TRecord, TRef


class TestAtoms:
    def test_variable(self):
        assert isinstance(parse_expr("x"), Var)

    def test_integer_literal(self):
        expr = parse_expr("42")
        assert isinstance(expr, Lit) and expr.value == 42

    def test_booleans(self):
        assert parse_expr("true").value is True
        assert parse_expr("false").value is False

    def test_unit(self):
        assert parse_expr("()").value is None

    def test_parenthesised_expression(self):
        expr = parse_expr("(x)")
        assert isinstance(expr, Var)

    def test_record_of_two(self):
        expr = parse_expr("(x, y)")
        assert isinstance(expr, Record) and expr.arity == 2

    def test_record_of_three(self):
        assert parse_expr("(1, 2, 3)").arity == 3


class TestLambdaAndApplication:
    def test_fn(self):
        expr = parse_expr("fn x => x")
        assert isinstance(expr, Lam) and expr.param == "x"
        assert expr.label is None

    def test_fn_with_label(self):
        expr = parse_expr("fn[mylab] x => x")
        assert expr.label == "mylab"

    def test_fn_body_extends_right(self):
        expr = parse_expr("fn x => x x")
        assert isinstance(expr.body, App)

    def test_application_left_associative(self):
        expr = parse_expr("f g h")
        assert isinstance(expr, App)
        assert isinstance(expr.fn, App)
        assert expr.fn.fn.name == "f"
        assert expr.arg.name == "h"

    def test_application_binds_tighter_than_plus(self):
        expr = parse_expr("f x + g y")
        assert isinstance(expr, Prim) and expr.name == "add"
        assert isinstance(expr.args[0], App)
        assert isinstance(expr.args[1], App)


class TestBindingForms:
    def test_let(self):
        expr = parse_expr("let x = 1 in x")
        assert isinstance(expr, Let)
        assert expr.name == "x"

    def test_let_nests(self):
        expr = parse_expr("let x = 1 in let y = 2 in x + y")
        assert isinstance(expr.body, Let)

    def test_letrec_requires_lambda(self):
        with pytest.raises(ParseError):
            parse_expr("letrec f = 1 in f")

    def test_letrec(self):
        expr = parse_expr("letrec f = fn x => f x in f")
        assert isinstance(expr, Letrec)
        assert isinstance(expr.bound, Lam)

    def test_if(self):
        expr = parse_expr("if true then 1 else 2")
        assert isinstance(expr, If)


class TestOperators:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.name == "add"
        assert expr.args[1].name == "mul"

    def test_add_left_associative(self):
        expr = parse_expr("1 - 2 - 3")
        assert expr.name == "sub"
        assert expr.args[0].name == "sub"

    def test_comparison(self):
        for src, prim in [("1 < 2", "less"), ("1 <= 2", "leq"),
                          ("1 == 2", "eq")]:
            expr = parse_expr(src)
            assert isinstance(expr, Prim) and expr.name == prim

    def test_comparison_binds_loosest_and_does_not_chain(self):
        expr = parse_expr("1 + 2 * 3 < 4 - 5")
        assert expr.name == "less"
        assert [arg.name for arg in expr.args] == ["add", "sub"]
        with pytest.raises(ParseError) as excinfo:
            parse_expr("1 < 2 + 3 == 4")
        assert str(excinfo.value) == (
            "1:11: expected 'EOF', found '==' ('==')"
        )

    def test_prefix_not(self):
        expr = parse_expr("not true")
        assert isinstance(expr, Prim) and expr.name == "not"

    def test_print_is_prim(self):
        expr = parse_expr("print 3")
        assert isinstance(expr, Prim) and expr.name == "print"

    def test_print_argument_is_prefix_tight(self):
        # print f x parses as (print f) x
        expr = parse_expr("print f x")
        assert isinstance(expr, App)
        assert isinstance(expr.fn, Prim)


class TestRefsAndRecords:
    def test_ref(self):
        assert isinstance(parse_expr("ref 1"), Ref)

    def test_deref(self):
        assert isinstance(parse_expr("!c"), Deref)

    def test_assign_lowest_precedence(self):
        expr = parse_expr("c := 1 + 2")
        assert isinstance(expr, Assign)
        assert isinstance(expr.value, Prim)

    def test_assign_right_associative(self):
        expr = parse_expr("a := b := 1")
        assert isinstance(expr.value, Assign)

    def test_projection(self):
        expr = parse_expr("#2 p")
        assert isinstance(expr, Proj) and expr.index == 2

    def test_projection_of_application_needs_parens(self):
        expr = parse_expr("#1 (f x)")
        assert isinstance(expr, Proj)
        assert isinstance(expr.expr, App)


DTDECL = "datatype intlist = Nil | Cons of int * intlist;\n"


class TestDatatypes:
    def test_datatype_declaration(self):
        prog = parse(DTDECL + "Nil")
        decl = prog.datatypes["intlist"]
        assert decl.constructors["Nil"] == ()
        assert decl.constructors["Cons"] == (INT, TData("intlist"))

    def test_constructor_application(self):
        prog = parse(DTDECL + "Cons(1, Nil)")
        assert isinstance(prog.root, Con)
        assert prog.root.cname == "Cons"

    def test_case_expression(self):
        prog = parse(
            DTDECL
            + "case Cons(1, Nil) of Nil => 0 | Cons(h, t) => h end"
        )
        assert isinstance(prog.root, Case)
        assert len(prog.root.branches) == 2

    def test_case_leading_bar_allowed(self):
        prog = parse(
            DTDECL + "case Nil of | Nil => 0 | Cons(h, t) => h end"
        )
        assert len(prog.root.branches) == 2

    def test_nested_case(self):
        prog = parse(
            DTDECL
            + "case Nil of Nil => case Nil of Nil => 1 "
            + "| Cons(a, b) => 2 end | Cons(h, t) => 3 end"
        )
        assert len(prog.root.branches) == 2

    def test_datatype_with_function_type_argument(self):
        prog = parse(
            "datatype fnlist = FNil | FCons of (int -> int) * fnlist;\n"
            "FCons(fn x => x, FNil)"
        )
        decl = prog.datatypes["fnlist"]
        assert decl.constructors["FCons"][0] == TFun(INT, INT)

    def test_datatype_with_record_and_ref_types(self):
        prog = parse(
            "datatype box = Box of (int, int) * int ref;\nBox((1, 2), ref 3)"
        )
        cons = prog.datatypes["box"].constructors["Box"]
        assert cons[0] == TRecord((INT, INT))
        assert cons[1] == TRef(INT)


class TestErrors:
    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x )")

    def test_missing_in(self):
        with pytest.raises(ParseError):
            parse_expr("let x = 1 x")

    def test_case_without_end(self):
        with pytest.raises(ParseError):
            parse(DTDECL + "case Nil of Nil => 0")

    def test_duplicate_constructor_in_decl(self):
        with pytest.raises(ParseError):
            parse("datatype t = A | A;\nA")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("")

    def test_error_has_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_expr("let x = in x")
        assert excinfo.value.line == 1


def _nested(depth: int) -> str:
    return "(" * depth + "1" + ")" * depth + "\n"


class TestNestingLimit:
    """Brackets nest at most MAX_NESTING deep, and every entry point
    that accepts the limit also gets through the rest of the stack;
    one level more is a parse error at the offending bracket."""

    LIMIT_MESSAGE = f"brackets nested deeper than {MAX_NESTING} levels"

    def test_at_limit_parses(self):
        assert parse(_nested(MAX_NESTING)).size == 1

    def test_past_limit_names_the_limit_at_the_bracket(self):
        with pytest.raises(ParseError) as error:
            parse(_nested(MAX_NESTING + 1))
        assert self.LIMIT_MESSAGE in str(error.value)
        assert str(error.value).startswith(f"1:{MAX_NESTING + 1}:")

    def test_type_brackets_share_the_limit(self):
        deep = "(" * (MAX_NESTING + 1) + "int" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as error:
            parse(f"datatype t = C of {deep}; 1")
        assert self.LIMIT_MESSAGE in str(error.value)

    @pytest.mark.parametrize("command", ["analyze", "lint", "batch"])
    def test_cli_entry_points(self, tmp_path, command, capsys):
        from repro.cli import main

        ok = tmp_path / "ok.lam"
        ok.write_text(_nested(MAX_NESTING))
        deep = tmp_path / "deep.lam"
        deep.write_text(_nested(MAX_NESTING + 1))
        assert main([command, str(ok)]) == 0
        capsys.readouterr()
        assert main([command, str(deep)]) == (2 if command == "lint" else 1)
        out, err = capsys.readouterr()
        assert self.LIMIT_MESSAGE in out + err
        assert "Traceback" not in out + err

    def test_project_define(self):
        from repro.daemon import ProjectAnalysis

        project = ProjectAnalysis()
        project.define("ok", _nested(MAX_NESTING))
        assert project.lint()["engine"] == "subtransitive"
        source = project.render_source()
        with pytest.raises(ParseError) as error:
            project.define("deep", _nested(MAX_NESTING + 1))
        assert self.LIMIT_MESSAGE in str(error.value)
        assert project.render_source() == source
