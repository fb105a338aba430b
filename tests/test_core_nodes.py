"""Unit tests for the node grammar and factory."""

import pytest

from repro.core.datatypes import TypeCongruence
from repro.core.nodes import (
    NodeFactory,
    op_is_contravariant,
    op_is_covariant,
)
from repro.errors import AnalysisBudgetExceeded
from repro.lang import parse
from repro.types.infer import infer_types


@pytest.fixture()
def factory():
    program = parse("(fn[f] x => x) (fn[g] y => y)")
    return program, NodeFactory(program)


class TestVariance:
    def test_dom_is_contravariant_only(self):
        assert op_is_contravariant(("dom",))
        assert not op_is_covariant(("dom",))

    def test_ran_proj_con_are_covariant_only(self):
        for opkey in [("ran",), ("proj", 1), ("con", "Cons", 2)]:
            assert op_is_covariant(opkey)
            assert not op_is_contravariant(opkey)

    def test_cell_is_invariant(self):
        assert op_is_covariant(("cell",))
        assert op_is_contravariant(("cell",))


class TestInterning:
    def test_expr_nodes_interned(self, factory):
        program, fac = factory
        assert fac.expr_node(program.root) is fac.expr_node(program.root)

    def test_var_nodes_interned(self, factory):
        _, fac = factory
        assert fac.var_node("x") is fac.var_node("x")
        assert fac.var_node("x") is not fac.var_node("y")

    def test_context_distinguishes_instances(self, factory):
        program, fac = factory
        plain = fac.expr_node(program.root)
        instanced = fac.expr_node(program.root, context=(5,))
        assert plain is not instanced
        assert instanced.context == (5,)

    def test_op_nodes_interned_via_registration(self, factory):
        program, fac = factory
        base = fac.expr_node(program.root)
        first = fac.op_node(("dom",), base)
        second = fac.op_node(("dom",), base)
        assert first is second
        assert fac.find_op(("dom",), base) is first

    def test_find_op(self, factory):
        program, fac = factory
        base = fac.expr_node(program.root)
        assert fac.find_op(("ran",), base) is None
        made = fac.op_node(("ran",), base)
        assert fac.find_op(("ran",), base) is made

    def test_members_recorded(self, factory):
        program, fac = factory
        base = fac.expr_node(program.root)
        node = fac.op_node(("dom",), base)
        assert (("dom",), base) in fac.members(node)

    def test_joined_members_listed_by_factory(self):
        # Under ≈1 the tail of a list is the list's own class node:
        # the term joins the node it is formed over.
        program = parse(
            "datatype intlist = Nil | Cons of int * intlist;\n"
            "Cons(1, Nil)"
        )
        fac = NodeFactory(
            program,
            congruence=TypeCongruence(),
            inference=infer_types(program),
        )
        cls = fac.expr_node(program.root)
        tail = fac.op_node(("con", "Cons", 2), cls)
        assert tail is cls
        assert fac.find_op(("con", "Cons", 2), cls) is cls
        assert list(fac.members(cls)) == [(("con", "Cons", 2), cls)]

    def test_ops_over_lists_formed_operators(self, factory):
        program, fac = factory
        base = fac.expr_node(program.root)
        dom = fac.op_node(("dom",), base)
        ran = fac.op_node(("ran",), base)
        assert dict(fac.ops_over(base)) == {("dom",): dom, ("ran",): ran}
        assert dict(fac.ops_over(dom)) == {}


class TestUids:
    """The factory is the one allocator of node ids: a graph indexes
    its rows by ``uid``."""

    def test_cold_uids_count_up_in_creation_order(self, factory):
        program, fac = factory
        made = [fac.expr_node(program.root), fac.var_node("x")]
        made.append(fac.op_node(("dom",), made[0]))
        made.append(fac.var_node("y"))
        assert [node.uid for node in made] == [0, 1, 2, 3]
        assert list(fac.nodes) == made and fac.node_count == 4
        assert all(fac.holds(node) for node in made)

    def test_release_frees_towers_first_and_reuses_their_uids(self, factory):
        _, fac = factory
        x = fac.var_node("x")
        dom = fac.op_node(("dom",), x)
        ran = fac.op_node(("ran",), dom)
        kept = fac.var_node("y")
        # ``detach`` refuses a node the graph still connects.
        fac.release([x, kept], lambda node: node is not kept)
        assert not any(map(fac.holds, (x, dom, ran)))
        assert list(fac.nodes) == [kept] and not fac.ops_over(x)
        # The last uid released is handed out first.
        again = [fac.var_node(name) for name in "abc"]
        assert [node.uid for node in again] == [x.uid, dom.uid, ran.uid]
        assert fac.var_node("x") not in (x, *again)


class TestDepthAndBudget:
    def test_depth_increments(self, factory):
        program, fac = factory
        base = fac.expr_node(program.root)
        dom = fac.op_node(("dom",), base)
        ran = fac.op_node(("ran",), dom)
        assert base.depth == 0
        assert dom.depth == 1
        assert ran.depth == 2

    def test_decon_resets_depth(self):
        program = parse(
            "datatype intlist = Nil | Cons of int * intlist;\nNil"
        )
        fac = NodeFactory(program)
        base = fac.expr_node(program.root)
        dom = fac.op_node(("dom",), base)
        con = fac.op_node(("con", "Cons", 1), dom)
        assert con.depth == 1

    def test_depth_cap_suppresses(self, factory):
        program, _ = factory
        fac = NodeFactory(program, max_depth=2)
        base = fac.expr_node(program.root)
        d1 = fac.op_node(("dom",), base)
        d2 = fac.op_node(("dom",), d1)
        d3 = fac.op_node(("dom",), d2)
        assert d2 is not None
        assert d3 is None
        assert fac.depth_truncations == 1

    def test_node_budget(self, factory):
        program, _ = factory
        fac = NodeFactory(program, node_budget=2)
        fac.expr_node(program.root)
        fac.var_node("x")
        with pytest.raises(AnalysisBudgetExceeded):
            fac.var_node("y")


class TestDescribe:
    def test_expr_node_uses_label_for_abstractions(self, factory):
        program, fac = factory
        lam = program.abstraction("f")
        assert fac.expr_node(lam).describe() == "f"

    def test_expr_node_uses_nid_otherwise(self, factory):
        program, fac = factory
        assert fac.expr_node(program.root).describe() == "e0"

    def test_operator_rendering(self, factory):
        program, fac = factory
        base = fac.expr_node(program.abstraction("f"))
        dom = fac.op_node(("dom",), base)
        ran_of_dom = fac.op_node(("ran",), dom)
        assert ran_of_dom.describe() == "ran(dom(f))"

    def test_context_rendering(self, factory):
        program, fac = factory
        node = fac.var_node("x", context=(3, 4))
        assert node.describe() == "x@3.4"


class TestOpTypes:
    def test_dom_ran_types_follow_function_type(self):
        program = parse("fn[f] x => x + 1")
        from repro.types.infer import infer_types

        fac = NodeFactory(program, inference=infer_types(program))
        base = fac.expr_node(program.root)
        dom = fac.op_node(("dom",), base)
        ran = fac.op_node(("ran",), base)
        assert str(dom.ty) == "int"
        assert str(ran.ty) == "int"

    def test_con_types_come_from_signature(self):
        program = parse(
            "datatype intlist = Nil | Cons of int * intlist;\nNil"
        )
        fac = NodeFactory(program)
        base = fac.expr_node(program.root)
        head = fac.op_node(("con", "Cons", 1), base)
        tail = fac.op_node(("con", "Cons", 2), base)
        assert str(head.ty) == "int"
        assert str(tail.ty) == "intlist"

    def test_unknown_types_are_none(self, factory):
        program, fac = factory
        base = fac.expr_node(program.root)
        assert fac.op_node(("dom",), base).ty is None
