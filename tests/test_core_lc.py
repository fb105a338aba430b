"""Unit tests for the LC' engine: build edges, demand-driven closure,
statistics, and the paper's Section 3 transitions."""

import pytest

from repro.core.lc import LCEngine, build_subtransitive_graph
from repro.core.nodes import NodeFactory
from repro.errors import AnalysisBudgetExceeded
from repro.lang import parse
from repro.lang.ast import App, Lam


def build(src, **kwargs):
    prog = parse(src)
    return prog, build_subtransitive_graph(prog, **kwargs)


class TestBuildEdges:
    def test_abs1_variable_to_dom(self):
        prog, sub = build("fn[f] x => x")
        lam_node = sub.node_of(prog.root)
        x = sub.node_of_var("x")
        dom = sub.factory.find_op(("dom",), lam_node)
        assert sub.graph.has_edge(x, dom)

    def test_abs2_ran_to_body(self):
        prog, sub = build("fn[f] x => x")
        lam_node = sub.node_of(prog.root)
        ran = sub.factory.find_op(("ran",), lam_node)
        body = sub.node_of(prog.root.body)
        assert sub.graph.has_edge(ran, body)

    def test_app1_dom_to_argument(self):
        prog, sub = build("(fn[f] x => x) (fn[g] y => y)")
        fn_node = sub.node_of(prog.root.fn)
        dom = sub.factory.find_op(("dom",), fn_node)
        arg = sub.node_of(prog.root.arg)
        assert sub.graph.has_edge(dom, arg)

    def test_app2_application_to_ran(self):
        prog, sub = build("(fn[f] x => x) (fn[g] y => y)")
        fn_node = sub.node_of(prog.root.fn)
        ran = sub.factory.find_op(("ran",), fn_node)
        assert sub.graph.has_edge(sub.node_of(prog.root), ran)

    def test_letrec_edges(self):
        prog, sub = build("letrec f = fn[f] x => x in f 1")
        f_var = sub.node_of_var("f")
        bound = sub.node_of(prog.root.bound)
        assert sub.graph.has_edge(f_var, bound)
        assert sub.graph.has_edge(
            sub.node_of(prog.root), sub.node_of(prog.root.body)
        )

    def test_variable_occurrence_edge(self):
        prog, sub = build("let v = fn[f] x => x in v")
        occurrence = prog.root.body
        assert sub.graph.has_edge(
            sub.node_of(occurrence), sub.node_of_var("v")
        )

    def test_rule_application_counts(self):
        prog, sub = build("(fn[f] x => x) (fn[g] y => y)")
        rules = sub.stats.rule_applications
        assert rules["ABS-1"] == 2
        assert rules["ABS-2"] == 2
        assert rules["APP-1"] == 1
        assert rules["APP-2"] == 1


class TestCloseBehaviour:
    def test_paper_reachability(self):
        # The Section 3 LC example: the whole program reaches \z'.z'.
        prog, sub = build("(fn[f] x => x x) (fn[g] y => y)")
        from repro.graph.reachability import reaches

        assert reaches(
            sub.graph,
            sub.node_of(prog.root),
            sub.node_of(prog.abstraction("g")),
        )

    def test_demand_driven_no_spurious_nodes(self):
        # An unused function's dom/ran towers are never explored
        # beyond depth one.
        prog, sub = build("let unused = fn[u] x => x in fn[main] y => y")
        deep = [
            n
            for n in sub.factory.nodes
            if n.kind == "op" and n.depth > 1
        ]
        assert deep == []

    def test_close_phase_counts_separated(self):
        prog, sub = build("(fn[f] x => x x) (fn[g] y => y)")
        stats = sub.stats
        assert stats.build_nodes > 0
        assert stats.close_nodes >= 0
        assert stats.total_nodes == len(sub.factory.nodes)
        assert stats.total_edges == sub.graph.edge_count

    def test_closure_rules_fired(self):
        prog, sub = build("(fn[f] x => x x) (fn[g] y => y)")
        rules = sub.stats.rule_applications
        assert rules["CLOSE-COV"] > 0
        assert rules["CLOSE-CONTRA"] > 0

    def test_demanded_nodes_counted(self):
        prog, sub = build("(fn[f] x => x) (fn[g] y => y)")
        assert sub.stats.demanded_nodes > 0


class TestBudget:
    def test_untyped_self_application_trips_budget(self):
        prog = parse("(fn[w] x => x x) (fn[w2] y => y y)")
        with pytest.raises(AnalysisBudgetExceeded):
            build_subtransitive_graph(prog, node_budget=200)

    def test_budget_error_carries_numbers(self):
        prog = parse("(fn[w] x => x x) (fn[w2] y => y y)")
        with pytest.raises(AnalysisBudgetExceeded) as excinfo:
            build_subtransitive_graph(prog, node_budget=100)
        assert excinfo.value.budget == 100
        assert excinfo.value.used > 100

    def test_generous_budget_suffices_for_typed_programs(self):
        prog = parse("(fn[f] x => x x) (fn[g] y => y)")
        sub = build_subtransitive_graph(prog, node_budget=10_000)
        assert sub.stats.total_nodes < 100


class TestLinearityOnCubicFamily:
    def test_nodes_and_edges_grow_linearly(self):
        from repro.workloads.cubic import make_cubic_program

        sizes = {}
        for n in (10, 20, 40):
            sub = build_subtransitive_graph(make_cubic_program(n))
            sizes[n] = (sub.stats.total_nodes, sub.stats.total_edges)
        # Doubling n roughly doubles nodes and edges (ratio < 2.5).
        for small, large in ((10, 20), (20, 40)):
            for i in range(2):
                ratio = sizes[large][i] / sizes[small][i]
                assert 1.5 < ratio < 2.5, (small, large, sizes)

    def test_close_constant_is_small(self):
        # The paper: close-phase nodes are "typically no more than"
        # the build-phase nodes.
        from repro.workloads.cubic import make_cubic_program

        sub = build_subtransitive_graph(make_cubic_program(30))
        assert sub.stats.close_nodes <= 2 * sub.stats.build_nodes
