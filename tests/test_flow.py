"""Tests for the repro.flow dataflow framework.

Covers the k-bounded lattice, the shared worklist engine (fuel
accounting, metrics), the fused multi-analysis scheduler, and the
effects analysis (a rule program on the framework) against the
paper's quadratic baseline.
"""

import pytest

from repro.apps.effects import effects_analysis, effects_analysis_baseline
from repro.cfa.standard import analyze_standard
from repro.core.lc import build_subtransitive_graph
from repro.errors import AnalysisBudgetExceeded
from repro.flow import (
    MANY,
    BoundedSetAnalysis,
    EffectsAnalysis,
    FlowContext,
    ReachabilityAnalysis,
    bounded_join,
    bounded_seed,
    run_flow,
    run_fused,
)
from repro.lang import parse
from repro.lang.ast import Con, Deref
from repro.obs import MetricsRegistry

from tests.helpers import SAMPLE_SOURCES


def _context(src, registry=None):
    program = parse(src)
    sub = build_subtransitive_graph(program)
    return program, sub, FlowContext(program, sub, registry=registry)


def _taint(ctx):
    """Backward marks from every dereference node (the F001 sweep)."""
    return ReachabilityAnalysis(
        ctx.factory.nodes_bearing(Deref),
        ctx.graph.predecessors,
        name="taint",
    )


# -- the k-bounded lattice ----------------------------------------------------


class TestLattice:
    def test_seed_within_bound(self):
        assert bounded_seed(["a", "b"], k=2) == frozenset({"a", "b"})

    def test_seed_over_bound_is_many(self):
        assert bounded_seed(["a", "b", "c"], k=2) is MANY

    def test_join_is_union(self):
        joined = bounded_join(
            frozenset({"a"}), frozenset({"b"}), k=2
        )
        assert joined == frozenset({"a", "b"})

    def test_join_over_bound_is_many(self):
        joined = bounded_join(
            frozenset({"a", "b"}), frozenset({"c"}), k=2
        )
        assert joined is MANY

    def test_many_is_absorbing(self):
        assert bounded_join(MANY, frozenset({"a"}), k=5) is MANY
        assert bounded_join(frozenset({"a"}), MANY, k=5) is MANY

    def test_many_is_a_singleton(self):
        assert bounded_join(MANY, MANY, k=1) is MANY


# -- the worklist engine ------------------------------------------------------


class TestRunFlow:
    def test_bounded_set_analysis_rejects_bad_k(self):
        with pytest.raises(ValueError):
            BoundedSetAnalysis({}, k=0, downstream=lambda n: ())

    def test_fuel_exhaustion_raises(self):
        program, sub, ctx = _context("let u = print 1 in 2")
        with pytest.raises(AnalysisBudgetExceeded):
            run_flow(EffectsAnalysis(), ctx, fuel=0)

    def test_default_fuel_is_generous(self):
        program, sub, ctx = _context(SAMPLE_SOURCES["refs"])
        run_flow(EffectsAnalysis(), ctx, fuel=ctx.default_fuel())

    def test_metrics_land_on_registry(self):
        registry = MetricsRegistry()
        program, sub, ctx = _context(
            "let r = ref 1 in let x = !r in print x",
            registry=registry,
        )
        run_flow(_taint(ctx), ctx, fuel=ctx.default_fuel())
        assert registry.counter("flow.steps.taint").value > 0
        assert registry.gauge("flow.fuel.budget.taint").value > 0
        used = registry.gauge("flow.fuel.used.taint").value
        assert 0 < used <= registry.gauge("flow.fuel.budget.taint").value


# -- the fused scheduler ------------------------------------------------------


FUSABLE = ["identity", "let_poly", "records", "datatype_map", "refs"]


class TestRunFused:
    def _analyses(self, ctx, sub):
        """The five shapes a lint run fuses: backward and forward
        reachability, backward taint, a seeds-only mark set and a
        k-bounded constructor-name propagation."""
        graph = sub.graph
        constructors = {}
        for node in ctx.factory.nodes_bearing(Con):
            names = {
                expr.cname
                for expr in [node.expr] + node.absorbed
                if isinstance(expr, Con)
            }
            constructors[node] = frozenset(names)
        return [
            ReachabilityAnalysis(
                ctx.lambda_value_nodes,
                graph.predecessors,
                name="reach-lambda",
            ),
            ReachabilityAnalysis(
                [node for _, node in ctx.sink_arg_nodes],
                graph.successors,
                name="escape",
            ),
            _taint(ctx),
            ReachabilityAnalysis(
                [
                    node
                    for node in ctx.factory.var_nodes
                    if graph.in_degree(node) > 0
                ],
                lambda item: (),
                name="needness",
            ),
            BoundedSetAnalysis(
                constructors, 2, graph.predecessors, name="constructors"
            ),
        ]

    @pytest.mark.parametrize("name", FUSABLE)
    def test_fused_equals_separate(self, name):
        src = SAMPLE_SOURCES[name]
        program, sub, ctx = _context(src)
        fused = run_fused(
            self._analyses(ctx, sub), ctx, fuel=ctx.default_fuel()
        )
        # A fresh context per separate run: analyses must not rely on
        # state the fused run happened to leave behind.
        for i, result in enumerate(fused):
            program2, sub2, ctx2 = _context(src)
            alone = run_flow(
                self._analyses(ctx2, sub2)[i],
                ctx2,
                fuel=ctx2.default_fuel(),
            )
            if isinstance(result, dict):
                assert {
                    n.describe(): v for n, v in result.items()
                } == {n.describe(): v for n, v in alone.items()}
            else:
                assert {n.describe() for n in result} == {
                    n.describe() for n in alone
                }

    def test_fused_metrics(self):
        registry = MetricsRegistry()
        program, sub, ctx = _context(
            SAMPLE_SOURCES["records"], registry=registry
        )
        run_fused(
            self._analyses(ctx, sub), ctx, fuel=ctx.default_fuel()
        )
        assert registry.counter("flow.steps.fused").value > 0
        assert registry.gauge("flow.fused.analyses").value == 5


# -- golden equivalence of the refactored apps --------------------------------


class TestAppsEquivalence:
    @pytest.mark.parametrize("name", sorted(SAMPLE_SOURCES))
    def test_effects_on_framework_matches_baseline(self, name):
        program = parse(SAMPLE_SOURCES[name])
        linear = effects_analysis(program)
        baseline = effects_analysis_baseline(
            program, analyze_standard(program)
        )
        assert linear.red_nids == baseline.red_nids, name

    def test_effects_marks_via_framework_engine(self):
        registry = MetricsRegistry()
        program = parse("let u = print 1 in 2")
        sub = build_subtransitive_graph(program, registry=registry)
        effects_analysis(program, sub=sub)
        # The app-effects program's red sweep runs on the fused
        # scheduler.
        assert registry.counter("flow.steps.fused").value > 0
