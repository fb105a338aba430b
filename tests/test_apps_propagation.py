"""Tests for bounded-set propagation (the Section 9 machinery): the
k-bounded lattice of :class:`~repro.flow.analyses.BoundedSetAnalysis`
on the shared worklist engine, over plain digraphs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flow import MANY, BoundedSetAnalysis, FlowContext, run_flow
from repro.graph.digraph import Digraph


def propagate_sets(seeds, k, downstream):
    return run_flow(BoundedSetAnalysis(seeds, k, downstream), FlowContext())


def run(edges, seeds, k, direction="backward"):
    g = Digraph()
    g.add_edges(edges)
    for node in seeds:
        g.add_node(node)
    downstream = g.predecessors if direction == "backward" else g.successors
    return propagate_sets(
        {node: frozenset(tokens) for node, tokens in seeds.items()},
        k,
        downstream=downstream,
    )


class TestBasics:
    def test_seed_stays(self):
        values = run([], {"a": {"t"}}, k=1)
        assert values["a"] == {"t"}

    def test_backward_propagation_along_edge(self):
        # edge a -> b; seed at b; a sees it (k-limited CFA direction).
        values = run([("a", "b")], {"b": {"t"}}, k=1)
        assert values["a"] == {"t"}

    def test_forward_propagation(self):
        values = run([("a", "b")], {"a": {"s"}}, k=1, direction="forward")
        assert values["b"] == {"s"}

    def test_join_of_two_sources(self):
        edges = [("a", "b"), ("a", "c")]
        values = run(edges, {"b": {"x"}, "c": {"y"}}, k=2)
        assert values["a"] == {"x", "y"}

    def test_join_exceeding_k_is_many(self):
        edges = [("a", "b"), ("a", "c")]
        values = run(edges, {"b": {"x"}, "c": {"y"}}, k=1)
        assert values["a"] is MANY

    def test_many_is_absorbing(self):
        edges = [("a", "b"), ("b", "c"), ("b", "d")]
        values = run(edges, {"c": {"x"}, "d": {"y"}}, k=1)
        assert values["b"] is MANY
        assert values["a"] is MANY

    def test_oversized_seed_is_many(self):
        values = run([], {"a": {"x", "y", "z"}}, k=2)
        assert values["a"] is MANY

    def test_unreachable_nodes_absent(self):
        values = run([("a", "b")], {"a": {"t"}}, k=1)
        assert "b" not in values  # backward: b gets nothing

    def test_cycle_terminates(self):
        edges = [("a", "b"), ("b", "a")]
        values = run(edges, {"a": {"t"}}, k=1)
        assert values["a"] == {"t"}
        assert values["b"] == {"t"}

    def test_cycle_with_many(self):
        edges = [("a", "b"), ("b", "a"), ("a", "c"), ("b", "d")]
        values = run(edges, {"c": {"x"}, "d": {"y"}}, k=1)
        assert values["a"] is MANY
        assert values["b"] is MANY

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            run([], {"a": {"t"}}, k=0)

    def test_empty_seed_ignored(self):
        values = run([("a", "b")], {"b": set()}, k=1)
        assert values == {}


class TestFixpointProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30
        ),
        seeds=st.dictionaries(
            st.integers(0, 8),
            st.sets(st.integers(0, 5), max_size=3),
            max_size=4,
        ),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_matches_exhaustive_reachability(self, edges, seeds, k):
        """The k-bounded answer equals the exact reachability-union
        answer, truncated at k."""
        g = Digraph()
        g.add_edges(edges)
        for node in range(9):
            g.add_node(node)
        values = propagate_sets(
            {n: frozenset(s) for n, s in seeds.items()},
            k,
            downstream=g.predecessors,
        )
        from repro.graph.reachability import reachable_from

        for node in g.nodes():
            exact = set()
            for reached in reachable_from(g, [node]):
                exact |= seeds.get(reached, set())
            got = values.get(node, frozenset())
            if len(exact) > k:
                assert got is MANY
            else:
                assert got == frozenset(exact)
