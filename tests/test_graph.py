"""Tests for the graph substrate (digraph, reachability, SCC, closure,
union-find), including cross-checks against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    Digraph,
    UnionFind,
    condensation,
    reachable_from,
    reachable_to,
    reaches,
    strongly_connected_components,
    transitive_closure,
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    max_size=60,
)


def build(edges):
    g = Digraph()
    g.add_edges(edges)
    return g


class TestDigraph:
    def test_empty(self):
        g = Digraph()
        assert len(g) == 0
        assert g.edge_count == 0

    def test_add_edge_returns_new_flag(self):
        g = Digraph()
        assert g.add_edge(1, 2) is True
        assert g.add_edge(1, 2) is False
        assert g.edge_count == 1

    def test_add_node_idempotent(self):
        g = Digraph()
        g.add_node("a")
        g.add_node("a")
        assert len(g) == 1

    def test_successors_and_predecessors(self):
        g = build([(1, 2), (1, 3), (4, 2)])
        assert g.successors(1) == {2, 3}
        assert g.predecessors(2) == {1, 4}

    def test_unknown_node_has_empty_neighbourhoods(self):
        g = Digraph()
        assert g.successors("ghost") == frozenset()
        assert g.predecessors("ghost") == frozenset()

    def test_degrees(self):
        g = build([(1, 2), (1, 3)])
        assert g.out_degree(1) == 2
        assert g.in_degree(3) == 1

    def test_has_edge(self):
        g = build([(1, 2)])
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_reverse(self):
        g = build([(1, 2), (2, 3)])
        r = g.reverse()
        assert r.has_edge(2, 1) and r.has_edge(3, 2)
        assert r.node_count == g.node_count

    def test_copy_is_independent(self):
        g = build([(1, 2)])
        c = g.copy()
        c.add_edge(2, 3)
        assert not g.has_edge(2, 3)

    def test_edges_iteration(self):
        g = build([(1, 2), (2, 3)])
        assert set(g.edges()) == {(1, 2), (2, 3)}

    def test_contains(self):
        g = build([(1, 2)])
        assert 1 in g and 99 not in g


class TestReachability:
    def test_reachable_from_includes_sources(self):
        g = build([(1, 2)])
        assert reachable_from(g, [1]) == {1, 2}

    def test_reachable_from_multiple_sources(self):
        g = build([(1, 2), (3, 4)])
        assert reachable_from(g, [1, 3]) == {1, 2, 3, 4}

    def test_reachable_respects_direction(self):
        g = build([(1, 2)])
        assert reachable_from(g, [2]) == {2}

    def test_reachable_to(self):
        g = build([(1, 2), (2, 3)])
        assert reachable_to(g, [3]) == {1, 2, 3}

    def test_reaches(self):
        g = build([(1, 2), (2, 3)])
        assert reaches(g, 1, 3)
        assert not reaches(g, 3, 1)
        assert reaches(g, 2, 2)

    def test_custom_follow(self):
        g = build([(1, 2)])
        # following predecessors from 2 finds 1.
        assert reachable_from(g, [2], follow=g.predecessors) == {1, 2}

    @settings(max_examples=50, deadline=None)
    @given(edges=edge_lists, source=st.integers(0, 14))
    def test_matches_networkx(self, edges, source):
        g = build(edges + [(source, source)])
        ng = nx.DiGraph(edges + [(source, source)])
        ours = reachable_from(g, [source])
        theirs = nx.descendants(ng, source) | {source}
        assert ours == theirs


class TestTarjan:
    def test_single_cycle(self):
        g = build([(1, 2), (2, 3), (3, 1)])
        comps = strongly_connected_components(g)
        assert len(comps) == 1
        assert set(comps[0]) == {1, 2, 3}

    def test_dag_has_singletons(self):
        g = build([(1, 2), (2, 3)])
        comps = strongly_connected_components(g)
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_reverse_topological_order(self):
        g = build([(1, 2), (2, 3)])
        comps = strongly_connected_components(g)
        order = [c[0] for c in comps]
        # sinks first
        assert order.index(3) < order.index(1)

    def test_condensation(self):
        g = build([(1, 2), (2, 1), (2, 3)])
        dag, component_of = condensation(g)
        assert component_of[1] == component_of[2]
        assert component_of[3] != component_of[1]
        assert dag.edge_count == 1

    @settings(max_examples=50, deadline=None)
    @given(edges=edge_lists)
    def test_matches_networkx(self, edges):
        g = build(edges)
        ng = nx.DiGraph(edges)
        ng.add_nodes_from(g.nodes())
        ours = {frozenset(c) for c in strongly_connected_components(g)}
        theirs = {
            frozenset(c)
            for c in nx.strongly_connected_components(ng)
        }
        assert ours == theirs


class TestTransitiveClosure:
    def test_chain(self):
        g = build([(1, 2), (2, 3)])
        tc = transitive_closure(g)
        assert tc.has_edge(1, 3)
        assert not tc.has_edge(1, 1)

    def test_cycle_members_reach_themselves(self):
        g = build([(1, 2), (2, 1)])
        tc = transitive_closure(g)
        assert tc.has_edge(1, 1)
        assert tc.has_edge(2, 2)

    def test_self_loop(self):
        g = build([(1, 1)])
        tc = transitive_closure(g)
        assert tc.has_edge(1, 1)

    def test_reflexive_mode(self):
        g = build([(1, 2)])
        tc = transitive_closure(g, reflexive=True)
        assert tc.has_edge(1, 1) and tc.has_edge(2, 2)

    @settings(max_examples=50, deadline=None)
    @given(edges=edge_lists)
    def test_matches_networkx(self, edges):
        g = build(edges)
        ng = nx.DiGraph(edges)
        ng.add_nodes_from(g.nodes())
        ours = set(transitive_closure(g).edges())
        theirs = set(nx.transitive_closure(ng).edges())
        assert ours == theirs


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind()
        assert not uf.same(1, 2)

    def test_union_then_same(self):
        uf = UnionFind()
        uf.union(1, 2)
        assert uf.same(1, 2)

    def test_transitive_union(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.same(1, 3)

    def test_union_count_ignores_redundant(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 1)
        assert uf.union_count == 1

    def test_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.find("c")
        groups = uf.groups()
        sizes = sorted(len(members) for members in groups.values())
        assert sizes == [1, 2]

    def test_len_counts_registered(self):
        uf = UnionFind()
        uf.find("x")
        uf.union("y", "z")
        assert len(uf) == 3

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30
        )
    )
    def test_equivalence_closure_property(self, pairs):
        uf = UnionFind()
        for a, c in pairs:
            uf.union(a, c)
        # Build the expected equivalence relation with networkx.
        ng = nx.Graph(pairs)
        for a in range(10):
            ng.add_node(a)
        for comp in nx.connected_components(ng):
            comp = list(comp)
            for x in comp[1:]:
                assert uf.same(comp[0], x)


# -- the two graph classes --------------------------------------------------

from repro.graph import CSRDigraph, Interner

BACKENDS = [Digraph, CSRDigraph]


def build_backend(make, edges):
    g = make()
    g.add_edges(edges)
    return g


class TestBackendContract:
    """Behaviours the generic graph and the CSR graph share (one read
    API, so the generic algorithms run on either)."""

    @pytest.mark.parametrize("make", BACKENDS)
    def test_neighbour_views_equal_sets(self, make):
        g = build_backend(make, [(1, 2), (1, 3), (4, 2)])
        assert g.successors(1) == {2, 3}
        assert g.predecessors(2) == {1, 4}
        assert set(g.successors(1) | g.predecessors(2)) == {1, 2, 3, 4}

    @pytest.mark.parametrize("make", BACKENDS)
    def test_neighbour_views_refuse_mutation(self, make):
        g = build_backend(make, [(1, 2)])
        for view in (g.successors(1), g.predecessors(2)):
            with pytest.raises(AttributeError):
                view.add(99)
            with pytest.raises(AttributeError):
                view.discard(2)
        # The attempted mutations changed nothing.
        assert g.successors(1) == {2}
        assert g.predecessors(2) == {1}
        assert g.edge_count == 1

    @pytest.mark.parametrize("make", BACKENDS)
    def test_ghost_neighbourhoods_empty(self, make):
        g = make()
        assert set(g.successors("ghost")) == set()
        assert set(g.predecessors("ghost")) == set()
        assert g.out_degree("ghost") == 0
        assert g.in_degree("ghost") == 0

    @pytest.mark.parametrize("make", BACKENDS)
    def test_add_edge_dedup_flag(self, make):
        g = make()
        assert g.add_edge("a", "b") is True
        assert g.add_edge("a", "b") is False
        assert g.edge_count == 1
        assert g.node_count == 2

    @pytest.mark.parametrize("make", BACKENDS)
    def test_reverse_and_copy(self, make):
        g = build_backend(make, [(1, 2), (2, 3)])
        r = g.reverse()
        assert r.has_edge(2, 1) and r.has_edge(3, 2)
        c = g.copy()
        c.add_edge(3, 4)
        assert not g.has_edge(3, 4)

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists)
    def test_structure_agrees(self, edges):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        assert csr.node_count == obj.node_count
        assert csr.edge_count == obj.edge_count
        assert set(csr.nodes()) == set(obj.nodes())
        assert set(csr.edges()) == set(obj.edges())
        for node in obj.nodes():
            assert csr.successors(node) == obj.successors(node)
            assert csr.predecessors(node) == obj.predecessors(node)


class TestReachesGhostNodes:
    """``reaches`` endpoint semantics: no empty path through a node
    the graph does not contain (regression tests for the ghost-node
    sweep; both backends)."""

    @pytest.mark.parametrize("make", BACKENDS)
    def test_absent_src_never_reaches(self, make):
        g = build_backend(make, [(1, 2)])
        assert not reaches(g, 99, 99)
        assert not reaches(g, 99, 1)

    @pytest.mark.parametrize("make", BACKENDS)
    def test_present_node_reaches_itself(self, make):
        g = build_backend(make, [(1, 2)])
        assert reaches(g, 1, 1)
        assert reaches(g, 2, 2)  # present via an incoming edge only

    @pytest.mark.parametrize("make", BACKENDS)
    def test_present_src_absent_dst(self, make):
        g = build_backend(make, [(1, 2)])
        assert not reaches(g, 1, 99)

    @pytest.mark.parametrize("make", BACKENDS)
    def test_empty_graph(self, make):
        g = make()
        assert not reaches(g, 0, 0)


class TestCSRDigraph:
    """The flat-array graph's own contract: readers walk the live
    adjacency rows, so ``freeze()`` is a no-op and every read sees
    every mutation before it."""

    def test_freeze_is_idempotent(self):
        g = build_backend(CSRDigraph, [(1, 2), (2, 3), (3, 1), (3, 4)])

        def answers():
            edges = list(g.edges())
            return reachable_from(g, [1]), reachable_to(g, [4]), edges

        before = answers()
        assert g.freeze() is g
        assert g.freeze() is g
        assert answers() == before

    def test_mutation_invalidates_frozen_form(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        g.freeze()
        assert reachable_from(g, [1]) == {1, 2}
        g.add_edge(2, 3)
        assert reachable_from(g, [1]) == {1, 2, 3}
        assert reaches(g, 1, 3)
        g.remove_edge(1, 2)
        assert reachable_from(g, [1]) == {1}
        assert reachable_to(g, [3]) == {2, 3}
        assert not reaches(g, 1, 3)

    def test_duplicate_edge_keeps_frozen_form(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        g.freeze()
        assert g.add_edge(1, 2) is False
        assert g.edge_count == 1
        assert list(g.edges()) == [(1, 2)]

    def test_add_node_after_freeze(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        g.freeze()
        g.add_node(99)
        assert reachable_from(g, [99]) == {99}

    def test_views_read_live_adjacency(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        view = g.successors(1)
        g.add_edge(1, 3)
        assert view == {2, 3}

    def test_interner_bijection(self):
        interner = Interner()
        ids = [interner.intern(v) for v in ("a", "b", "a", "c")]
        assert ids == [0, 1, 0, 2]
        assert interner.values == ["a", "b", "c"]
        assert interner.id_of("b") == 1
        assert interner.id_of("zzz") is None
        assert "c" in interner and len(interner) == 3

    def test_reaches_any_accounting(self):
        g = build_backend(CSRDigraph, [(1, 2), (2, 3)])
        hit, visited = g.reaches_any([1], [3])
        assert hit and visited >= 1
        miss, visited = g.reaches_any([3], [1])
        assert not miss and visited >= 1

    def test_reaches_any_stray_endpoints(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        hit, _ = g.reaches_any([99], [99])
        assert hit  # a stray source trivially reaches itself
        miss, _ = g.reaches_any([99], [1])
        assert not miss


class TestBackendReachabilityAgreement:
    """Property: the CSR fast paths compute exactly what the generic
    BFS computes on the object graph."""

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, sources=st.lists(st.integers(0, 16), max_size=4))
    def test_reachable_from_agrees(self, edges, sources):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        assert reachable_from(csr, sources) == reachable_from(obj, sources)

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, targets=st.lists(st.integers(0, 16), max_size=4))
    def test_reachable_to_agrees(self, edges, targets):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        assert reachable_to(csr, targets) == reachable_to(obj, targets)

    @settings(max_examples=60, deadline=None)
    @given(
        edges=edge_lists,
        src=st.integers(0, 16),
        dst=st.integers(0, 16),
    )
    def test_reaches_agrees(self, edges, src, dst):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        assert reaches(csr, src, dst) == reaches(obj, src, dst)

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_lists, sources=st.lists(st.integers(0, 16), max_size=4))
    def test_custom_follow_agrees(self, edges, sources):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        # A custom follow forces the generic BFS on both backends.
        assert reachable_from(
            csr, sources, follow=csr.predecessors
        ) == reachable_from(obj, sources, follow=obj.predecessors)

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_lists)
    def test_tarjan_agrees(self, edges):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        ours = {frozenset(c) for c in strongly_connected_components(csr)}
        theirs = {frozenset(c) for c in strongly_connected_components(obj)}
        assert ours == theirs


class TestRemoveEdge:
    """Edge retraction (the incremental daemon's primitive) on both
    backends: presence flag, count bookkeeping, surviving endpoints,
    and reachability answers matching a from-scratch rebuild."""

    def backends(self):
        from repro.graph import CSRDigraph

        return [Digraph, CSRDigraph]

    def test_remove_present_edge(self):
        for factory in self.backends():
            g = factory()
            g.add_edge(1, 2)
            assert g.remove_edge(1, 2) is True
            assert not g.has_edge(1, 2)
            assert g.edge_count == 0

    def test_remove_absent_edge_is_a_noop(self):
        for factory in self.backends():
            g = factory()
            g.add_edge(1, 2)
            assert g.remove_edge(2, 1) is False
            assert g.remove_edge(3, 4) is False
            assert g.edge_count == 1

    def test_endpoints_survive_isolation(self):
        for factory in self.backends():
            g = factory()
            g.add_edge(1, 2)
            g.remove_edge(1, 2)
            assert 1 in g and 2 in g
            assert list(g.successors(1)) == []
            assert list(g.predecessors(2)) == []

    def test_degrees_and_readd(self):
        for factory in self.backends():
            g = factory()
            g.add_edge(1, 2)
            g.add_edge(3, 2)
            g.remove_edge(1, 2)
            assert g.in_degree(2) == 1
            assert g.out_degree(1) == 0
            # Re-adding a removed edge is a fresh insertion.
            assert g.add_edge(1, 2) is True
            assert g.edge_count == 2

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, removals=edge_lists)
    def test_matches_rebuild_from_surviving_edges(self, edges, removals):
        for factory in self.backends():
            g = factory()
            g.add_edges(edges)
            removed = set()
            for src, dst in removals:
                if g.remove_edge(src, dst):
                    removed.add((src, dst))
            survivors = set(edges) - removed
            assert set(g.edges()) == survivors
            assert g.edge_count == len(survivors)
            fresh = factory()
            fresh.add_edges(survivors)
            for node in list(g.nodes()):
                assert reachable_from(g, [node]) >= reachable_from(
                    fresh, [node]
                )
