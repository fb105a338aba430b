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

from functools import cache

from repro.core.nodes import VAR, Node, NodeFactory
from repro.graph import CSRDigraph
from repro.lang import parse

BACKENDS = [Digraph, CSRDigraph]


@cache
def node(label: int) -> Node:
    """The uid-``label`` node every test below shares: the CSR graph
    indexes its rows by ``uid``, and node equality is identity."""
    return Node(label, VAR)


def nodes(*labels):
    return {node(label) for label in labels}


def pairs(edges):
    return [(node(src), node(dst)) for src, dst in edges]


def build_backend(make, edges):
    g = make()
    g.add_edges(pairs(edges))
    return g


class TestBackendContract:
    """Behaviours the generic graph and the CSR graph share (one read
    API, so the generic algorithms run on either)."""

    @pytest.mark.parametrize("make", BACKENDS)
    def test_neighbour_views_equal_sets(self, make):
        g = build_backend(make, [(1, 2), (1, 3), (4, 2)])
        assert g.successors(node(1)) == nodes(2, 3)
        assert g.predecessors(node(2)) == nodes(1, 4)
        assert set(
            g.successors(node(1)) | g.predecessors(node(2))
        ) == nodes(1, 2, 3, 4)

    @pytest.mark.parametrize("make", BACKENDS)
    def test_neighbour_views_refuse_mutation(self, make):
        g = build_backend(make, [(1, 2)])
        for view in (g.successors(node(1)), g.predecessors(node(2))):
            with pytest.raises(AttributeError):
                view.add(node(99))
            with pytest.raises(AttributeError):
                view.discard(node(2))
        # The attempted mutations changed nothing.
        assert g.successors(node(1)) == nodes(2)
        assert g.predecessors(node(2)) == nodes(1)
        assert g.edge_count == 1

    @pytest.mark.parametrize("make", BACKENDS)
    def test_ghost_neighbourhoods_empty(self, make):
        g = make()
        ghost = node(99)
        assert set(g.successors(ghost)) == set()
        assert set(g.predecessors(ghost)) == set()
        assert g.out_degree(ghost) == 0
        assert g.in_degree(ghost) == 0

    @pytest.mark.parametrize("make", BACKENDS)
    def test_add_edge_dedup_flag(self, make):
        g = make()
        assert g.add_edge(node(0), node(1)) is True
        assert g.add_edge(node(0), node(1)) is False
        assert g.edge_count == 1
        assert g.node_count == 2

    @pytest.mark.parametrize("make", BACKENDS)
    def test_reverse_and_copy(self, make):
        g = build_backend(make, [(1, 2), (2, 3)])
        r = g.reverse()
        assert r.has_edge(node(2), node(1)) and r.has_edge(node(3), node(2))
        c = g.copy()
        c.add_edge(node(3), node(4))
        assert not g.has_edge(node(3), node(4))

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists)
    def test_structure_agrees(self, edges):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        assert csr.node_count == obj.node_count
        assert csr.edge_count == obj.edge_count
        assert set(csr.nodes()) == set(obj.nodes())
        assert set(csr.edges()) == set(obj.edges())
        for each in obj.nodes():
            assert csr.successors(each) == obj.successors(each)
            assert csr.predecessors(each) == obj.predecessors(each)


class TestReachesGhostNodes:
    """``reaches`` endpoint semantics: no empty path through a node
    the graph does not contain (regression tests for the ghost-node
    sweep; both backends)."""

    @pytest.mark.parametrize("make", BACKENDS)
    def test_absent_src_never_reaches(self, make):
        g = build_backend(make, [(1, 2)])
        assert not reaches(g, node(99), node(99))
        assert not reaches(g, node(99), node(1))

    @pytest.mark.parametrize("make", BACKENDS)
    def test_present_node_reaches_itself(self, make):
        g = build_backend(make, [(1, 2)])
        assert reaches(g, node(1), node(1))
        # Present via an incoming edge only.
        assert reaches(g, node(2), node(2))

    @pytest.mark.parametrize("make", BACKENDS)
    def test_present_src_absent_dst(self, make):
        g = build_backend(make, [(1, 2)])
        assert not reaches(g, node(1), node(99))

    @pytest.mark.parametrize("make", BACKENDS)
    def test_empty_graph(self, make):
        g = make()
        assert not reaches(g, node(0), node(0))


class TestCSRDigraph:
    """The flat-array graph's own contract: readers walk the live
    adjacency rows, so ``freeze()`` is a no-op and every read sees
    every mutation before it."""

    def test_freeze_is_idempotent(self):
        g = build_backend(CSRDigraph, [(1, 2), (2, 3), (3, 1), (3, 4)])

        def answers():
            edges = list(g.edges())
            return (
                reachable_from(g, [node(1)]),
                reachable_to(g, [node(4)]),
                edges,
            )

        before = answers()
        assert g.freeze() is g
        assert g.freeze() is g
        assert answers() == before

    def test_mutation_invalidates_frozen_form(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        g.freeze()
        assert reachable_from(g, [node(1)]) == nodes(1, 2)
        g.add_edge(node(2), node(3))
        assert reachable_from(g, [node(1)]) == nodes(1, 2, 3)
        assert reaches(g, node(1), node(3))
        g.remove_edge(node(1), node(2))
        assert reachable_from(g, [node(1)]) == nodes(1)
        assert reachable_to(g, [node(3)]) == nodes(2, 3)
        assert not reaches(g, node(1), node(3))

    def test_duplicate_edge_keeps_frozen_form(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        g.freeze()
        assert g.add_edge(node(1), node(2)) is False
        assert g.edge_count == 1
        assert list(g.edges()) == pairs([(1, 2)])

    def test_add_node_after_freeze(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        g.freeze()
        g.add_node(node(99))
        assert reachable_from(g, [node(99)]) == nodes(99)

    def test_views_read_live_adjacency(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        view = g.successors(node(1))
        g.add_edge(node(1), node(3))
        assert view == nodes(2, 3)

    def test_reaches_any_accounting(self):
        g = build_backend(CSRDigraph, [(1, 2), (2, 3)])
        hit, visited = g.reaches_any([node(1)], [node(3)])
        assert hit and visited >= 1
        miss, visited = g.reaches_any([node(3)], [node(1)])
        assert not miss and visited >= 1

    def test_reaches_any_stray_endpoints(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        # A stray source trivially reaches itself.
        hit, _ = g.reaches_any([node(99)], [node(99)])
        assert hit
        miss, _ = g.reaches_any([node(99)], [node(1)])
        assert not miss


sources_lists = st.lists(st.integers(0, 16), max_size=4)


class TestBackendReachabilityAgreement:
    """Property: the CSR fast paths compute exactly what the generic
    BFS computes on the object graph."""

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, sources=sources_lists)
    def test_reachable_from_agrees(self, edges, sources):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        starts = [node(label) for label in sources]
        assert reachable_from(csr, starts) == reachable_from(obj, starts)

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, targets=sources_lists)
    def test_reachable_to_agrees(self, edges, targets):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        ends = [node(label) for label in targets]
        assert reachable_to(csr, ends) == reachable_to(obj, ends)

    @settings(max_examples=60, deadline=None)
    @given(
        edges=edge_lists,
        src=st.integers(0, 16),
        dst=st.integers(0, 16),
    )
    def test_reaches_agrees(self, edges, src, dst):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        assert reaches(csr, node(src), node(dst)) == reaches(
            obj, node(src), node(dst)
        )

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_lists, sources=sources_lists)
    def test_custom_follow_agrees(self, edges, sources):
        obj = build_backend(Digraph, edges)
        csr = build_backend(CSRDigraph, edges)
        starts = [node(label) for label in sources]
        # A custom follow forces the generic BFS on both backends.
        assert reachable_from(
            csr, starts, follow=csr.predecessors
        ) == reachable_from(obj, starts, follow=obj.predecessors)

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

    def test_remove_present_edge(self):
        for make in BACKENDS:
            g = build_backend(make, [(1, 2)])
            assert g.remove_edge(node(1), node(2)) is True
            assert not g.has_edge(node(1), node(2))
            assert g.edge_count == 0

    def test_remove_absent_edge_is_a_noop(self):
        for make in BACKENDS:
            g = build_backend(make, [(1, 2)])
            assert g.remove_edge(node(2), node(1)) is False
            assert g.remove_edge(node(3), node(4)) is False
            assert g.edge_count == 1

    def test_endpoints_survive_isolation(self):
        for make in BACKENDS:
            g = build_backend(make, [(1, 2)])
            g.remove_edge(node(1), node(2))
            assert node(1) in g and node(2) in g
            assert list(g.successors(node(1))) == []
            assert list(g.predecessors(node(2))) == []

    def test_degrees_and_readd(self):
        for make in BACKENDS:
            g = build_backend(make, [(1, 2), (3, 2)])
            g.remove_edge(node(1), node(2))
            assert g.in_degree(node(2)) == 1
            assert g.out_degree(node(1)) == 0
            # Re-adding a removed edge is a fresh insertion.
            assert g.add_edge(node(1), node(2)) is True
            assert g.edge_count == 2

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, removals=edge_lists)
    def test_matches_rebuild_from_surviving_edges(self, edges, removals):
        for make in BACKENDS:
            g = build_backend(make, edges)
            removed = set()
            for src, dst in pairs(removals):
                if g.remove_edge(src, dst):
                    removed.add((src, dst))
            survivors = set(pairs(edges)) - removed
            assert set(g.edges()) == survivors
            assert g.edge_count == len(survivors)
            fresh = make()
            fresh.add_edges(survivors)
            for each in list(g.nodes()):
                assert reachable_from(g, [each]) >= reachable_from(
                    fresh, [each]
                )


class TestRemoveIsolated:
    """Freeing the rows an edit emptied (the daemon's warm graph): a
    node leaves only once it has no edge, and the factory gives its
    uid to the next new node, so the rows never outgrow the most nodes
    the factory held at once."""

    def test_only_an_isolated_node_is_removed(self):
        g = build_backend(CSRDigraph, [(1, 2)])
        assert g.remove_isolated(node(1)) is False
        assert g.remove_isolated(node(99)) is True
        emptied = []
        g.remove_edge(node(1), node(2), emptied)
        assert emptied == [node(1), node(2)]
        assert g.remove_isolated(node(1)) is True
        assert node(1) not in g and g.node_count == 1
        assert list(g.nodes()) == [node(2)]

    def test_a_new_node_reuses_a_freed_id(self):
        factory = NodeFactory(parse("()"))
        a, b, c = map(factory.var_node, "abc")
        g = CSRDigraph()
        g.add_edge(a, b)
        g.add_edge(b, c)
        emptied = []
        g.remove_edge(a, b, emptied)
        assert emptied == [a]
        factory.release(emptied, g.remove_isolated)
        assert not factory.holds(a) and g._nodes == [None, b, c]
        d = factory.var_node("d")
        # The released uid comes back first, with empty rows.
        assert d.uid == a.uid == 0
        assert not g.successors(d) and not g.predecessors(d)
        g.add_edge(c, d)
        assert d in g and a not in g
        assert len(g._succ) == 3 and g.node_count == 3
        assert set(g.edges()) == {(b, c), (c, d)}
        assert g.reachable_set([b]) == {b, c, d}

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists, removals=edge_lists, added=edge_lists)
    def test_matches_rebuild_after_freeing(self, edges, removals, added):
        factory = NodeFactory(parse("()"))

        def var(label):
            return factory.var_node(str(label))

        g = CSRDigraph()
        g.add_edges((var(src), var(dst)) for src, dst in edges)
        held = factory.node_count
        emptied = []
        for src, dst in removals:
            made = factory.peek_var(str(src)), factory.peek_var(str(dst))
            if None not in made:
                g.remove_edge(*made, emptied)
        factory.release(emptied, g.remove_isolated)
        survivors = set(g.edges())
        assert set(g.nodes()) == {n for edge in survivors for n in edge}
        assert set(factory.nodes) == set(g.nodes())
        new = [(var(src + 100), var(dst)) for src, dst in added]
        g.add_edges(new)
        fresh = CSRDigraph()
        fresh.add_edges(survivors)
        fresh.add_edges(new)
        assert set(g.edges()) == set(fresh.edges())
        assert set(g.nodes()) == set(fresh.nodes())
        assert len(g._succ) == max(held, factory.node_count)
        for each in fresh.nodes():
            assert g.reachable_set([each]) == fresh.reachable_set([each])
