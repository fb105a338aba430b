"""Reachability queries over the subtransitive graph.

The paper's Algorithms 1 and 2 (Section 4)::

    Algorithm 1 — Input: program P, label l, occurrence e.
        1. Apply LC' to P.
        2. Use graph reachability to determine whether l is reachable
           from e.                                    [O(n) per query]

    Algorithm 2 — Input: program P, occurrence e.
        1. Apply LC' to P.
        2. Use graph reachability to find all nodes reachable from e.
        3. Output the labels of abstractions among them.   [O(n)]

plus "an O(n^2) algorithm for computing all label sets by repeatedly
applying Algorithm 2 to all program sub-expressions";
:meth:`SubtransitiveCFA.all_label_sets` gets it in one pass instead
(per-SCC label bitsets over a condensation), within the same bound.

:class:`SubtransitiveCFA` implements the :class:`~repro.cfa.base.
CFAResult` interface on top of these, so the test suite can compare it
pointwise against the cubic baselines and the CFA-consuming
applications can run on it directly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.cfa.base import CFAResult, FlowKey, ValueToken
from repro.errors import QueryError
from repro.graph.tarjan import scc_ids
from repro.lang.ast import Con, Expr, Lam, Program, Record, Ref

from repro.core.lc import SubtransitiveGraph
from repro.core.nodes import EXPR, Context, Node


class SubtransitiveCFA(CFAResult):
    """Query layer over a :class:`SubtransitiveGraph`.

    Single queries are demand-driven graph reachability — nothing is
    precomputed, matching the paper's "we only explore the parts ...
    that are actually needed"; :meth:`all_label_sets` answers every
    occurrence at once in one sweep. ``contexts`` (polyvariant runs
    only) lists the instantiation contexts each binder was analysed
    under; monovariant queries of a polyvariant result take the union
    over contexts, which is the precision-relevant projection.
    """

    def __init__(self, sub: SubtransitiveGraph):
        super().__init__(sub.program)
        self.sub = sub
        self.graph = sub.graph
        self.factory = sub.factory
        # Query accounting shares the engine run's registry so one
        # metrics document covers build, close and query phases.
        registry = sub.stats.registry
        self._c_queries = registry.counter("queries.count")
        self._c_visited = registry.counter("queries.visited_nodes")
        # ``(id, tokens)`` per token-bearing graph node, invalidated
        # when the graph grows (incremental updates); see
        # :meth:`_token_index`.
        self._token_entries: Optional[List] = None
        self._token_entries_nodes = -1
        self._label_entries: Optional[List] = None
        self._label_entries_nodes = -1
        # Label-set materialisations. The lint passes must keep this
        # at zero — they are contractually O(edges) consumers of the
        # graph itself (a regression test pins it).
        self._c_label_sets = registry.counter("queries.labels_of")

    @property
    def query_count(self) -> int:
        """Reachability traversals answered so far."""
        return self._c_queries.value

    @property
    def query_visited_nodes(self) -> int:
        """Total nodes visited across all traversals (the demand-
        driven cost actually paid, summed)."""
        return self._c_visited.value

    # -- internals ---------------------------------------------------------

    def _start_nodes(self, key: FlowKey) -> List[Node]:
        """Graph nodes corresponding to a flow key, over all contexts."""
        starts: List[Node] = []
        if isinstance(key, int):
            if key < 0 or key >= self.program.size:
                raise QueryError(f"no expression with nid {key}")
            expr = self.program.node(key)
            for node in self._context_nodes("expr", expr.nid):
                starts.append(node)
            if not starts:
                starts.append(self.factory.expr_node(expr))
        else:
            found = list(self._context_nodes("var", key))
            starts.extend(found)
            if not starts:
                starts.append(self.factory.var_node(key))
        return starts

    def _context_nodes(self, kind: str, ident) -> Iterable[Node]:
        # The factory's occurrence index: O(contexts) per lookup, not
        # O(interned nodes). May repeat a class node (one entry per
        # context); consumers dedup via sets or BFS marks.
        return self.factory.occurrences(kind, ident)

    @staticmethod
    def _tokens_in(nodes: Iterable[Node]) -> Set[ValueToken]:
        tokens: Set[ValueToken] = set()
        for node in nodes:
            if node.kind != "expr":
                continue
            if node.expr is not None:
                if isinstance(node.expr, (Lam, Record, Con, Ref)):
                    tokens.add(node.expr)
            else:
                # A congruence class node absorbs the value
                # occurrences of its datatype.
                for expr in node.absorbed:
                    if isinstance(expr, (Lam, Record, Con, Ref)):
                        tokens.add(expr)
        return tokens

    def _token_index(self) -> List:
        """``(id, (token, ...))`` for every token-bearing node the
        graph contains, in id order. Rebuilt whenever the graph grew
        (an incremental update may intern new value nodes)."""
        graph = self.graph
        if (
            self._token_entries is None
            or self._token_entries_nodes != graph.node_count
        ):
            entries = []
            for idx, node in enumerate(graph._interner.values):
                if node.kind != "expr":
                    continue
                if node.expr is not None:
                    if isinstance(node.expr, (Lam, Record, Con, Ref)):
                        entries.append((idx, (node.expr,)))
                else:
                    absorbed = tuple(
                        expr
                        for expr in node.absorbed
                        if isinstance(expr, (Lam, Record, Con, Ref))
                    )
                    if absorbed:
                        entries.append((idx, absorbed))
            self._token_entries = entries
            self._token_entries_nodes = graph.node_count
        return self._token_entries

    def _label_index(self) -> List:
        """``(id, (label, ...))`` for every abstraction-bearing node —
        the label-set projection of :meth:`_token_index`, so
        ``labels_of``/``may_call`` skip token materialisation."""
        graph = self.graph
        if (
            self._label_entries is None
            or self._label_entries_nodes != graph.node_count
        ):
            entries = []
            for idx, node in enumerate(graph._interner.values):
                if node.kind != "expr":
                    continue
                if node.expr is not None:
                    if isinstance(node.expr, Lam):
                        entries.append((idx, (node.expr.label,)))
                else:
                    labels = tuple(
                        expr.label
                        for expr in node.absorbed
                        if isinstance(expr, Lam)
                    )
                    if labels:
                        entries.append((idx, labels))
            self._label_entries = entries
            self._label_entries_nodes = graph.node_count
        return self._label_entries

    def _labels_at(self, starts: List[Node]) -> FrozenSet[str]:
        """Algorithm 2 restricted to labels: byte-mark reachability,
        then one pass over the label index. Counter accounting matches
        the token path exactly (one label-set materialisation, one
        traversal, same visit total)."""
        graph = self.graph
        start_ids, extras = graph._start_ids(starts)
        seen, order = graph._reached_ids(start_ids)
        self._c_label_sets.inc()
        self._c_queries.inc()
        self._c_visited.inc(len(order) + len(extras))
        labels: Set[str] = set()
        for idx, entry in self._label_index():
            if seen[idx]:
                labels.update(entry)
        if extras:
            labels.update(
                token.label
                for token in self._tokens_in(extras)
                if isinstance(token, Lam)
            )
        return frozenset(labels)

    def _tokens_at(self, starts: List[Node]) -> Set[ValueToken]:
        """Algorithm 2 on the flat arrays: byte-mark reachability,
        then one pass over the precomputed token index — no node-set
        materialisation."""
        graph = self.graph
        start_ids, extras = graph._start_ids(starts)
        seen, order = graph._reached_ids(start_ids)
        self._c_queries.inc()
        self._c_visited.inc(len(order) + len(extras))
        tokens: Set[ValueToken] = set()
        for idx, entry in self._token_index():
            if seen[idx]:
                tokens.update(entry)
        if extras:
            tokens.update(self._tokens_in(extras))
        return tokens

    # -- CFAResult interface --------------------------------------------------

    def tokens_at(self, key: FlowKey) -> Set[ValueToken]:
        self._c_label_sets.inc()
        return self._tokens_at(self._start_nodes(key))

    def labels_of(self, expr: Expr) -> FrozenSet[str]:
        self._check(expr)
        return self._labels_at(self._start_nodes(expr.nid))

    def labels_of_var(self, name: str) -> FrozenSet[str]:
        return self._labels_at(self._start_nodes(name))

    def is_label_in(self, label: str, expr: Expr) -> bool:
        """Algorithm 1: early-exit reachability to the abstraction."""
        self._check(expr)
        target = self.program.abstraction(label)
        target_nodes = set(self._context_nodes(EXPR, target.nid))
        if not target_nodes:
            return False
        found, visited = self.graph.reaches_any(
            self._start_nodes(expr.nid), target_nodes
        )
        self._c_queries.inc()
        self._c_visited.inc(visited)
        return found

    def expressions_with_label(self, label: str) -> List[Expr]:
        """The paper's third query, via *reverse* reachability from
        the abstraction — O(n), not O(n^2)."""
        target = self.program.abstraction(label)
        starts = list(self._context_nodes(EXPR, target.nid))
        backwards = self.graph.reachable_set(starts, reverse=True)
        self._c_queries.inc()
        self._c_visited.inc(len(backwards))
        nids: Set[int] = set()
        for node in backwards:
            if node.kind == EXPR and node.expr is not None:
                nids.add(node.expr.nid)
            elif node.kind == EXPR:
                nids.update(e.nid for e in node.absorbed)
        return [self.program.node(nid) for nid in sorted(nids)]

    def all_label_sets(self) -> Dict[int, FrozenSet[str]]:
        """L(e) for every occurrence in one sweep over the graph's
        adjacency rows, equal to :meth:`labels_of` per expression and
        to :meth:`expressions_with_label` per label: a reverse BFS from
        the abstraction occurrences marks the region that reaches one;
        Tarjan condenses it (reverse topological order); each SCC's
        label set is an int with one bit per abstraction, OR-ed from
        its own abstractions and its successor SCCs; each expression
        ORs its occurrence nodes (none: the empty set). O(region nodes
        + edges) word operations plus the output; creates no factory
        node; counts as one traversal of the region.
        """
        program = self.program
        occurrences = self.factory.occurrences
        graph = self.graph
        ids = graph._interner._ids
        # Abstraction bits per graph id, and per node the graph never
        # saw (such a node reaches only itself).
        own: Dict[int, int] = {}
        stray: Dict[Node, int] = {}
        for bit, lam in enumerate(program.abstractions):
            mask = 1 << bit
            for node in occurrences(EXPR, lam.nid):
                idx = ids.get(node)
                if idx is None:
                    stray[node] = stray.get(node, 0) | mask
                else:
                    own[idx] = own.get(idx, 0) | mask
        seen, region = graph._reached_ids(list(own), reverse=True)
        rows = graph._succ
        bits_of = [0] * graph.node_count
        for component in scc_ids(rows, region, seen):
            bits = 0
            for v in component:
                bits |= own.get(v, 0)
                for w in rows[v]:
                    bits |= bits_of[w]
            for v in component:
                bits_of[v] = bits
        self._c_queries.inc()
        self._c_visited.inc(len(region) + len(stray))

        labels = [lam.label for lam in program.abstractions]
        decoded: Dict[int, FrozenSet[str]] = {0: frozenset()}
        table: Dict[int, FrozenSet[str]] = {}
        for expr in program.nodes:
            bits = 0
            for node in occurrences(EXPR, expr.nid):
                idx = ids.get(node)
                bits |= stray.get(node, 0) if idx is None else bits_of[idx]
            found = decoded.get(bits)
            if found is None:
                found = decoded[bits] = _labels_in(bits, labels)
            table[expr.nid] = found
        return table

    # -- extra reachability queries -------------------------------------------

    def reachable_nodes(self, expr: Expr, context: Context = ()) -> Set[Node]:
        """All graph nodes reachable from an occurrence (diagnostics)."""
        self._check(expr)
        start = self.factory.expr_node(expr, context)
        reached = self.graph.reachable_set([start])
        self._c_queries.inc()
        self._c_visited.inc(len(reached))
        return reached

    def records_of(self, expr: Expr) -> Set[Record]:
        """Record creation sites that may flow to ``expr``."""
        self._check(expr)
        return {
            t
            for t in self.tokens_at(expr.nid)
            if isinstance(t, Record)
        }

    def constructors_of(self, expr: Expr) -> Set[Con]:
        """Constructor sites that may flow to ``expr``."""
        self._check(expr)
        return {
            t for t in self.tokens_at(expr.nid) if isinstance(t, Con)
        }

    @property
    def stats(self):
        """The engine's build/close statistics."""
        return self.sub.stats


def _labels_in(bits: int, labels: List[str]) -> FrozenSet[str]:
    """The labels whose bit (position in ``labels``) is set in
    ``bits``, one step per set bit."""
    found = []
    while bits:
        lowest = bits & -bits
        found.append(labels[lowest.bit_length() - 1])
        bits ^= lowest
    return frozenset(found)


def analyze_subtransitive(
    program: Program,
    congruence=None,
    inference=None,
    node_budget: Optional[int] = None,
    polyvariant_lets: Optional[frozenset] = None,
    registry=None,
    tracer=None,
    profiler=None,
) -> SubtransitiveCFA:
    """Convenience: run LC' and wrap the result in the query layer.

    ``registry``/``tracer``/``profiler`` (see :mod:`repro.obs`)
    instrument the run; all default to off.
    """
    from repro.core.lc import build_subtransitive_graph

    sub = build_subtransitive_graph(
        program,
        congruence=congruence,
        inference=inference,
        node_budget=node_budget,
        polyvariant_lets=polyvariant_lets,
        registry=registry,
        tracer=tracer,
        profiler=profiler,
    )
    return SubtransitiveCFA(sub)
