"""Polyvariant (context-sensitive) subtransitive CFA (paper Section 7).

The paper's polyvariance is "analogous to let-polymorphism": the
intent is an analysis "equivalent to doing a monomorphic analysis of
the let-expanded P, without doing the explicit let-expansion" — the
binding's graph fragment is analysed once and *instantiated* (copied)
at each place the binder is mentioned.

:class:`~repro.core.lc.LCEngine` implements the instantiation at the
graph level: a polyvariant binder's bound expression contributes its
build edges once per use occurrence, under a fresh *context* (the
tuple of use-site nids), with free variables shared with the enclosing
context — exactly the graph the let-expanded program would produce,
without ever copying the AST. This module provides:

* :func:`choose_polyvariant_binders` — the default policy ("we focus
  on functions where polyvariance pays off": syntactic-function
  ``let``/``letrec`` bindings);
* :func:`analyze_polyvariant` — driver returning a
  :class:`SubtransitiveCFA` whose monovariant-projection queries union
  over contexts;
* :func:`summarize_fragment` — the paper's summarisation step on a
  worked fragment: find the critical nodes (the ``dom``/``ran``
  interface plus free variables), restrict to what they reach (where
  reachability is extended so "if n is reachable, then so is dom(n)
  and ran(n)"), and compress away internal nodes. Used by tests to
  reproduce the Section 7 example where ``fn z => ((fn y => z) nil)``
  compresses to the single edge ``ran(e) -> dom(e)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.graph.reachability import reachable_from
from repro.lang.ast import Expr, Lam, Let, Letrec, Program, Var

from repro.core.lc import LCEngine, SubtransitiveGraph
from repro.core.nodes import Node
from repro.core.queries import SubtransitiveCFA


def choose_polyvariant_binders(
    program: Program, policy: str = "syntactic"
) -> FrozenSet[str]:
    """Binders worth duplicating.

    ``policy``:

    * ``"syntactic"`` (default) — every ``let``/``letrec`` binding
      whose bound expression is a syntactic abstraction;
    * ``"payoff"`` — the paper's suggestion to "first perform a simple
      monovariant analysis, and then use that information to control a
      subsequent polyvariant analysis": keep only syntactic-function
      binders that are *used at two or more occurrences* and whose
      parameter monovariantly joins two or more abstractions (the
      join-point signature — where duplication actually buys
      precision).
    """
    syntactic = set()
    for node in program.nodes:
        if isinstance(node, (Let, Letrec)) and isinstance(node.bound, Lam):
            syntactic.add(node.name)
    if policy == "syntactic":
        return frozenset(syntactic)
    if policy != "payoff":
        raise ValueError(
            f"unknown polyvariance policy {policy!r}; expected "
            "'syntactic' or 'payoff'"
        )

    from repro.core.queries import analyze_subtransitive

    mono = analyze_subtransitive(program)
    use_counts = {}
    for node in program.nodes:
        if isinstance(node, Var) and node.name in syntactic:
            use_counts[node.name] = use_counts.get(node.name, 0) + 1
    chosen = set()
    for name in syntactic:
        if use_counts.get(name, 0) < 2:
            continue
        binder = program.binder(name)
        assert isinstance(binder, (Let, Letrec))
        lam = binder.bound
        assert isinstance(lam, Lam)
        if len(mono.labels_of_var(lam.param)) >= 2:
            chosen.add(name)
    return frozenset(chosen)


def analyze_polyvariant(
    program: Program,
    binders: Optional[FrozenSet[str]] = None,
    instance_budget: int = 10_000,
    node_budget: Optional[int] = None,
    registry=None,
    events=None,
) -> SubtransitiveCFA:
    """Polyvariant subtransitive CFA.

    ``binders`` defaults to :func:`choose_polyvariant_binders`.
    ``instance_budget`` is the paper's global duplication bound that
    keeps the polyvariant analysis linear-ish ("we could force our
    polyvariant algorithm to be linear-time by restricting
    polyvariance so that there is some global bound on the number of
    times each graph fragment is effectively duplicated").
    """
    if binders is None:
        binders = choose_polyvariant_binders(program)
    engine = LCEngine(
        program,
        node_budget=node_budget,
        polyvariant_lets=binders,
        instance_budget=instance_budget,
        registry=registry,
        events=events,
    )
    return SubtransitiveCFA(engine.run())


class FragmentSummary:
    """A compressed graph fragment for one abstraction (Section 7)."""

    def __init__(
        self,
        root: Node,
        critical: List[Node],
        edges: List[Tuple[Node, Node]],
        removed_nodes: int,
    ):
        #: The fragment's root node (the abstraction).
        self.root = root
        #: Interface nodes surrounding program text may connect to.
        self.critical = critical
        #: Compressed edges among critical nodes.
        self.edges = edges
        #: How many internal nodes compression eliminated.
        self.removed_nodes = removed_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FragmentSummary critical={len(self.critical)} "
            f"edges={len(self.edges)} removed={self.removed_nodes}>"
        )


def summarize_fragment(
    sub: SubtransitiveGraph, lam: Lam
) -> FragmentSummary:
    """Summarise the analysed fragment rooted at abstraction ``lam``.

    Following Section 7: the *critical* nodes are the ``dom``/``ran``
    towers over the fragment root (the only nodes surrounding text can
    mention); reachability is extended so that a reachable node's
    ``dom``/``ran`` nodes are also reachable; unreachable nodes are
    dropped and intermediate (non-critical) nodes are compressed away,
    keeping only the induced reachability among critical nodes.
    """
    graph = sub.graph
    factory = sub.factory
    root = factory.expr_node(lam)

    critical: List[Node] = []
    for opkey in (("dom",), ("ran",)):
        found = factory.find_op(opkey, root)
        if found is not None:
            critical.append(found)

    def follow(node: Node) -> List[Node]:
        out = list(graph.successors(node))
        # "we must generalise reachable so that if n is reachable,
        # then so is dom(n) and ran(n)".
        for opkey, opnode in node.ops.items():
            out.append(opnode)
        return out

    live = reachable_from(graph, critical, follow=follow)

    # Compress: keep only critical-to-critical reachability.
    critical_set = set(critical)
    edges: List[Tuple[Node, Node]] = []
    for source in critical:
        seen: Set[Node] = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for succ in follow(node):
                if succ not in live or succ in seen:
                    continue
                seen.add(succ)
                if succ in critical_set:
                    edges.append((source, succ))
                else:
                    frontier.append(succ)
    internal = len(live) - len(critical_set & live)
    return FragmentSummary(root, critical, edges, internal)
