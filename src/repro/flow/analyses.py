"""Client analyses for the dataflow framework.

Each class here instantiates :class:`~repro.flow.framework.
FlowAnalysis` with one lattice and one downstream relation. The
compiled rule engine (:mod:`repro.rules.engine`) runs every recursive
relation of the shipped rule programs as one of the first two:

* :class:`BoundedSetAnalysis` — the Section 9 k-bounded token lattice
  (k-limited CFA, called-once, constructor sets);
* :class:`ReachabilityAnalysis` — boolean marks along a follow
  function (the lint reachability, escape and taint relations);
* :class:`EffectsAnalysis` — the Section 8 effects colouring, mixing
  AST expressions and graph nodes in one worklist. Its
  :meth:`~EffectsAnalysis.downstream` *is* the ``eff_edge`` base
  relation the ``app-effects`` program propagates along.

Directions follow the graph-edge semantics: ``l ∈ L(e)`` iff the
abstraction node is reachable *from* ``e``'s node via successors, so
"what may e evaluate to" propagates marks backward (predecessors) from
value sources, and "where may this value end up" propagates forward
(successors) from the interested consumers.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable

from repro.core.nodes import Node
from repro.lang.ast import Assign, Lam, Prim

from repro.flow.framework import FlowAnalysis, MarkAnalysis
from repro.flow.lattice import Annotation, bounded_join, bounded_seed


class BoundedSetAnalysis(FlowAnalysis):
    """Section 9's engine as a framework client: subsets of at most
    ``k`` tokens topped by MANY, propagated along ``downstream``.

    ``seed_map`` and ``downstream`` are injected because the two
    shipped users run the same lattice in opposite directions
    (k-limited CFA against edge direction, called-once along it).
    """

    def __init__(
        self,
        seed_map: Dict[Hashable, frozenset],
        k: int,
        downstream: Callable[[Hashable], Iterable[Hashable]],
        name: str = "bounded-set",
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.name = name
        self.k = k
        self._seed_map = seed_map
        self._downstream = downstream

    def seeds(self, ctx) -> Dict[Hashable, Annotation]:
        return {
            item: bounded_seed(frozenset(tokens), self.k)
            for item, tokens in self._seed_map.items()
            if tokens
        }

    def join(self, old: Annotation, new: Annotation) -> Annotation:
        return bounded_join(old, new, self.k)

    def downstream(self, ctx, item):
        return self._downstream(item)


class ReachabilityAnalysis(MarkAnalysis):
    """Multi-source reachability along a follow function, as boolean
    marks. ``finish`` returns the set of reached items (sources
    included)."""

    def __init__(
        self,
        sources: Iterable[Hashable],
        follow: Callable[[Hashable], Iterable[Hashable]],
        name: str = "reach",
    ):
        self.name = name
        self._sources = list(sources)
        self._follow = follow

    def seeds(self, ctx) -> Dict[Hashable, bool]:
        return {source: True for source in self._sources}

    def downstream(self, ctx, item):
        return self._follow(item)

    def flat_direction(self, ctx):
        graph = ctx.graph
        if graph is None:
            return None
        # Bound-method equality: the same ``successors`` /
        # ``predecessors`` of the same graph object.
        if self._follow == graph.successors:
            return "successors"
        if self._follow == graph.predecessors:
            return "predecessors"
        return None


# -- Section 8: effects ----------------------------------------------------


def base_red(node) -> bool:
    """Is ``node`` a direct application of a side-effecting
    operation?"""
    if isinstance(node, Prim):
        return node.effectful
    return isinstance(node, Assign)


def structural_parent_rule(parent) -> bool:
    """May redness of a child make ``parent`` red structurally?

    Everything except abstractions: a lambda *contains* its body but
    evaluating the lambda does not run it.
    """
    return not isinstance(parent, Lam)


class EffectsAnalysis(MarkAnalysis):
    """The paper's Section 8 colouring on the framework.

    Items are a union type: AST expressions (structural redness) and
    ``ran`` graph nodes (the limited transitive closure that keeps the
    fixpoint linear). The downstream relation reproduces the paper's
    two rules exactly:

    (a) a node ``(e1 e2)`` is red if ``e1``, ``e2`` or ``ran(e1)``
        is red — the expr-to-parent structural step plus the
        ``ran``-node-to-site index;
    (b) a node ``ran(e)`` is red if there is an edge
        ``ran(e) -> e'`` and ``e'`` is red — marks walk backward
        along graph edges, but only into ``ran`` nodes.
    """

    name = "effects"

    def seeds(self, ctx) -> Dict[Hashable, bool]:
        return {
            node: True for node in ctx.program.nodes if base_red(node)
        }

    def downstream(self, ctx, item):
        graph = ctx.graph
        if isinstance(item, Node):
            # A red ran-node reddens upstream ran-nodes (rule (b))
            # and the application sites it is the range of (rule (a)).
            for pred in graph.predecessors(item):
                if pred.kind == "op" and pred.opkey == ("ran",):
                    yield pred
            for site in ctx.ran_to_sites.get(item, ()):
                yield site
        else:
            # A red expression reddens its AST parent (structurally)
            # and every ran-node with an edge into it (rule (b)).
            parent = ctx.parent_of.get(item.nid)
            if parent is not None and structural_parent_rule(parent):
                yield parent
            graph_node = ctx.factory.expr_node(item)
            for pred in graph.predecessors(graph_node):
                if pred.kind == "op" and pred.opkey == ("ran",):
                    yield pred
