"""Directed-graph substrate.

The paper's central move is reducing control-flow analysis to *graph
reachability* ("what we establish in this paper is a connection
between control-flow analysis and graph reachability"). This package
provides the graph machinery every analysis builds on: the flat-array
:class:`CSRDigraph` every LC' engine builds and every query, flow pass
and daemon reads; a generic adjacency-set :class:`Digraph` for the
transitive closure, the SCC condensation and the DTC baseline; BFS
reachability, Tarjan's SCC algorithm, and a union-find (used by the
equality-based CFA baseline).
"""

from repro.graph.closure import transitive_closure
from repro.graph.csr import CSRDigraph, Interner
from repro.graph.digraph import Digraph
from repro.graph.reachability import (
    reachable_from,
    reachable_to,
    reaches,
)
from repro.graph.tarjan import condensation, strongly_connected_components
from repro.graph.unionfind import UnionFind

__all__ = [
    "CSRDigraph",
    "Digraph",
    "Interner",
    "UnionFind",
    "condensation",
    "reachable_from",
    "reachable_to",
    "reaches",
    "strongly_connected_components",
    "transitive_closure",
]
