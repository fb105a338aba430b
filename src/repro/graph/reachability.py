"""Reachability on either graph class.

These are the O(V + E) primitives behind the paper's Algorithms 1
and 2 ("Apply LC' to P; use graph reachability ..."). They accept
both the flat-array :class:`~repro.graph.csr.CSRDigraph` and the
generic :class:`~repro.graph.digraph.Digraph`:

* with the default successor/predecessor step on a CSR graph, the
  traversal dispatches to the frozen-array walk (byte marks + int
  worklist);
* any *custom* ``follow`` callable (the polyvariant summariser's
  dom/ran extension, for instance) runs the generic BFS, which only
  ever calls ``follow`` — so it works identically on both classes.

Sources are always included in the result, whether or not the graph
contains them — an occurrence's node can be absent from the graph
(no build rule touched it) yet trivially reach itself.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, Set

from repro.graph.csr import CSRDigraph
from repro.graph.digraph import Digraph, Node


def reachable_from(
    graph: Digraph,
    sources: Iterable[Node],
    follow: Optional[Callable[[Node], Iterable[Node]]] = None,
) -> Set[Node]:
    """All nodes reachable from ``sources`` (inclusive) via BFS.

    ``follow`` overrides the successor function (the polyvariant
    summariser uses this to extend reachability through ``dom``/``ran``
    formation, as Section 7 requires).
    """
    if isinstance(graph, CSRDigraph):
        if follow is None or follow == graph.successors:
            return graph.reachable_set(sources)
        if follow == graph.predecessors:
            return graph.reachable_set(sources, reverse=True)
    step = follow if follow is not None else graph.successors
    seen: Set[Node] = set()
    queue = deque()
    for source in sources:
        if source not in seen:
            seen.add(source)
            queue.append(source)
    while queue:
        node = queue.popleft()
        for succ in step(node):
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return seen


def reachable_to(graph: Digraph, targets: Iterable[Node]) -> Set[Node]:
    """All nodes that can reach some node in ``targets`` (inclusive)."""
    return reachable_from(graph, targets, follow=graph.predecessors)


def reaches(graph: Digraph, src: Node, dst: Node) -> bool:
    """True if ``dst`` is reachable from ``src`` (early-exit BFS).

    Consistent with :func:`reachable_from`'s membership semantics for
    graph members, but strict about the graph itself: ``reaches(g, x,
    x)`` is False when ``x`` is not a node of ``g`` — there is no
    empty path in a graph that does not contain its endpoints.
    """
    if isinstance(graph, CSRDigraph):
        return graph.reaches_node(src, dst)
    if src not in graph:
        return False
    if src == dst:
        return True
    seen: Set[Node] = {src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for succ in graph.successors(node):
            if succ == dst:
                return True
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return False
