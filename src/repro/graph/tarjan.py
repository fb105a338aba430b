"""Tarjan's strongly-connected-components algorithm (iterative).

One implementation over dense int ids and a CSR adjacency pair
(:func:`scc_ids`) condenses a region of the frozen
:class:`~repro.graph.csr.CSRDigraph` arrays for the all-label-sets
sweep, and any graph's nodes once numbered
(:func:`strongly_connected_components`, behind the transitive closure
and the condensation). It is iterative so million-node graphs do not
hit the Python recursion limit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.graph.digraph import Digraph, Node


def scc_ids(
    offsets: Sequence[int],
    targets: Sequence[int],
    roots: Iterable[int],
    member: bytearray,
) -> List[List[int]]:
    """SCCs of the subgraph induced by ``member``, in reverse
    topological order (every component after those it reaches).

    The successors of id ``v`` are ``targets[offsets[v]:offsets[v+1]]``;
    ``member[v]`` is non-zero for the ids in the subgraph (edges
    leaving it are ignored). The search starts from each unvisited
    member id of ``roots`` in order.
    """
    n = len(offsets) - 1
    index = [0] * n  # DFS number (1-based); 0 = unvisited
    low = [0] * n
    done = bytearray(n)  # assigned to a finished component
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    components: List[List[int]] = []
    counter = 0
    for root in roots:
        if index[root] or not member[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        push(root)
        # One frame per open node: the node and the iterator over its
        # remaining successors, resumed after each child returns.
        work = [(root, iter(targets[offsets[root] : offsets[root + 1]]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not member[w]:
                    continue
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    push(w)
                    work.append(
                        (w, iter(targets[offsets[w] : offsets[w + 1]]))
                    )
                    break
                if not done[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lowest = low[v]
                if work:
                    parent = work[-1][0]
                    if lowest < low[parent]:
                        low[parent] = lowest
                if lowest == index[v]:
                    component: List[int] = []
                    while True:
                        w = pop()
                        done[w] = 1
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def strongly_connected_components(graph: Digraph) -> List[List[Node]]:
    """SCCs of ``graph`` in reverse topological order (Tarjan)."""
    nodes = list(graph.nodes())
    ids = {node: idx for idx, node in enumerate(nodes)}
    offsets = [0]
    targets: List[int] = []
    for node in nodes:
        targets.extend(ids[succ] for succ in graph.successors(node))
        offsets.append(len(targets))
    everything = bytearray(b"\x01") * len(nodes)
    return [
        [nodes[idx] for idx in component]
        for component in scc_ids(
            offsets, targets, range(len(nodes)), everything
        )
    ]


def condensation(graph: Digraph) -> "tuple[Digraph, Dict[Node, int]]":
    """The SCC condensation DAG plus the node -> component-id map.

    Component ids are positions in the reverse-topological SCC list.
    """
    components = strongly_connected_components(graph)
    component_of: Dict[Node, int] = {}
    for cid, members in enumerate(components):
        for node in members:
            component_of[node] = cid
    dag = Digraph()
    for cid in range(len(components)):
        dag.add_node(cid)
    for src, dst in graph.edges():
        a, b = component_of[src], component_of[dst]
        if a != b:
            dag.add_edge(a, b)
    return dag, component_of
