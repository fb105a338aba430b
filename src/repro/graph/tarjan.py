"""Tarjan's strongly-connected-components algorithm (iterative).

One implementation over dense int ids and per-id adjacency rows
(:func:`scc_ids`) condenses a region of the live
:class:`~repro.graph.csr.CSRDigraph` rows for the all-label-sets
sweep, and any graph's nodes once numbered
(:func:`strongly_connected_components`, behind the transitive closure
and the condensation). It is iterative so million-node graphs do not
hit the Python recursion limit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.graph.digraph import Digraph, Node


def scc_ids(
    rows: Sequence[Sequence[int]],
    roots: Iterable[int],
    member: bytearray,
) -> List[List[int]]:
    """SCCs of the subgraph induced by ``member``, in reverse
    topological order (every component after those it reaches).

    The successors of id ``v`` are ``rows[v]``; ``member[v]`` is
    non-zero for the ids in the subgraph (edges leaving it are
    ignored). The search starts from each unvisited member id of
    ``roots`` in order.
    """
    n = len(rows)
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
        work = [(root, iter(rows[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not member[w]:
                    continue
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    push(w)
                    work.append((w, iter(rows[w])))
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
    rows = [[ids[succ] for succ in graph.successors(node)] for node in nodes]
    everything = bytearray(b"\x01") * len(nodes)
    return [
        [nodes[idx] for idx in component]
        for component in scc_ids(rows, range(len(nodes)), everything)
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
