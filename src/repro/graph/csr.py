"""The analysis graph: int adjacency rows indexed by node uid.

Every LC' engine builds this graph, and the query layer, the flow
framework and the incremental daemon read it. It keeps the flat,
id-indexed adjacency the paper's linear-time bound assumes is cheap:

* a node's id is its ``uid``: every node of one graph comes from one
  :class:`~repro.core.nodes.NodeFactory`, which hands uids out densely
  and reuses released ones first, so the rows stay as many as the
  most nodes the factory has held at once, and the graph hashes no
  node object;
* adjacency is one list of int ids per node and direction (the row of
  uid ``v`` is ``_succ[v]``/``_pred[v]``), with edge dedup through a
  set of packed ``(src << 32) | dst`` ints — no per-edge tuple
  allocation;
* the reachability primitives walk those live rows with byte-per-node
  visited marks (``bytearray``) and an int worklist instead of node
  sets.

Readers and writers share the one adjacency: there is no compacted
copy, so a read right after an incremental mutation pays for the
region it traverses, not for rebuilding the whole adjacency.
:meth:`CSRDigraph.freeze` is a no-op kept for API parity with
:class:`~repro.graph.digraph.Digraph`.

``successors``/``predecessors`` return immutable set-like views, the
read API it shares with the generic
:class:`~repro.graph.digraph.Digraph`, so node-level consumers (the
closure rules, the lint passes, the sanitizer) and the generic graph
algorithms run on it unchanged.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from repro.core.nodes import Node

#: Id packing shift for the edge-dedup set. Uids are dense, so 2**32
#: nodes is unreachable in practice.
_SHIFT = 32


class _NeighborView(AbstractSet):
    """Immutable set-like view over one adjacency row.

    Compares equal to any set with the same members; mutation is a
    plain ``AttributeError`` (there is no ``add``/``discard``).
    """

    __slots__ = ("_ids", "_values")

    def __init__(self, ids: List[int], values: List[Node]) -> None:
        self._ids = ids
        self._values = values

    def __iter__(self) -> Iterator[Node]:
        return map(self._values.__getitem__, self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, value: object) -> bool:
        values = self._values
        return any(values[i] == value for i in self._ids)

    @classmethod
    def _from_iterable(cls, iterable):
        # Binary set operations produce plain sets, not views.
        return set(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{{csr view: {set(self)!r}}}"


_EMPTY_ROW: List[int] = []


class CSRDigraph:
    """A directed graph over one factory's nodes with a flat-array
    core.

    See the module docstring for the uid-indexed adjacency rows.
    """

    def __init__(self) -> None:
        #: ``_nodes[uid]`` is the node the graph holds at that uid
        #: (``None`` where it holds none).
        self._nodes: List[Optional[Node]] = []
        #: Per-uid adjacency rows (dedup via ``_edges``); a uid the
        #: graph does not hold has empty rows. Size uid-indexed arrays
        #: by ``len`` of these, not by :attr:`node_count`.
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        #: Packed ``(src << _SHIFT) | dst`` ints, one per edge.
        self._edges: set = set()
        self._node_count = 0
        self._edge_count = 0

    # -- construction -----------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists (possibly with no edges)."""
        uid = node.uid
        nodes = self._nodes
        while len(nodes) <= uid:
            nodes.append(None)
            self._succ.append([])
            self._pred.append([])
        if nodes[uid] is None:
            nodes[uid] = node
            self._node_count += 1

    def add_edge(self, src: Node, dst: Node) -> bool:
        """Insert edge ``src -> dst``; returns True if it was new."""
        # The engine's hottest call, so :meth:`add_node` is inlined.
        s = src.uid
        d = dst.uid
        packed = (s << _SHIFT) | d
        edges = self._edges
        if packed in edges:
            return False
        edges.add(packed)
        nodes = self._nodes
        succ = self._succ
        pred = self._pred
        top = s if s > d else d
        while len(nodes) <= top:
            nodes.append(None)
            succ.append([])
            pred.append([])
        if nodes[s] is None:
            nodes[s] = src
            self._node_count += 1
        if nodes[d] is None:
            nodes[d] = dst
            self._node_count += 1
        succ[s].append(d)
        pred[d].append(s)
        self._edge_count += 1
        return True

    def add_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        for src, dst in edges:
            self.add_edge(src, dst)

    def remove_edge(
        self, src: Node, dst: Node, emptied: Optional[List[Node]] = None
    ) -> bool:
        """Remove edge ``src -> dst``; returns True if it was present.

        The adjacency rows are append-only lists, so removal is an
        O(degree) scan; the incremental daemon only retracts edges
        justified by a retracted definition, so the scans stay
        proportional to the delta's neighbourhood, not the graph.
        Both endpoints stay in the graph; each one the removal leaves
        without edges is appended to ``emptied``, when given (the
        daemon's candidates for :meth:`remove_isolated`).
        """
        s = src.uid
        d = dst.uid
        packed = (s << _SHIFT) | d
        if packed not in self._edges:
            return False
        self._edges.discard(packed)
        succ, pred = self._succ, self._pred
        succ[s].remove(d)
        pred[d].remove(s)
        self._edge_count -= 1
        if emptied is not None:
            if not (succ[s] or pred[s]):
                emptied.append(src)
            if not (succ[d] or pred[d]):
                emptied.append(dst)
        return True

    def remove_isolated(self, node: Node) -> bool:
        """Remove ``node`` if it has no edge; return whether the graph
        is now without it (also when it never had it). Its empty rows
        stay, for the node the factory gives its uid next."""
        if node not in self:
            return True
        uid = node.uid
        if self._succ[uid] or self._pred[uid]:
            return False
        self._nodes[uid] = None
        self._node_count -= 1
        return True

    def freeze(self) -> "CSRDigraph":
        """No-op kept for API parity with
        :meth:`repro.graph.digraph.Digraph.freeze`: readers walk the
        live adjacency rows, so there is no compact form to build."""
        return self

    # -- inspection --------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        uid = node.uid
        nodes = self._nodes
        return uid < len(nodes) and nodes[uid] is node

    def __len__(self) -> int:
        return self._node_count

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def nodes(self) -> Iterator[Node]:
        """The nodes, in uid order."""
        return (node for node in self._nodes if node is not None)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        nodes = self._nodes
        for s, row in enumerate(self._succ):
            src = nodes[s]
            for d in row:
                yield src, nodes[d]

    def _row(self, rows: List[List[int]], node: Node) -> List[int]:
        uid = node.uid
        return rows[uid] if uid < len(rows) else _EMPTY_ROW

    def successors(self, node: Node) -> AbstractSet:
        """Successor set of ``node`` (empty for unknown nodes); an
        immutable view over the live adjacency row."""
        return _NeighborView(self._row(self._succ, node), self._nodes)

    def predecessors(self, node: Node) -> AbstractSet:
        """Predecessor set of ``node`` (empty for unknown nodes)."""
        return _NeighborView(self._row(self._pred, node), self._nodes)

    def has_edge(self, src: Node, dst: Node) -> bool:
        return ((src.uid << _SHIFT) | dst.uid) in self._edges

    def out_degree(self, node: Node) -> int:
        return len(self._row(self._succ, node))

    def in_degree(self, node: Node) -> int:
        return len(self._row(self._pred, node))

    def reverse(self) -> "CSRDigraph":
        """A new graph with every edge flipped."""
        reversed_graph = CSRDigraph()
        for node in self.nodes():
            reversed_graph.add_node(node)
        for src, dst in self.edges():
            reversed_graph.add_edge(dst, src)
        return reversed_graph

    def copy(self) -> "CSRDigraph":
        duplicate = CSRDigraph()
        for node in self.nodes():
            duplicate.add_node(node)
        for src, dst in self.edges():
            duplicate.add_edge(src, dst)
        return duplicate

    # -- flat reachability -------------------------------------------------

    def _start_ids(
        self, sources: Iterable[Node]
    ) -> Tuple[List[int], List[Node]]:
        """Split ``sources`` into uids and *extras* — source nodes the
        graph does not hold (no edge touched them). Reachability
        includes its sources by contract, so extras are reached
        (trivially, by themselves) even though they have no row."""
        nodes = self._nodes
        held = len(nodes)
        start_ids: List[int] = []
        extras: List[Node] = []
        for source in sources:
            uid = source.uid
            if uid < held and nodes[uid] is source:
                start_ids.append(uid)
            else:
                extras.append(source)
        return start_ids, extras

    def _reached_ids(
        self, start_ids: List[int], reverse: bool = False
    ) -> Tuple[bytearray, List[int]]:
        """``(seen, order)`` for the ids reachable from ``start_ids``
        (inclusive): byte marks over the live adjacency rows and the
        int worklist itself (every reached id, in visit order) — no
        node objects, no hashing."""
        rows = self._pred if reverse else self._succ
        seen = bytearray(len(rows))
        order: List[int] = []
        append = order.append
        for s in start_ids:
            if not seen[s]:
                seen[s] = 1
                append(s)
        # The worklist is also the result: iterating a list while
        # appending to it visits the appended tail (CPython semantics),
        # which is exactly a BFS frontier without a cursor.
        for v in order:
            for w in rows[v]:
                if not seen[w]:
                    seen[w] = 1
                    append(w)
        return seen, order

    def reachable_set(
        self, sources: Iterable[Node], reverse: bool = False
    ) -> set:
        """All nodes reachable from ``sources`` (inclusive), walking
        predecessors instead of successors when ``reverse``."""
        start_ids, extras = self._start_ids(sources)
        _, order = self._reached_ids(start_ids, reverse=reverse)
        out = set(map(self._nodes.__getitem__, order))
        out.update(extras)
        return out

    def reaches_node(self, src: Node, dst: Node) -> bool:
        """Early-exit reachability ``src ->* dst`` (strict: one step
        or more unless ``src is dst`` and present)."""
        if src not in self:
            return False
        if src == dst:
            return True
        if dst not in self:
            return False
        s, d = src.uid, dst.uid
        rows = self._succ
        seen = bytearray(len(rows))
        seen[s] = 1
        order = [s]
        append = order.append
        for v in order:
            for w in rows[v]:
                if w == d:
                    return True
                if not seen[w]:
                    seen[w] = 1
                    append(w)
        return False

    def reaches_any(
        self, sources: Iterable[Node], targets: Iterable[Node]
    ) -> Tuple[bool, int]:
        """Does any source reach any target? Returns ``(answer,
        visited)`` with ``visited`` the number of nodes the early-exit
        search marked (query accounting)."""
        target_ids = set()
        stray_targets = []
        for target in targets:
            if target in self:
                target_ids.add(target.uid)
            else:
                stray_targets.append(target)
        start_ids, extras = self._start_ids(sources)
        if stray_targets and extras:
            strays = set(stray_targets)
            if any(extra in strays for extra in extras):
                return True, len(extras)
        rows = self._succ
        seen = bytearray(len(rows))
        order: List[int] = []
        append = order.append
        for s in start_ids:
            if not seen[s]:
                seen[s] = 1
                append(s)
        visited = 0
        for v in order:
            visited += 1
            if v in target_ids:
                return True, visited + len(extras)
            for w in rows[v]:
                if not seen[w]:
                    seen[w] = 1
                    append(w)
        return False, len(order) + len(extras)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CSRDigraph nodes={self.node_count} "
            f"edges={self.edge_count}>"
        )
