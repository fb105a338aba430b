"""The analysis graph: interned ids + int adjacency rows.

Every LC' engine builds this graph, and the query layer, the flow
framework and the incremental daemon read it. It keeps the flat,
id-indexed adjacency the paper's linear-time bound assumes is cheap:

* an :class:`Interner` maps hashable nodes to dense integer ids;
* adjacency is one list of int ids per node and direction (the row of
  id ``v`` is ``_succ[v]``/``_pred[v]``), with edge dedup through a
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

Nodes stay arbitrary hashables and ``successors``/``predecessors``
return immutable set-like views, the read API it shares with the
generic :class:`~repro.graph.digraph.Digraph`, so node-level
consumers (the closure rules, the lint passes, the sanitizer) and the
generic graph algorithms run on it unchanged.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

Node = Hashable

#: Id packing shift for the edge-dedup set. Dense ids are indexes into
#: the interner's value list, so 2**32 nodes is unreachable in practice.
_SHIFT = 32


class Interner:
    """A bijection between hashable values and dense integer ids.

    Ids are allocated in first-seen order and never reused, so they
    double as indexes into :attr:`values` and into every per-node
    row a :class:`CSRDigraph` maintains.
    """

    __slots__ = ("_ids", "values")

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        #: ``values[i]`` is the node interned as id ``i``.
        self.values: List[Node] = []

    def intern(self, value: Node) -> int:
        """The id of ``value``, allocating one on first sight."""
        idx = self._ids.get(value)
        if idx is None:
            idx = len(self.values)
            self._ids[value] = idx
            self.values.append(value)
        return idx

    def id_of(self, value: Node) -> Optional[int]:
        """The id of ``value`` if it was interned, else ``None``."""
        return self._ids.get(value)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: Node) -> bool:
        return value in self._ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interner size={len(self.values)}>"


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
    """A directed graph over hashable nodes with a flat-array core.

    See the module docstring for the id-indexed adjacency rows.
    """

    def __init__(self) -> None:
        self._interner = Interner()
        #: Per-id adjacency rows (dedup via ``_edges``).
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        #: Packed ``(src << _SHIFT) | dst`` ints, one per edge.
        self._edges: set = set()
        self._edge_count = 0

    # -- construction -----------------------------------------------------

    def _id(self, node: Node) -> int:
        idx = self._interner.intern(node)
        if idx == len(self._succ):
            self._succ.append([])
            self._pred.append([])
        return idx

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists (possibly with no edges)."""
        self._id(node)

    def add_edge(self, src: Node, dst: Node) -> bool:
        """Insert edge ``src -> dst``; returns True if it was new."""
        # Interning is inlined: this is the engine's hottest call.
        ids = self._interner._ids
        succ = self._succ
        s = ids.get(src)
        if s is None:
            values = self._interner.values
            s = len(values)
            ids[src] = s
            values.append(src)
            succ.append([])
            self._pred.append([])
        d = ids.get(dst)
        if d is None:
            values = self._interner.values
            d = len(values)
            ids[dst] = d
            values.append(dst)
            succ.append([])
            self._pred.append([])
        packed = (s << _SHIFT) | d
        edges = self._edges
        if packed in edges:
            return False
        edges.add(packed)
        succ[s].append(d)
        self._pred[d].append(s)
        self._edge_count += 1
        return True

    def add_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        for src, dst in edges:
            self.add_edge(src, dst)

    def remove_edge(self, src: Node, dst: Node) -> bool:
        """Remove edge ``src -> dst``; returns True if it was present.

        The adjacency rows are append-only lists, so removal is an
        O(degree) scan; the incremental daemon only retracts edges
        justified by a retracted definition, so the scans stay
        proportional to the delta's neighbourhood, not the graph.
        Interned node ids are never reclaimed (isolated ids cannot be
        reached, so they never change a query answer).
        """
        ids = self._interner._ids
        s = ids.get(src)
        if s is None:
            return False
        d = ids.get(dst)
        if d is None:
            return False
        packed = (s << _SHIFT) | d
        if packed not in self._edges:
            return False
        self._edges.discard(packed)
        self._succ[s].remove(d)
        self._pred[d].remove(s)
        self._edge_count -= 1
        return True

    def freeze(self) -> "CSRDigraph":
        """No-op kept for API parity with
        :meth:`repro.graph.digraph.Digraph.freeze`: readers walk the
        live adjacency rows, so there is no compact form to build."""
        return self

    # -- inspection --------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._interner

    def __len__(self) -> int:
        return len(self._interner)

    @property
    def node_count(self) -> int:
        return len(self._interner)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def nodes(self) -> Iterator[Node]:
        return iter(self._interner.values)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        values = self._interner.values
        for s, row in enumerate(self._succ):
            src = values[s]
            for d in row:
                yield src, values[d]

    def successors(self, node: Node) -> AbstractSet:
        """Successor set of ``node`` (empty for unknown nodes); an
        immutable view over the live adjacency row."""
        idx = self._interner.id_of(node)
        row = _EMPTY_ROW if idx is None else self._succ[idx]
        return _NeighborView(row, self._interner.values)

    def predecessors(self, node: Node) -> AbstractSet:
        """Predecessor set of ``node`` (empty for unknown nodes)."""
        idx = self._interner.id_of(node)
        row = _EMPTY_ROW if idx is None else self._pred[idx]
        return _NeighborView(row, self._interner.values)

    def has_edge(self, src: Node, dst: Node) -> bool:
        ids = self._interner._ids
        s = ids.get(src)
        if s is None:
            return False
        d = ids.get(dst)
        if d is None:
            return False
        return ((s << _SHIFT) | d) in self._edges

    def out_degree(self, node: Node) -> int:
        idx = self._interner.id_of(node)
        return 0 if idx is None else len(self._succ[idx])

    def in_degree(self, node: Node) -> int:
        idx = self._interner.id_of(node)
        return 0 if idx is None else len(self._pred[idx])

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
        """Split ``sources`` into interned ids and *extras* — source
        nodes the graph has never seen. Reachability includes its
        sources by contract, so extras are reached (trivially, by
        themselves) even though no adjacency row exists for them."""
        ids = self._interner._ids
        start_ids: List[int] = []
        extras: List[Node] = []
        for source in sources:
            idx = ids.get(source)
            if idx is None:
                extras.append(source)
            else:
                start_ids.append(idx)
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
        out = set(map(self._interner.values.__getitem__, order))
        out.update(extras)
        return out

    def reaches_node(self, src: Node, dst: Node) -> bool:
        """Early-exit reachability ``src ->* dst`` (strict: one step
        or more unless ``src is dst`` and present)."""
        ids = self._interner._ids
        s = ids.get(src)
        if s is None:
            return False
        if src == dst:
            return True
        d = ids.get(dst)
        if d is None:
            return False
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
        target_list = list(targets)
        target_ids = set()
        stray_targets = []
        ids = self._interner._ids
        for target in target_list:
            idx = ids.get(target)
            if idx is None:
                stray_targets.append(target)
            else:
                target_ids.add(idx)
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
