"""The subtransitive node grammar, hash-consed.

Section 3 of the paper enriches program nodes with *operator* nodes::

    n ::= e | dom(n) | ran(n)

and Section 6 adds one operator per record field (``proj_j``) and one
"de-constructor" operator per datatype-constructor argument
(``c^-1_j``); we additionally give reference cells a ``cell`` operator
so ML-style refs fit the same framework.

Each operator has a *variance* that determines its closure rule:

* ``dom`` is **contravariant** (arguments flow against call edges —
  rule CLOSE-DOM');
* ``ran``, ``proj_j`` and constructor-argument operators are
  **covariant** (results flow with edges — rule CLOSE-RAN' and its
  analogues);
* ``cell`` is **invariant** (reads are covariant, writes are
  contravariant), so it participates in both closure rules.

Nodes are hash-consed by a :class:`NodeFactory`: structurally equal
node terms are the same Python object, so the engine's per-edge work
is dictionary-free once it holds node references. The factory also
implements the Section 6 *congruences* by canonicalising node terms at
creation time (see :mod:`repro.core.datatypes`), and supports
*contexts* — extra key components used by the polyvariant analysis of
Section 7 to instantiate a binding's graph fragment per use.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import AnalysisBudgetExceeded
from repro.lang.ast import Con, Expr, Lam, Program, Record, Ref
from repro.types.infer import InferenceResult
from repro.types.types import (
    TData,
    TFun,
    TRecord,
    TRef,
    Type,
    prune,
)

#: Operator keys. ``('dom',)``, ``('ran',)``, ``('proj', j)``,
#: ``('con', cname, i)``, ``('cell',)``.
OpKey = Tuple

#: A polyvariant context: a tuple of use-occurrence nids (empty for
#: the monovariant analysis).
Context = Tuple[int, ...]

EXPR = "expr"
VAR = "var"
OP = "op"

#: Shared empty occurrence bucket (callers must not mutate).
_NO_NODES: List["Node"] = []

#: Shared empty operator map of a node nothing was formed over.
_NO_OPS: Mapping[OpKey, "Node"] = MappingProxyType({})


#: Operator heads participating in the covariant closure rule (the
#: engine's close loop tests these inline — set membership on the
#: head, no call overhead).
COVARIANT_HEADS = frozenset(("ran", "proj", "con", "cell"))

#: Operator heads participating in the contravariant closure rule.
CONTRAVARIANT_HEADS = frozenset(("dom", "cell"))


def op_is_covariant(opkey: OpKey) -> bool:
    """Does ``opkey`` participate in the covariant closure rule?"""
    return opkey[0] in COVARIANT_HEADS


def op_is_contravariant(opkey: OpKey) -> bool:
    """Does ``opkey`` participate in the contravariant closure rule?"""
    return opkey[0] in CONTRAVARIANT_HEADS


class Node:
    """One node of the subtransitive graph.

    ``kind`` is ``expr`` / ``var`` / ``op``. A node refers only to what
    it was built from: an operator node to its ``inner`` node, and
    every node to its base node by uid (``base_uid``). The operators
    formed over a node and the extra members a congruence class picks
    up live in the :class:`NodeFactory` (:meth:`NodeFactory.find_op`,
    :meth:`NodeFactory.members`), so the node graph holds no reference
    cycle and a dropped graph is freed by reference counting.
    """

    __slots__ = (
        "uid",
        "kind",
        "expr",
        "name",
        "opkey",
        "inner",
        "base_uid",
        "depth",
        "has_decon",
        "ty",
        "context",
        "demanded",
        "absorbed",
    )

    def __init__(self, uid: int, kind: str):
        self.uid = uid
        self.kind = kind
        self.expr: Optional[Expr] = None
        self.name: Optional[str] = None
        self.opkey: Optional[OpKey] = None
        self.inner: Optional["Node"] = None
        self.base_uid = uid
        self.depth = 0
        self.has_decon = False
        self.ty: Optional[Type] = None
        self.context: Context = ()
        self.demanded = False
        #: Expressions a congruence class node stands for (a list
        #: once the node absorbs one; the shared empty tuple before).
        self.absorbed: Sequence[Expr] = ()

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``dom(ran(e17))``."""
        if self.kind == EXPR:
            if self.expr is None:
                return f"<class {self.ty}>"
            tag = (
                self.expr.label
                if isinstance(self.expr, Lam)
                else f"e{self.expr.nid}"
            )
            if self.context:
                tag += "@" + ".".join(map(str, self.context))
            return tag
        if self.kind == VAR:
            tag = str(self.name)
            if self.context:
                tag += "@" + ".".join(map(str, self.context))
            return tag
        assert self.opkey is not None and self.inner is not None
        op = self.opkey
        if op[0] == "proj":
            head = f"proj{op[1]}"
        elif op[0] == "con":
            head = f"{op[1]}~{op[2]}"
        else:
            head = op[0]
        return f"{head}({self.inner.describe()})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.uid} {self.describe()}>"


class NodeFactory:
    """Creates and interns subtransitive nodes, and is the one
    allocator of their ids.

    A node's ``uid`` is its id everywhere, the graph's rows included
    (:class:`~repro.graph.csr.CSRDigraph`). Live nodes are kept by
    uid, so :meth:`release` is O(1) and :attr:`nodes` (a view) stays
    in creation order with no holes; a new node takes the last
    released uid first, so uids stay dense. A cold run never
    releases: its uids are 0..n-1 in creation order.

    ``congruence`` (see :mod:`repro.core.datatypes`) may merge node
    terms into class representatives; ``inference`` supplies the types
    the congruences key on (and is required by them). ``node_budget``
    bounds the live nodes — exceeded only by programs outside the
    bounded-type classes (the hybrid driver catches the exception).
    """

    def __init__(
        self,
        program: Program,
        congruence=None,
        inference: Optional[InferenceResult] = None,
        node_budget: Optional[int] = None,
        max_depth: Optional[int] = None,
        events=None,
    ):
        self.program = program
        self.congruence = congruence
        self.inference = inference
        self.node_budget = node_budget
        #: Optional :class:`repro.obs.events.EventLog` for budget events;
        #: ``None`` keeps node creation on the uninstrumented path.
        self.events = events
        #: Operator towers deeper than this are never materialised.
        #: Section 4 bounds the nodes that need considering by the
        #: positions of the program's type trees; flows in a typed
        #: program never traverse deeper towers, but the demand
        #: cascade on cyclic (monovariant-polymorphic) flow graphs
        #: would otherwise echo unboundedly.
        self.max_depth = max_depth if max_depth is not None else 64
        #: Count of operator creations suppressed by the depth cap.
        self.depth_truncations = 0
        #: Variable and congruence-class keys — neither mentions an
        #: expression's nid.
        self._intern: Dict[tuple, Node] = {}
        #: ``(nid, context) -> node``: every expression occurrence, in
        #: a table of its own so the daemon re-keys a renumbered range
        #: (:meth:`renumber_expr`) without touching :attr:`_intern`.
        self._exprs: Dict[Tuple[int, Context], Node] = {}
        #: ``(kind, ident) -> [node, ...]``: the resolved node of every
        #: occurrence key, across contexts (one entry per distinct
        #: context; under a congruence several contexts may resolve to
        #: the same class node). Queries use this instead of scanning
        #: the tables.
        self._occurrences: Dict[tuple, List[Node]] = {}
        #: ``type(expr) -> {uid: node}``: the node each expression
        #: occurrence resolved to, keyed by the expression's concrete
        #: class (a class node that absorbed several occurrences is
        #: one entry). Seed scans (flow analyses, lint, the query
        #: indexes) read this instead of filtering the full node list.
        self._bearing: Dict[type, Dict[int, Node]] = {}
        #: Every live node by uid; :attr:`nodes` is a view of it.
        self._live: Dict[int, Node] = {}
        self.nodes = self._live.values()
        #: Released uids; the last one released is handed out first.
        self._free: List[int] = []
        #: ``inner uid -> {opkey: node}``: the operator node formed over
        #: each node, per opkey (under a congruence, the class node the
        #: term resolved to). Owned here rather than by ``inner`` so
        #: that nodes point only down, at what they were built from.
        #: It is also the intern table of structural operator nodes.
        self._ops: Dict[int, Dict[OpKey, Node]] = {}
        #: ``node uid -> [(opkey, inner), ...]``: the terms that joined
        #: an existing class node after the one it was formed from
        #: (congruences only; a term may be the class node's own
        #: ``inner``).
        self._joined: Dict[int, List[Tuple[OpKey, Node]]] = {}

    # -- creation ----------------------------------------------------------

    def _new_node(self, kind: str) -> Node:
        live = self._live
        if self.node_budget is not None and len(live) >= self.node_budget:
            self._exhausted()
        free = self._free
        uid = free.pop() if free else len(live)
        node = live[uid] = Node(uid, kind)
        return node

    def _exhausted(self) -> None:
        """Raise the node budget's ``AnalysisBudgetExceeded``."""
        if self.events is not None:
            self.events.emit(
                "budget",
                resource="node",
                used=len(self.nodes),
                budget=self.node_budget,
                action="exhausted",
            )
        raise AnalysisBudgetExceeded(
            "node", len(self.nodes) + 1, self.node_budget
        )

    @property
    def node_count(self) -> int:
        return len(self._live)

    def holds(self, node: Node) -> bool:
        """Is ``node`` the live node at its uid? (A released node is
        not, even once its uid is handed out again.)"""
        return self._live.get(node.uid) is node

    @property
    def var_nodes(self) -> List[Node]:
        """Every ``var``-kind node, in creation order (class nodes a
        congruence substitutes for a variable are *not* here — they
        are ``expr`` kind, exactly as when filtering :attr:`nodes`)."""
        return [
            node
            for key, node in self._intern.items()
            if key[0] == VAR and node.kind == VAR
        ]

    def type_of_expr(self, expr: Expr) -> Optional[Type]:
        if self.inference is None:
            return None
        try:
            return self.inference.type_of(expr)
        except Exception:
            return None

    def type_of_var(self, name: str) -> Optional[Type]:
        if self.inference is None:
            return None
        try:
            return self.inference.type_of_var(name)
        except Exception:
            return None

    def expr_node(self, expr: Expr, context: Context = ()) -> Node:
        """The node of an expression occurrence (under ``context``)."""
        node = self._exprs.get((expr.nid, context))
        if node is not None:
            return node
        ty = self.type_of_expr(expr)
        if self.congruence is not None:
            canon = self.congruence.canon_base(ty)
            if canon is not None:
                node = self._class_node(canon, ty)
                if node.absorbed:
                    node.absorbed.append(expr)
                else:
                    node.absorbed = [expr]
                self.record_expr(expr, context, node)
                return node
        node = self._new_node(EXPR)
        node.expr = expr
        node.ty = ty
        node.context = context
        self.record_expr(expr, context, node)
        return node

    def var_node(self, name: str, context: Context = ()) -> Node:
        """The node of a variable (under ``context``)."""
        key = (VAR, name, context)
        node = self._intern.get(key)
        if node is not None:
            return node
        ty = self.type_of_var(name)
        if self.congruence is not None:
            canon = self.congruence.canon_base(ty)
            if canon is not None:
                node = self._class_node(canon, ty)
                self._intern[key] = node
                self._record_occurrence(VAR, name, node)
                return node
        node = self._new_node(VAR)
        self._intern[key] = node
        node.name = name
        node.ty = ty
        node.context = context
        self._record_occurrence(VAR, name, node)
        return node

    def _record_occurrence(self, kind: str, ident, node: Node) -> None:
        bucket_key = (kind, ident)
        bucket = self._occurrences.get(bucket_key)
        if bucket is None:
            self._occurrences[bucket_key] = [node]
        else:
            bucket.append(node)

    def record_expr(self, expr: Expr, context: Context, node: Node) -> None:
        """Enter ``node`` as the occurrence of ``expr`` under
        ``context``: the expression table, its occurrence bucket and
        the bearing index."""
        self._exprs[(expr.nid, context)] = node
        self._record_occurrence(EXPR, expr.nid, node)
        bucket = self._bearing.get(type(expr))
        if bucket is None:
            self._bearing[type(expr)] = {node.uid: node}
        else:
            bucket[node.uid] = node

    def forget_expr(self, expr: Expr) -> List[Node]:
        """Drop every occurrence of ``expr`` from the expression table,
        its occurrence bucket and the bearing index, so a lookup by its
        nid can never resurrect it (the daemon retires a replaced
        definition's subtree this way), and return their nodes, which
        stay live until :meth:`release` drops them. Only for a factory
        without a congruence, where an occurrence's node is its own and
        carries its context."""
        nodes = self._occurrences.pop((EXPR, expr.nid), _NO_NODES)
        bucket = self._bearing.get(type(expr), {})
        for node in nodes:
            del self._exprs[(expr.nid, node.context)]
            bucket.pop(node.uid, None)
        return nodes

    def renumber_expr(self, expr: Expr, nid: int) -> None:
        """Move ``expr`` to ``nid``, re-keying its occurrences (one
        :meth:`record_expr` write each). Same precondition as
        :meth:`forget_expr`; when a range moves, renumber it in the
        order that never lands on a key not yet moved."""
        nodes = self._occurrences.pop((EXPR, expr.nid), _NO_NODES)
        for node in nodes:
            del self._exprs[(expr.nid, node.context)]
        expr.nid = nid
        for node in nodes:
            self.record_expr(expr, node.context, node)

    def nodes_bearing(self, expr_type) -> List[Node]:
        """Nodes whose expression — their own or a congruence-absorbed
        one — is an instance of ``expr_type`` (a class or tuple of
        classes), deduplicated, in uid order: creation order only
        while nothing was released. Touches only the matching buckets.
        Do not mutate the returned list."""
        merged: Dict[int, Node] = {}
        for cls, bucket in self._bearing.items():
            if issubclass(cls, expr_type):
                merged.update(bucket)
        if not merged:
            return _NO_NODES
        return [merged[uid] for uid in sorted(merged)]

    def occurrences(self, kind: str, ident) -> List[Node]:
        """Every node the ``(kind, ident)`` occurrence resolved to,
        over all contexts (possibly with repeats under a congruence).
        Do not mutate the returned list."""
        return self._occurrences.get((kind, ident), _NO_NODES)

    def peek_expr(self, expr: Expr, context: Context = ()) -> Optional[Node]:
        """The node of an expression occurrence *if it was built* —
        never creates. Read-only consumers (lint passes, sanitizer)
        use this so probing a graph cannot grow it."""
        return self._exprs.get((expr.nid, context))

    def peek_var(self, name: str, context: Context = ()) -> Optional[Node]:
        """The node of a variable if it was built — never creates."""
        return self._intern.get((VAR, name, context))

    def _class_node(self, canon_key: tuple, ty: Optional[Type]) -> Node:
        node = self._intern.get(canon_key)
        if node is None:
            node = self._new_node(EXPR)
            self._intern[canon_key] = node
            node.ty = ty
        return node

    def find_op(self, opkey: OpKey, inner: Node) -> Optional[Node]:
        """The operator node over ``inner``, if it was ever formed."""
        ops = self._ops.get(inner.uid)
        return None if ops is None else ops.get(opkey)

    def ops_over(self, inner: Node) -> Mapping[OpKey, Node]:
        """Every operator node formed over ``inner``, by opkey, in
        formation order. Do not mutate the returned mapping."""
        return self._ops.get(inner.uid, _NO_OPS)

    def members(self, node: Node) -> Iterator[Tuple[OpKey, Node]]:
        """The ``(opkey, inner)`` terms ``node`` canonicalises: the one
        it was formed from, then those that joined it under a
        congruence, in joining order. Terms that join while the
        iterator runs are yielded too."""
        if node.opkey is not None:
            yield node.opkey, node.inner
        joined = self._joined.get(node.uid)
        if joined is not None:
            yield from joined

    def op_node(self, opkey: OpKey, inner: Node) -> Optional[Node]:
        """Form (or fetch) the operator node ``opkey`` over ``inner``.

        Under a congruence the term may resolve to an existing class
        node, which it then joins as a member (:meth:`members`), so
        demand sweeps cover every congruent spelling of the term. A
        caller that has demanded that node sweeps the new member (the
        LC' engine does). Returns ``None`` when the tower would exceed
        the type-template depth bound (the suppressed node cannot
        correspond to a type position, so no well-typed flow needs it).
        """
        ops = self._ops.get(inner.uid)
        if ops is not None:
            existing = ops.get(opkey)
            if existing is not None:
                return existing
        # Template depth: positions inside a datatype constructor
        # argument belong to the argument type's *own* template, so
        # de-constructor operators reset the depth (their potential
        # unboundedness is the congruences' job, not the cap's).
        new_depth = 1 if opkey[0] == "con" else inner.depth + 1
        if new_depth > self.max_depth:
            self.depth_truncations += 1
            if self.events is not None:
                self.events.emit(
                    "budget",
                    resource="depth",
                    depth=new_depth,
                    budget=self.max_depth,
                    action="truncated",
                )
            return None
        ty = self._op_type(opkey, inner)
        canon_key: Optional[tuple] = None
        if self.congruence is not None:
            canon_key = self.congruence.canon_op(opkey, inner, ty)
        if canon_key is None:
            node = self._make_op(opkey, inner, ty, new_depth)
        else:
            node = self._intern.get(canon_key)
            if node is None:
                node = self._make_op(opkey, inner, ty, new_depth)
                self._intern[canon_key] = node
            else:
                joined = self._joined.get(node.uid)
                if joined is None:
                    self._joined[node.uid] = [(opkey, inner)]
                else:
                    joined.append((opkey, inner))
        if ops is None:
            self._ops[inner.uid] = {opkey: node}
        else:
            ops[opkey] = node
        return node

    def _make_op(
        self,
        opkey: OpKey,
        inner: Node,
        ty: Optional[Type],
        depth: int,
    ) -> Node:
        node = self._new_node(OP)
        node.opkey = opkey
        node.inner = inner
        node.base_uid = inner.base_uid
        node.depth = depth
        node.has_decon = inner.has_decon or opkey[0] == "con"
        node.ty = ty
        node.context = inner.context
        return node

    def _op_type(self, opkey: OpKey, inner: Node) -> Optional[Type]:
        """The type of ``opkey`` applied to ``inner``, when known."""
        if opkey[0] == "con":
            # Constructor-argument types come from the declaration and
            # are always known.
            signature = self.program.constructor_signature(opkey[1])
            return prune(signature[opkey[2] - 1])
        ty = inner.ty
        if ty is None:
            return None
        # Path-compress the pruned type back onto the node so repeated
        # operator formation over the same node prunes once.
        ty = prune(ty)
        inner.ty = ty
        if opkey[0] == "dom" and isinstance(ty, TFun):
            return prune(ty.param)
        if opkey[0] == "ran" and isinstance(ty, TFun):
            return prune(ty.result)
        if opkey[0] == "proj" and isinstance(ty, TRecord):
            index = opkey[1]
            if index <= len(ty.fields):
                return prune(ty.fields[index - 1])
        if opkey[0] == "cell" and isinstance(ty, TRef):
            return prune(ty.content)
        return None

    # -- release -----------------------------------------------------------

    def release(
        self, nodes: Iterable[Node], detach: Callable[[Node], bool]
    ) -> None:
        """Drop each of ``nodes`` and the operator nodes formed over
        it, towers first, if no table resolves to it (an expression
        occurrence goes only once :meth:`forget_expr` dropped it) and
        ``detach`` takes it out of the graph, which it does only for a
        node without edges. A node already dropped is skipped. Same
        precondition as :meth:`forget_expr`."""
        for node in nodes:
            if self.holds(node):
                self._release(node, detach)

    def _release(self, node: Node, detach: Callable[[Node], bool]) -> None:
        uid = node.uid
        all_ops = self._ops
        ops = all_ops.get(uid)
        if ops:
            for op in list(ops.values()):
                self._release(op, detach)
            if uid in all_ops:
                return
        kind = node.kind
        if (
            kind == EXPR
            and self._exprs.get((node.expr.nid, node.context)) is node
        ) or not detach(node):
            return
        if kind == OP:
            ops = all_ops[node.inner.uid]
            del ops[node.opkey]
            if not ops:
                del all_ops[node.inner.uid]
        elif kind == VAR:
            del self._intern[(VAR, node.name, node.context)]
            key = (VAR, node.name)
            bucket = self._occurrences[key]
            bucket.remove(node)
            if not bucket:
                del self._occurrences[key]
        del self._live[uid]
        self._free.append(uid)
