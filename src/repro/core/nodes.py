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

from typing import Dict, List, Optional, Tuple

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

    ``kind`` is ``expr`` / ``var`` / ``op``. ``ops`` maps each opkey to
    the operator node already formed over this node (the engine's
    premise-1 lookup). ``members`` lists the ``(opkey, inner)`` pairs
    this node canonicalises — more than one only under a congruence.
    """

    __slots__ = (
        "uid",
        "kind",
        "expr",
        "name",
        "opkey",
        "inner",
        "base",
        "depth",
        "has_decon",
        "ty",
        "context",
        "ops",
        "members",
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
        self.base: "Node" = self
        self.depth = 0
        self.has_decon = False
        self.ty: Optional[Type] = None
        self.context: Context = ()
        self.ops: Dict[OpKey, "Node"] = {}
        self.members: List[Tuple[OpKey, "Node"]] = []
        self.demanded = False
        self.absorbed: List[Expr] = []

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
    """Creates and interns subtransitive nodes.

    ``congruence`` (see :mod:`repro.core.datatypes`) may merge node
    terms into class representatives; ``inference`` supplies the types
    the congruences key on (and is required by them). ``node_budget``
    bounds total node creation — exceeded only by programs outside the
    bounded-type classes (the hybrid driver catches the exception).
    """

    def __init__(
        self,
        program: Program,
        congruence=None,
        inference: Optional[InferenceResult] = None,
        node_budget: Optional[int] = None,
        max_depth: Optional[int] = None,
        tracer=None,
    ):
        self.program = program
        self.congruence = congruence
        self.inference = inference
        self.node_budget = node_budget
        #: Optional :class:`repro.obs.trace.Tracer` for budget events;
        #: ``None`` keeps node creation on the uninstrumented path.
        self.tracer = tracer
        #: Operator towers deeper than this are never materialised.
        #: Section 4 bounds the nodes that need considering by the
        #: positions of the program's type trees; flows in a typed
        #: program never traverse deeper towers, but the demand
        #: cascade on cyclic (monovariant-polymorphic) flow graphs
        #: would otherwise echo unboundedly.
        self.max_depth = max_depth if max_depth is not None else 64
        #: Count of operator creations suppressed by the depth cap.
        self.depth_truncations = 0
        #: Variable, operator and congruence-class keys — none of them
        #: mentions an expression's nid.
        self._intern: Dict[tuple, Node] = {}
        #: ``(nid, context) -> node``: every expression occurrence, in
        #: a table of its own so a re-index (the daemon's) re-keys it
        #: without touching :attr:`_intern`.
        self._exprs: Dict[Tuple[int, Context], Node] = {}
        #: ``(kind, ident) -> [node, ...]``: the resolved node of every
        #: occurrence key, across contexts (one entry per distinct
        #: context; under a congruence several contexts may resolve to
        #: the same class node). Queries use this instead of scanning
        #: the tables.
        self._occurrences: Dict[tuple, List[Node]] = {}
        #: ``type(expr) -> [node, ...]``: the node each expression
        #: occurrence resolved to, keyed by the expression's concrete
        #: class. Under a congruence one class node may recur (once per
        #: absorbed occurrence); :meth:`nodes_bearing` deduplicates.
        #: Seed scans (flow analyses, lint) read this instead of
        #: filtering the full node list.
        self._bearing: Dict[type, List[Node]] = {}
        #: Every ``var``-kind node, in creation order (class nodes a
        #: congruence substitutes for a variable are *not* here — they
        #: are ``expr`` kind, exactly as when filtering :attr:`nodes`).
        self.var_nodes: List[Node] = []
        self.nodes: List[Node] = []
        #: Callback invoked when a new (opkey, inner) member joins an
        #: existing node; the LC engine uses it to sweep the closure
        #: rules for members that register after the node is demanded.
        self.on_member = None
        if congruence is not None:
            congruence.attach(self)

    # -- creation ----------------------------------------------------------

    def _new_node(self, kind: str) -> Node:
        if (
            self.node_budget is not None
            and len(self.nodes) >= self.node_budget
        ):
            if self.tracer is not None:
                self.tracer.emit(
                    "budget",
                    resource="node",
                    used=len(self.nodes),
                    budget=self.node_budget,
                    action="exhausted",
                )
            raise AnalysisBudgetExceeded(
                "node", len(self.nodes) + 1, self.node_budget
            )
        node = Node(len(self.nodes), kind)
        self.nodes.append(node)
        return node

    @property
    def node_count(self) -> int:
        return len(self.nodes)

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
                node.absorbed.append(expr)
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
        self.var_nodes.append(node)
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
        self._bearing.setdefault(type(expr), []).append(node)

    def nodes_bearing(self, expr_type) -> List[Node]:
        """Nodes whose expression — their own or a congruence-absorbed
        one — is an instance of ``expr_type`` (a class or tuple of
        classes), deduplicated, in node-creation order. Equivalent to
        filtering :attr:`nodes` but touches only the matching buckets.
        Do not mutate the returned list."""
        buckets = [
            bucket
            for cls, bucket in self._bearing.items()
            if issubclass(cls, expr_type)
        ]
        if not buckets:
            return _NO_NODES
        unique = dict.fromkeys(
            node for bucket in buckets for node in bucket
        )
        return sorted(unique, key=lambda node: node.uid)

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
        return inner.ops.get(opkey)

    def op_node(self, opkey: OpKey, inner: Node) -> Optional[Node]:
        """Form (or fetch) the operator node ``opkey`` over ``inner``.

        Registers the ``(opkey, inner)`` membership on the resolved
        node so demand sweeps cover every congruent spelling of the
        term. Returns ``None`` when the tower would exceed the type-
        template depth bound (the suppressed node cannot correspond to
        a type position, so no well-typed flow needs it).
        """
        existing = inner.ops.get(opkey)
        if existing is not None:
            return existing
        # Template depth: positions inside a datatype constructor
        # argument belong to the argument type's *own* template, so
        # de-constructor operators reset the depth (their potential
        # unboundedness is the congruences' job, not the cap's).
        new_depth = 1 if opkey[0] == "con" else inner.depth + 1
        if new_depth > self.max_depth:
            self.depth_truncations += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "budget",
                    resource="depth",
                    depth=new_depth,
                    budget=self.max_depth,
                    action="truncated",
                )
            return None
        ty = self._op_type(opkey, inner)
        node: Optional[Node] = None
        canon_key: Optional[tuple] = None
        if self.congruence is not None:
            canon_key = self.congruence.canon_op(opkey, inner, ty)
        if canon_key is not None:
            node = self._intern.get(canon_key)
            if node is None:
                node = self._make_op(canon_key, opkey, inner, ty, new_depth)
        else:
            key = (OP, opkey, inner.uid)
            node = self._intern.get(key)
            if node is None:
                node = self._make_op(key, opkey, inner, ty, new_depth)
        inner.ops[opkey] = node
        node.members.append((opkey, inner))
        if self.on_member is not None:
            self.on_member(node, opkey, inner)
        return node

    def _make_op(
        self,
        key: tuple,
        opkey: OpKey,
        inner: Node,
        ty: Optional[Type],
        depth: int,
    ) -> Node:
        node = self._new_node(OP)
        self._intern[key] = node
        node.opkey = opkey
        node.inner = inner
        node.base = inner.base
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
