"""The LC' engine: building the subtransitive control-flow graph.

This is the paper's main contribution (Section 3). The transition
system LC' consists of per-program-construct *build* rules::

    (ABS-1)  x -> dom(\\^l x.e)          for \\^l x.e in P
    (ABS-2)  ran(\\^l x.e) -> e          for \\^l x.e in P
    (APP-1)  dom(e1) -> e2              for (e1 e2) in P
    (APP-2)  (e1 e2) -> ran(e1)         for (e1 e2) in P

plus two *demand-driven closure* rules::

    (CLOSE-DOM')  n1 -> n2,  n -> dom(n2)   =>  dom(n2) -> dom(n1)
    (CLOSE-RAN')  n1 -> n2,  n -> ran(n1)   =>  ran(n1) -> ran(n2)

"This means CLOSE-DOM' can only be applied if there is a transition
whose right-hand-side could immediately match with the left-hand-side
of the added transition, i.e. if it is needed" — a node counts as
*demanded* once it has an incoming edge.

The engine is event-driven: each inserted edge is examined once as a
potential premise of each closure rule, and a node's first incoming
edge triggers a one-time sweep applying the closure rules to the edges
that arrived before the demand. Both closure rules generalise over
operator *variance* (:mod:`repro.core.nodes`), which is what extends
the system to records, datatypes and ref cells (Section 6) without
special cases.

Statistics distinguish the *build* phase from the *close* phase,
matching the paper's Table 1/2 columns (build time/nodes, close
time/nodes). The paper's key empirical claim — "the number of nodes
added in the close phase is typically no more than the number of nodes
in the build phase" — is directly measurable from
:class:`LCStatistics`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Deque, Dict, FrozenSet, List, Optional, Tuple

from repro._util import ensure_recursion_limit
from repro.errors import AnalysisBudgetExceeded
from repro.obs.events import current_profiler, span
from repro.obs.metrics import MetricsRegistry
from repro.graph.csr import CSRDigraph
from repro.lang.ast import (
    App,
    Assign,
    Case,
    Con,
    Deref,
    Expr,
    If,
    Lam,
    Let,
    Letrec,
    Lit,
    Prim,
    Program,
    Proj,
    Record,
    Ref,
    Var,
)
from repro.types.infer import InferenceResult

from repro.core.datatypes import Congruence
from repro.core.nodes import (
    CONTRAVARIANT_HEADS,
    COVARIANT_HEADS,
    Context,
    Node,
    NodeFactory,
    OpKey,
)

#: Default node budget multiplier: LC' may create at most this many
#: nodes per syntax node before concluding the program is not
#: bounded-type. Typed programs observed in practice use ~2-3x.
DEFAULT_BUDGET_FACTOR = 64


def default_node_budget(size: int) -> int:
    """The node budget LC' runs under by default for a program of
    ``size`` syntax nodes (:data:`DEFAULT_BUDGET_FACTOR` per node, with
    a floor of 16 nodes' worth for tiny programs)."""
    return DEFAULT_BUDGET_FACTOR * max(size, 16)


#: The named LC' rules, in presentation order (build rules first).
RULE_NAMES = (
    "ABS-1",
    "ABS-2",
    "APP-1",
    "APP-2",
    "CLOSE-COV",
    "CLOSE-CONTRA",
)


class _RuleCounters(Mapping):
    """Dict-shaped live view over the registry-backed rule counters.

    Reads always reflect the engine's current counts; ``dict(view)``
    snapshots them. The rule set is fixed (:data:`RULE_NAMES`), so the
    view rejects writes to unknown rules.
    """

    __slots__ = ("_counters",)

    def __init__(self, counters) -> None:
        self._counters = counters

    def __getitem__(self, key: str) -> int:
        return self._counters[key].value

    def __setitem__(self, key: str, value: int) -> None:
        self._counters[key].value = value

    def __iter__(self):
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self))


class LCStatistics:
    """Build/close accounting for one LC' run.

    Rule-application counts live in a :class:`~repro.obs.metrics.
    MetricsRegistry` (one per run, under ``rules.*``) and are exposed
    through :attr:`rule_applications` for compatibility. Build rules
    (``ABS-*``/``APP-*``) count once per program construct, matching
    the paper's per-syntax accounting; the closure rules
    (``CLOSE-COV``/``CLOSE-CONTRA``) count only firings whose
    conclusion edge was actually added, so in a batch run their total
    equals ``close_edges`` exactly (duplicate conclusions and
    depth-capped endpoints are tallied separately under
    ``edges.duplicate`` / ``edges.dropped``).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.build_nodes = 0
        self.build_edges = 0
        self.close_nodes = 0
        self.close_edges = 0
        self.build_seconds = 0.0
        self.close_seconds = 0.0
        self.demanded_nodes = 0
        self._rules = {
            name: self.registry.counter(f"rules.{name}")
            for name in RULE_NAMES
        }
        self.rule_applications = _RuleCounters(self._rules)

    @property
    def total_nodes(self) -> int:
        return self.build_nodes + self.close_nodes

    @property
    def total_edges(self) -> int:
        return self.build_edges + self.close_edges

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.close_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LCStatistics build={self.build_nodes}n/"
            f"{self.build_edges}e close={self.close_nodes}n/"
            f"{self.close_edges}e>"
        )


class SubtransitiveGraph:
    """The finished subtransitive control-flow graph.

    Its transitive closure encodes standard CFA (Propositions 1-2):
    ``l in L(e)`` iff the abstraction labelled ``l`` is reachable from
    ``e``'s node. Use :class:`repro.core.queries.SubtransitiveCFA` for
    the query layer.
    """

    def __init__(
        self,
        program: Program,
        factory: NodeFactory,
        graph: CSRDigraph,
        stats: LCStatistics,
        close_edges: FrozenSet[Tuple[Node, Node]] = frozenset(),
    ):
        self.program = program
        self.factory = factory
        self.graph = graph
        self.stats = stats
        #: Edges first added by a closure-rule firing (as opposed to a
        #: build rule); :func:`repro.export.graph_to_dot` styles them.
        self.close_edges = close_edges
        #: The type-inference outcome the run started from (an
        #: ``InferenceResult``, or the ``TypeInferenceError`` that
        #: showed the program untypeable), kept so lint and the audit
        #: reuse it; ``None`` when the run inferred nothing.
        self.inference = None

    def node_of(self, expr: Expr, context: Context = ()) -> Node:
        """The graph node of an expression occurrence."""
        return self.factory.expr_node(expr, context)

    def node_of_var(self, name: str, context: Context = ()) -> Node:
        """The graph node of a variable."""
        return self.factory.var_node(name, context)

    def sanitize(self, dtc_limit: Optional[int] = None):
        """Run the :mod:`repro.lint.sanitize` well-formedness checks
        on this graph and return the :class:`~repro.lint.sanitize.
        SanitizeReport`."""
        from repro.lint.sanitize import DEFAULT_DTC_LIMIT, sanitize

        return sanitize(
            self,
            dtc_limit=(
                dtc_limit if dtc_limit is not None else DEFAULT_DTC_LIMIT
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubtransitiveGraph nodes={self.graph.node_count} "
            f"edges={self.graph.edge_count}>"
        )


class LCEngine:
    """Runs LC' on a program. One engine per analysis."""

    def __init__(
        self,
        program: Program,
        congruence: Optional[Congruence] = None,
        inference: Optional[InferenceResult] = None,
        node_budget: Optional[int] = None,
        polyvariant_lets: Optional[frozenset] = None,
        instance_budget: int = 10_000,
        max_depth: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        events=None,
    ):
        if congruence is not None and congruence.requires_types:
            if inference is None:
                raise ValueError(
                    f"congruence {congruence.name!r} requires type "
                    "information; pass inference=infer_types(program)"
                )
        if node_budget is None:
            node_budget = default_node_budget(program.size)
        self.program = program
        self.factory = NodeFactory(
            program, congruence, inference, node_budget, max_depth,
            events=events,
        )
        self.graph = CSRDigraph()
        self.stats = LCStatistics(registry)
        #: Optional :class:`repro.obs.events.EventLog`; ``None`` (the
        #: default) is the no-op mode — every emission site guards on
        #: it, so uninstrumented runs pay one pointer test.
        self.events = events
        #: The bound request's :class:`repro.obs.profile.SpanProfiler`
        #: while :meth:`close` runs, else ``None``: read once per call
        #: and dropped on return, since a warm engine outlives the
        #: request. Span sites are coarse — demand sweeps, rule-family
        #: loops — never per rule firing.
        self.profiler = None
        #: Edges whose first insertion came from a closure rule, in
        #: insertion order. Only genuinely-new edges are recorded
        #: (``_edge`` appends after ``add_edge`` reports the edge as
        #: new), so a list needs no dedup and skips per-edge hashing.
        self.close_edge_set: List[Tuple[Node, Node]] = []
        # Hot-path counter bindings (one attribute lookup per firing).
        rules = self.stats._rules
        self._c_abs1 = rules["ABS-1"]
        self._c_abs2 = rules["ABS-2"]
        self._c_app1 = rules["APP-1"]
        self._c_app2 = rules["APP-2"]
        self._c_close_cov = rules["CLOSE-COV"]
        self._c_close_contra = rules["CLOSE-CONTRA"]
        self._c_dup_edges = self.stats.registry.counter("edges.duplicate")
        self._c_dropped_edges = self.stats.registry.counter("edges.dropped")
        self.pending: Deque[Tuple[Node, Node]] = deque()
        #: Optional ``(src, dst, close)`` callback observing every
        #: *attempted* edge emission (after the None/self-edge drop,
        #: before duplicate detection). The incremental daemon uses it
        #: to reference-count build-edge emissions per definition so a
        #: retraction knows when a physical edge loses its last
        #: justification. Same opt-in contract as ``events``.
        self.edge_recorder = None
        #: Names of let/letrec bindings analysed polyvariantly
        #: (Section 7); empty/None for the monovariant analysis.
        self.polyvariant_lets = polyvariant_lets or frozenset()
        self.instance_budget = instance_budget
        self._instances = 0
        #: bound expression of each polyvariant binder.
        self._poly_bound: Dict[str, Expr] = {}
        #: nids of recursive occurrences (a letrec binder used inside
        #: its own bound expression) — these stay in-instance.
        self._recursive_occurrences: frozenset = frozenset()
        self.factory.on_member = self.register_member_sweep

    # -- public driver -------------------------------------------------------

    def run(self) -> SubtransitiveGraph:
        """Build + close; returns the finished graph."""
        ensure_recursion_limit()
        registry = self.stats.registry
        events = self.events
        build_timer = registry.timer("phase.build")
        if events is not None:
            events.emit("phase", phase="build", action="start")
        with build_timer:
            self.build()
        self.stats.build_seconds = build_timer.last_seconds
        self.stats.build_nodes = self.factory.node_count
        self.stats.build_edges = self.graph.edge_count
        if events is not None:
            events.emit(
                "phase",
                phase="build",
                action="end",
                nodes=self.stats.build_nodes,
                edges=self.stats.build_edges,
            )
        close_timer = registry.timer("phase.close")
        if events is not None:
            events.emit("phase", phase="close", action="start")
        with close_timer:
            self.close()
        self.stats.close_seconds = close_timer.last_seconds
        self.stats.close_nodes = (
            self.factory.node_count - self.stats.build_nodes
        )
        self.stats.close_edges = (
            self.graph.edge_count - self.stats.build_edges
        )
        self._export_gauges()
        if events is not None:
            events.emit(
                "phase",
                phase="close",
                action="end",
                nodes=self.stats.close_nodes,
                edges=self.stats.close_edges,
            )
        return SubtransitiveGraph(
            self.program,
            self.factory,
            self.graph,
            self.stats,
            frozenset(self.close_edge_set),
        )

    def _export_gauges(self) -> None:
        """Publish node/budget/graph levels into the registry (called
        once per run — keeps gauge writes off the hot path)."""
        registry = self.stats.registry
        factory = self.factory
        registry.gauge("nodes.created").set(factory.node_count)
        if factory.node_budget is not None:
            registry.gauge("nodes.budget").set(factory.node_budget)
        registry.gauge("nodes.depth_truncations").set(
            factory.depth_truncations
        )
        registry.gauge("nodes.demanded").set(self.stats.demanded_nodes)
        registry.gauge("graph.nodes").set(self.graph.node_count)
        registry.gauge("graph.edges").set(self.graph.edge_count)

    # -- build phase ---------------------------------------------------------

    def build(self) -> None:
        """Add the program-structure edges (a linear pass)."""
        with span("core.build"):
            if self.polyvariant_lets:
                self._collect_poly_bindings()
            self._build_expr(self.program.root, ())

    def _collect_poly_bindings(self) -> None:
        recursive = set()
        for node in self.program.nodes:
            if (
                isinstance(node, (Let, Letrec))
                and node.name in self.polyvariant_lets
            ):
                self._poly_bound[node.name] = node.bound
                if isinstance(node, Letrec):
                    recursive.update(
                        sub.nid
                        for sub in node.bound.walk()
                        if isinstance(sub, Var) and sub.name == node.name
                    )
        self._recursive_occurrences = frozenset(recursive)

    def _build_expr(self, expr: Expr, ctx: Context) -> None:
        """Emit build edges for ``expr`` and its subtree in ``ctx``."""
        for node in expr.walk():
            self._build_one(node, ctx)

    def _build_one(self, node: Expr, ctx: Context) -> None:
        make = self.factory.expr_node
        mkvar = self.factory.var_node
        mkop = self.factory.op_node
        if isinstance(node, Var):
            if (
                node.name in self._poly_bound
                and node.nid not in self._recursive_occurrences
            ):
                self._instantiate(node, ctx)
            else:
                self._edge(make(node, ctx), mkvar(node.name, ctx))
        elif isinstance(node, Lam):
            lam_node = make(node, ctx)
            self._edge(
                mkvar(node.param, ctx), mkop(("dom",), lam_node)
            )
            self._c_abs1.value += 1
            self._edge(mkop(("ran",), lam_node), make(node.body, ctx))
            self._c_abs2.value += 1
            if self.events is not None:
                self.events.emit(
                    "rule", rule="ABS", site=node.nid, phase="build"
                )
        elif isinstance(node, App):
            fn_node = make(node.fn, ctx)
            self._edge(mkop(("dom",), fn_node), make(node.arg, ctx))
            self._c_app1.value += 1
            self._edge(make(node, ctx), mkop(("ran",), fn_node))
            self._c_app2.value += 1
            if self.events is not None:
                self.events.emit(
                    "rule", rule="APP", site=node.nid, phase="build"
                )
        elif isinstance(node, (Let, Letrec)):
            if node.name not in self._poly_bound:
                self._edge(mkvar(node.name, ctx), make(node.bound, ctx))
            self._edge(make(node, ctx), make(node.body, ctx))
        elif isinstance(node, Record):
            rec_node = make(node, ctx)
            for index, field in enumerate(node.fields, start=1):
                self._edge(
                    mkop(("proj", index), rec_node), make(field, ctx)
                )
        elif isinstance(node, Proj):
            self._edge(
                make(node, ctx),
                mkop(("proj", node.index), make(node.expr, ctx)),
            )
        elif isinstance(node, Con):
            con_node = make(node, ctx)
            for index, arg in enumerate(node.args, start=1):
                self._edge(
                    mkop(("con", node.cname, index), con_node),
                    make(arg, ctx),
                )
        elif isinstance(node, Case):
            scrutinee = make(node.scrutinee, ctx)
            for branch in node.branches:
                for index, param in enumerate(branch.params, start=1):
                    self._edge(
                        mkvar(param, ctx),
                        mkop(("con", branch.cname, index), scrutinee),
                    )
                self._edge(make(node, ctx), make(branch.body, ctx))
        elif isinstance(node, If):
            if_node = make(node, ctx)
            self._edge(if_node, make(node.then, ctx))
            self._edge(if_node, make(node.orelse, ctx))
        elif isinstance(node, Ref):
            self._edge(
                mkop(("cell",), make(node, ctx)), make(node.expr, ctx)
            )
        elif isinstance(node, Deref):
            self._edge(
                make(node, ctx), mkop(("cell",), make(node.expr, ctx))
            )
        elif isinstance(node, Assign):
            self._edge(
                mkop(("cell",), make(node.target, ctx)),
                make(node.value, ctx),
            )
        elif isinstance(node, (Lit, Prim)):
            pass  # ground values; no flow edges
        else:
            raise TypeError(
                f"unknown expression node {type(node).__name__}"
            )

    def _instantiate(self, occurrence: Var, ctx: Context) -> None:
        """Polyvariant use of a binder: instantiate a fresh copy of
        the binding's graph fragment for this occurrence (Section 7 —
        "we make copies of this graph fragment for each place the
        function is used", done at the graph level so the AST is never
        duplicated)."""
        self._instances += 1
        if self._instances > self.instance_budget:
            raise AnalysisBudgetExceeded(
                "polyvariant instance", self._instances, self.instance_budget
            )
        bound = self._poly_bound[occurrence.name]
        inner_ctx = ctx + (occurrence.nid,)
        make = self.factory.expr_node
        self._edge(make(occurrence, ctx), make(bound, inner_ctx))
        # A letrec fragment refers to its own binder: tie the recursive
        # variable to this instance (monomorphic recursion).
        binder = self.program.binder(occurrence.name)
        if isinstance(binder, Letrec):
            self._edge(
                self.factory.var_node(occurrence.name, inner_ctx),
                make(bound, inner_ctx),
            )
        self._build_expr(bound, inner_ctx)

    def _edge(
        self,
        src: Optional[Node],
        dst: Optional[Node],
        close: bool = False,
    ) -> bool:
        """Insert ``src -> dst``; returns True iff the edge was new.

        ``close`` marks the edge as a closure-rule conclusion for
        provenance (DOT styling, close-edge accounting). None
        endpoints come from depth-capped operator creation; no
        well-typed flow needs the suppressed node, so the edge is
        dropped (``edges.dropped`` records the truncation).
        """
        if src is None or dst is None or src is dst:
            self._c_dropped_edges.value += 1
            return False
        if self.edge_recorder is not None:
            self.edge_recorder(src, dst, close)
        if self.graph.add_edge(src, dst):
            self.pending.append((src, dst))
            if close:
                self.close_edge_set.append((src, dst))
            if self.events is not None:
                self.events.emit(
                    "edge",
                    src=src.describe(),
                    dst=dst.describe(),
                    phase="close" if close else "build",
                )
            return True
        self._c_dup_edges.value += 1
        return False

    # -- close phase ---------------------------------------------------------

    def close(self) -> None:
        """Run the demand-driven closure rules to fixpoint.

        A rule counter is bumped only when the conclusion edge is
        actually added: firings whose conclusion already exists (or
        whose operator node is depth-capped away) do not change the
        graph and must not inflate the Table 1/2 accounting.
        """
        profiler = current_profiler()
        if profiler is None:
            self._close_pending()
            return
        self.profiler = profiler
        profiler.push("core.close")
        try:
            self._close_pending()
        finally:
            profiler.pop()
            self.profiler = None

    def _close_pending(self) -> None:
        pending = self.pending
        popleft = pending.popleft
        cov = self._c_close_cov
        contra = self._c_close_contra
        mkop = self.factory.op_node
        edge = self._edge
        # Without a congruence, ``op_node`` only ever touches the ops
        # dict of the node it is formed over — never the one the
        # premise scan is iterating (self-edges are dropped before
        # queueing) — so the live dicts are safe to walk. A
        # congruence's member sweeps can reach arbitrary nodes, so
        # snapshot then.
        snapshot = self.factory.congruence is not None
        cov_heads = COVARIANT_HEADS
        contra_heads = CONTRAVARIANT_HEADS
        while pending:
            src, dst = popleft()
            # Premise-1 of the covariant rule: src is n1, dst is n2;
            # fire for every demanded covariant operator over src.
            ops = src.ops
            if ops:
                for opkey, opnode in (
                    list(ops.items()) if snapshot else ops.items()
                ):
                    if opnode.demanded and opkey[0] in cov_heads:
                        if edge(opnode, mkop(opkey, dst), close=True):
                            cov.value += 1
            # Premise-1 of the contravariant rule: fire for every
            # demanded contravariant operator over dst.
            ops = dst.ops
            if ops:
                for opkey, opnode in (
                    list(ops.items()) if snapshot else ops.items()
                ):
                    if opnode.demanded and opkey[0] in contra_heads:
                        if edge(opnode, mkop(opkey, src), close=True):
                            contra.value += 1
            # Premise-2: the edge's target just became demanded.
            if dst.kind == "op" and not dst.demanded:
                self._demand(dst)

    def _demand(self, node: Node) -> None:
        """First incoming edge for ``node``: sweep the closure rules
        over the premise edges that arrived earlier."""
        node.demanded = True
        self.stats.demanded_nodes += 1
        if self.events is not None:
            self.events.emit("demand", node=node.describe())
        profiler = self.profiler
        if profiler is not None:
            profiler.push("sweep")
        try:
            for opkey, inner in node.members:
                self._sweep_member(node, opkey, inner)
        finally:
            if profiler is not None:
                profiler.pop()

    def _sweep_member(
        self, node: Node, opkey: OpKey, inner: Node
    ) -> None:
        cov = self._c_close_cov
        contra = self._c_close_contra
        mkop = self.factory.op_node
        profiler = self.profiler
        if self.events is not None:
            self.events.emit(
                "sweep", node=node.describe(), inner=inner.describe()
            )
        head = opkey[0]
        if head in COVARIANT_HEADS:
            succs = self.graph.successors(inner)
            if succs:
                if profiler is not None:
                    profiler.push("rule.CLOSE-COV")
                try:
                    for dst in list(succs):
                        if self._edge(node, mkop(opkey, dst), close=True):
                            cov.value += 1
                finally:
                    if profiler is not None:
                        profiler.pop()
        if head in CONTRAVARIANT_HEADS:
            preds = self.graph.predecessors(inner)
            if preds:
                if profiler is not None:
                    profiler.push("rule.CLOSE-CONTRA")
                try:
                    for src in list(preds):
                        if self._edge(node, mkop(opkey, src), close=True):
                            contra.value += 1
                finally:
                    if profiler is not None:
                        profiler.pop()

    def register_member_sweep(
        self, node: Node, opkey: OpKey, inner: Node
    ) -> None:
        """Hook used by the factory when a new member joins an
        already-demanded class node."""
        if node.demanded:
            self._sweep_member(node, opkey, inner)


def default_congruence(
    program: Program,
    inference: Optional[InferenceResult],
) -> Tuple[Optional[Congruence], Optional[InferenceResult]]:
    """Pick the congruence a plain ``analyze`` call should use.

    Programs without datatype declarations need none: the exact node
    grammar is bounded by the (record/function/ref) type trees. With
    recursive datatypes the exact grammar is unbounded (Section 6), so
    we default to the finer congruence ``≈2`` — "strictly more
    accurate" than ``≈1`` — which requires type information; inference
    is run on demand and a :class:`~repro.errors.TypeInferenceError`
    propagates for untypeable programs (route those through the hybrid
    driver).
    """
    if not program.datatypes:
        return None, inference
    from repro.core.datatypes import BaseTypeCongruence
    from repro.types.infer import infer_types

    if inference is None:
        inference = infer_types(program)
    return BaseTypeCongruence(), inference


def default_max_depth(
    program: Program, inference: Optional[InferenceResult]
) -> Optional[int]:
    """The Section 4 type-template depth bound for ``program``.

    Every node LC' must consider corresponds to a position in some
    type tree of the program (for polymorphic programs: of the let-
    expansion, whose per-occurrence instantiations inference records),
    so operator towers never need to exceed the deepest type tree.
    Without that bound, cyclic monovariant flow graphs (e.g. a
    polymorphic ``id`` applied to itself) make the demand cascade echo
    indefinitely. Returns ``None`` (engine default) when the program
    is untypeable.
    """
    from repro.errors import TypeInferenceError
    from repro.types.measure import max_type_depth

    try:
        return max_type_depth(program, inference) + 1
    except TypeInferenceError:
        return None


def build_subtransitive_graph(
    program: Program,
    congruence: Optional[Congruence] = None,
    inference: Optional[InferenceResult] = None,
    node_budget: Optional[int] = None,
    polyvariant_lets: Optional[frozenset] = None,
    registry: Optional[MetricsRegistry] = None,
    events=None,
) -> SubtransitiveGraph:
    """Run LC' on ``program`` and return the subtransitive graph.

    When ``congruence`` is omitted, datatype-using programs default to
    the ``≈2`` congruence (running type inference if needed); pass
    ``make_congruence('exact')`` to force the exact node grammar.
    Type inference is attempted once up front to derive the Section 4
    type-template depth bound; untypeable programs run uncapped under
    the node budget alone. ``inference`` may carry that attempt's
    outcome already (see :func:`repro.types.infer.try_infer_types`);
    the graph keeps it as ``inference``.

    Raises :class:`AnalysisBudgetExceeded` if the program does not
    appear to be bounded-type (use :mod:`repro.core.hybrid` to fall
    back to the cubic algorithm automatically).
    """
    from repro.core.datatypes import ExactCongruence
    from repro.errors import TypeInferenceError
    from repro.types.infer import try_infer_types

    outcome = inference
    if outcome is None:
        outcome = try_infer_types(program)
    if isinstance(outcome, TypeInferenceError):
        if program.datatypes and congruence is None:
            raise outcome  # auto-congruence needs types; hybrid handles
        inference = None
    else:
        inference = outcome
    if congruence is None:
        congruence, inference = default_congruence(program, inference)
    if isinstance(congruence, ExactCongruence):
        congruence = None
    engine = LCEngine(
        program,
        congruence=congruence,
        inference=inference,
        node_budget=node_budget,
        polyvariant_lets=polyvariant_lets,
        max_depth=default_max_depth(program, inference)
        if inference is not None
        else None,
        registry=registry,
        events=events,
    )
    sub = engine.run()
    sub.inference = outcome
    return sub
