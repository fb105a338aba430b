"""Incremental analysis sessions.

The paper advertises its algorithm as "simple, incremental,
demand-driven". Incrementality falls out of the Section 3
factorisation: because edge addition is decoupled from closure, new
program text only *appends* build edges, and re-running the
demand-driven closure from the existing fixpoint is exactly the batch
fixpoint (the rules are monotone and confluent).

:class:`AnalysisSession` packages that as a REPL-style API::

    session = AnalysisSession()
    session.define("inc", "fn x => x + 1")
    session.define("twice", "fn f => fn x => f (f x)")
    session.labels_of("twice")            # query between definitions
    session.define("use", "twice inc")
    session.query("use 3")                # analyse an expression
    session.evaluate("use 3")             # and actually run it

Each ``define``/``query`` extends the one subtransitive graph; nothing
is ever re-analysed. Definitions may refer to any previously defined
name and to themselves (self-recursion analyses and evaluates like
``letrec``). Redefining a name is allowed and *unions* flows — the
analysis stays a conservative over-approximation of every version, as
a monovariant analysis must.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._util import ensure_recursion_limit
from repro.errors import ScopeError, UnknownConstructorError
from repro.graph.reachability import reachable_from
from repro.lang.ast import (
    App,
    Case,
    Con,
    DatatypeDecl,
    Expr,
    Lam,
    Let,
    Letrec,
    Program,
)
from repro.lang.eval import (
    Closure,
    EvalResult,
    _Evaluator,
    render_value,
)
from repro.lang.parser import parse_expr
from repro.lang.rename import alpha_rename
from repro.core.lc import LCEngine
from repro.core.nodes import Node

#: Sentinel distinguishing "name was never bound" from "bound to
#: None" when restoring the evaluation environment.
_UNSET = object()


class _SessionProgram:
    """The Program-shaped container an :class:`AnalysisSession` grows.

    Provides the subset of :class:`~repro.lang.ast.Program`'s surface
    the engine and factory rely on (node table, label table, datatype
    signatures), but supports appending definitions.
    """

    def __init__(self, datatypes: Sequence[DatatypeDecl]):
        self.datatypes: Dict[str, DatatypeDecl] = {}
        self.constructor_owner: Dict[str, DatatypeDecl] = {}
        for decl in datatypes:
            if decl.name in self.datatypes:
                raise ScopeError(f"duplicate datatype {decl.name!r}")
            self.datatypes[decl.name] = decl
            for cname in decl.constructors:
                if cname in self.constructor_owner:
                    raise ScopeError(
                        f"duplicate constructor {cname!r}"
                    )
                self.constructor_owner[cname] = decl

        self.nodes: List[Expr] = []
        self.abstractions: List[Lam] = []
        self.applications: List[App] = []
        self.label_table: Dict[str, Lam] = {}
        self.binders: Dict[str, Expr] = {}
        self._label_counter = 0

    # -- Program interface used by the engine/factory --------------------

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> Expr:
        return self.nodes[nid]

    def abstraction(self, label: str) -> Lam:
        try:
            return self.label_table[label]
        except KeyError:
            raise ScopeError(
                f"no abstraction labelled {label!r}"
            ) from None

    def binder(self, name: str) -> Expr:
        try:
            return self.binders[name]
        except KeyError:
            raise ScopeError(f"unbound variable {name!r}") from None

    def constructor_signature(self, cname: str):
        try:
            decl = self.constructor_owner[cname]
        except KeyError:
            raise UnknownConstructorError(cname) from None
        return decl.constructors[cname]

    # -- growth ------------------------------------------------------------

    def _fresh_label(self, avoid=()) -> str:
        while True:
            label = f"l{self._label_counter}"
            self._label_counter += 1
            if label not in self.label_table and label not in avoid:
                return label

    def index(self, expr: Expr) -> None:
        """Assign nids/labels to a new definition's subtree and
        validate its constructors.

        Indexing is **atomic**: the whole subtree is validated first
        (labels, constructor arities) and only then committed to the
        node/label/binder tables. A :class:`ScopeError` or
        :class:`UnknownConstructorError` therefore leaves the session
        program exactly as it was — a failed ``define``/``query`` can
        simply be retried.
        """
        new_nodes = list(expr.walk())
        # Pass 1 — validate; raises before any table is touched.
        explicit_labels = set()
        for node in new_nodes:
            if isinstance(node, Lam):
                if node.label is not None:
                    if (
                        node.label in self.label_table
                        or node.label in explicit_labels
                    ):
                        raise ScopeError(
                            f"duplicate label {node.label!r}"
                        )
                    explicit_labels.add(node.label)
            elif isinstance(node, Con):
                want = len(self.constructor_signature(node.cname))
                if len(node.args) != want:
                    raise ScopeError(
                        f"constructor {node.cname!r} expects {want} "
                        f"argument(s), got {len(node.args)}"
                    )
            elif isinstance(node, Case):
                for branch in node.branches:
                    want = len(
                        self.constructor_signature(branch.cname)
                    )
                    if len(branch.params) != want:
                        raise ScopeError(
                            f"constructor {branch.cname!r} has {want} "
                            "argument(s), pattern binds "
                            f"{len(branch.params)}"
                        )
        # Pass 2 — commit; nothing below can raise. Fresh labels must
        # dodge the subtree's still-uncommitted explicit labels.
        for node in new_nodes:
            node.nid = len(self.nodes)
            self.nodes.append(node)
            if isinstance(node, Lam):
                if node.label is None:
                    node.label = self._fresh_label(avoid=explicit_labels)
                self.label_table[node.label] = node
                self.binders.setdefault(node.param, node)
                self.abstractions.append(node)
            elif isinstance(node, App):
                self.applications.append(node)
            elif isinstance(node, (Let, Letrec)):
                self.binders.setdefault(node.name, node)
            elif isinstance(node, Case):
                for branch in node.branches:
                    for param in branch.params:
                        self.binders.setdefault(param, node)


class AnalysisSession:
    """A growing program plus its incrementally-maintained
    subtransitive graph."""

    def __init__(
        self,
        datatypes: Sequence[DatatypeDecl] = (),
        node_budget: int = 1_000_000,
        max_depth: int = 24,
        fuel: int = 1_000_000,
        registry=None,
        events=None,
    ):
        ensure_recursion_limit()
        self.program = _SessionProgram(datatypes)
        self.engine = LCEngine(
            self.program,  # type: ignore[arg-type]
            node_budget=node_budget,
            max_depth=max_depth,
            registry=registry,
            events=events,
        )
        self.fuel = fuel
        #: Definition order: (name, renamed expression).
        self.definitions: List[Tuple[str, Expr]] = []
        self._globals: Dict[str, str] = {}
        self._used_names: Set[str] = set()
        self._env: Dict[str, object] = {}
        self.output: List[str] = []
        #: Per-define/query graph-growth deltas, in operation order
        #: (see :meth:`metrics`).
        self.history: List[Dict[str, object]] = []
        #: Monotone version of the session's analysis state: bumped by
        #: every operation that changes the graph or the binding
        #: surface (define/query/evaluate/undefine). Consumers caching
        #: derived results (the daemon's project registry, external
        #: tooling) key on it.
        self.graph_version = 0
        #: Last :meth:`lint` outcome and the :attr:`history` length it
        #: was computed at.
        self._lint_cache: Dict[str, object] = {"result": None, "ops": 0}

    def _record_delta(
        self, op: str, name: Optional[str], fn
    ):
        """Run ``fn`` under the session timer and append its graph
        delta (nodes/edges added, seconds) to :attr:`history`."""
        engine = self.engine
        nodes_before = engine.factory.node_count
        edges_before = engine.graph.edge_count
        timer = engine.stats.registry.timer(f"session.{op}")
        with timer:
            result = fn()
        entry: Dict[str, object] = {
            "op": op,
            "name": name,
            "nodes_added": engine.factory.node_count - nodes_before,
            "edges_added": engine.graph.edge_count - edges_before,
            "seconds": timer.last_seconds,
        }
        self.history.append(entry)
        self.graph_version += 1
        if engine.events is not None:
            engine.events.emit("session", **entry)
        return result

    # -- defining ------------------------------------------------------------

    def define(self, name: str, source) -> Expr:
        """Add ``name = source`` to the session and extend the
        analysis. ``source`` is concrete syntax or an AST; it may
        mention every previously defined name and ``name`` itself
        (self-recursion). Returns the renamed, indexed expression."""
        expr = parse_expr(source) if isinstance(source, str) else source
        free = dict(self._globals)
        free.setdefault(name, name)
        self._used_names.add(name)
        renamed = alpha_rename(expr, free=free, used=self._used_names)

        def extend() -> None:
            # index() is atomic: a ScopeError here leaves the session
            # untouched and this define can be retried.
            self.program.index(renamed)
            self.program.binders.setdefault(name, renamed)
            # Build edges for the new subtree, then the binding edge,
            # then re-close: the worklist continues from the previous
            # fixpoint.
            self.engine._build_expr(renamed, ())
            self.engine._edge(
                self.engine.factory.var_node(name),
                self.engine.factory.expr_node(renamed),
            )
            self.engine.close()

        self._record_delta("define", name, extend)
        self.definitions.append((name, renamed))
        self._globals[name] = name
        # Evaluate eagerly so `evaluate` sees every definition; errors
        # (divergence etc.) are deferred to evaluate() callers. A
        # failed *re*definition must not erase the previous working
        # binding — restore it instead of popping.
        previous = self._env.get(name, _UNSET)
        try:
            evaluator = _Evaluator(self.fuel)
            value = evaluator.eval(renamed, self._env)
            self.output.extend(evaluator.output)
            self._env[name] = value
        except Exception:
            if previous is _UNSET:
                self._env.pop(name, None)
            else:
                self._env[name] = previous
        return renamed

    def undefine(self, name: str) -> None:
        """Remove ``name`` from the session's binding surface.

        The subtransitive graph keeps the flows the definition
        contributed — a monovariant session analysis is a conservative
        over-approximation of every version it ever saw, exactly as
        redefinition unions flows — but the name itself becomes
        unbound: :meth:`labels_of` raises, new definitions cannot
        reference it, and a later :meth:`define` of the same name
        behaves like a first definition (no stale evaluation binding
        to restore). The graph version is bumped and :meth:`lint`
        runs afresh.
        """
        if name not in self._globals:
            raise ScopeError(f"undefined session name {name!r}")

        def retract() -> None:
            del self._globals[name]
            self._env.pop(name, None)

        self._record_delta("undefine", name, retract)

    # -- querying ------------------------------------------------------------

    def _labels_from(self, starts) -> frozenset:
        reached = reachable_from(self.engine.graph, starts)
        labels = set()
        for node in reached:
            if node.kind == "expr" and isinstance(node.expr, Lam):
                labels.add(node.expr.label)
        return frozenset(labels)

    def labels_of(self, name: str) -> frozenset:
        """The label set of a defined name."""
        if name not in self._globals:
            raise ScopeError(f"undefined session name {name!r}")
        return self._labels_from([self.engine.factory.var_node(name)])

    def query(self, source) -> frozenset:
        """Analyse an expression against the session: extends the
        graph with the expression's build edges (demand-driven, so the
        cost is proportional to the new text) and returns its label
        set."""
        expr = (
            parse_expr(source) if isinstance(source, str) else source
        )
        renamed = alpha_rename(
            expr, free=dict(self._globals), used=self._used_names
        )

        def extend() -> None:
            self.program.index(renamed)
            self.engine._build_expr(renamed, ())
            self.engine.close()

        self._record_delta("query", None, extend)
        return self._labels_from(
            [self.engine.factory.expr_node(renamed)]
        )

    def callees(self, source) -> frozenset:
        """Labels callable when ``source`` is used as an operator."""
        return self.query(source)

    # -- running -------------------------------------------------------------

    def evaluate(self, source) -> EvalResult:
        """Evaluate an expression under every definition so far."""
        expr = (
            parse_expr(source) if isinstance(source, str) else source
        )
        renamed = alpha_rename(
            expr, free=dict(self._globals), used=self._used_names
        )

        def extend() -> None:
            self.program.index(renamed)
            # Keep analysis and execution in lockstep: what runs was
            # analysed.
            self.engine._build_expr(renamed, ())
            self.engine.close()

        self._record_delta("evaluate", None, extend)
        evaluator = _Evaluator(self.fuel)
        value = evaluator.eval(renamed, self._env)
        return EvalResult(
            value, evaluator.trace, evaluator.output, evaluator.steps
        )

    # -- introspection ---------------------------------------------------------

    @property
    def graph_nodes(self) -> int:
        return self.engine.factory.node_count

    @property
    def graph_edges(self) -> int:
        return self.engine.graph.edge_count

    def _graph_view(self):
        """The session's graph packaged as a
        :class:`~repro.core.lc.SubtransitiveGraph` (shared by
        :meth:`metrics`, :meth:`lint` and the sanitizer)."""
        from repro.core.lc import SubtransitiveGraph

        engine = self.engine
        return SubtransitiveGraph(
            self.program,  # type: ignore[arg-type]
            engine.factory,
            engine.graph,
            engine.stats,
            frozenset(engine.close_edge_set),
        )

    def lint(self, passes=None):
        """Lint the whole session program. With no intervening
        operations the cached result is returned as-is
        (``lint.session.cache_hits`` counts those).

        Passing ``passes`` explicitly bypasses the cache.
        """
        from repro.lint.engine import run_lints

        registry = self.engine.stats.registry
        if passes is not None:
            return run_lints(
                self.program, self._graph_view(), passes=passes
            )
        cache = self._lint_cache
        ops = len(self.history)
        if cache["result"] is not None and cache["ops"] == ops:
            registry.counter("lint.session.cache_hits").inc()
            return cache["result"]
        timer = registry.timer("session.lint")
        with timer:
            result = run_lints(self.program, self._graph_view())
        cache["result"] = result
        cache["ops"] = ops
        return result

    def sanitize(self):
        """Run the LC' well-formedness checks on the session graph."""
        return self._graph_view().sanitize()

    def metrics(self) -> Dict[str, object]:
        """The session's metrics document (``repro.metrics/1`` schema
        with the optional ``session`` section).

        Engine phase timings are zero here — incremental sessions
        interleave build and close per definition; the per-operation
        picture lives in ``session.history`` and the
        ``session.define`` / ``session.query`` registry timers.
        """
        from repro.obs.export import collect_metrics

        engine = self.engine
        engine._export_gauges()
        sub = self._graph_view()
        document = collect_metrics(sub)
        document["session"] = {
            "defines": len(self.definitions),
            "queries": sum(
                1 for entry in self.history if entry["op"] == "query"
            ),
            "history": [dict(entry) for entry in self.history],
        }
        return document

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AnalysisSession defs={len(self.definitions)} "
            f"nodes={self.graph_nodes} edges={self.graph_edges}>"
        )
