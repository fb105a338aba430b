"""The monotone dataflow framework over the subtransitive graph.

The paper's Sections 8-9 present three CFA-consuming analyses that
share one skeleton: annotate graph nodes with values from a small
lattice, seed a few nodes, and propagate changes along (or against)
the subtransitive edges until a fixpoint — linear because each
annotation can grow only a bounded number of times. This module turns
that skeleton into an explicit framework so clients declare *what*
they propagate and the engine owns *how*:

* :class:`FlowAnalysis` — the client protocol: seeds, join, the
  downstream relation over node kinds (``e`` / ``dom(n)`` / ``ran(n)``
  — a downstream function may follow graph successors, predecessors,
  or any structural relation such as AST parenthood), an optional
  per-edge transfer, and a ``finish`` hook shaping the fixpoint into
  the client's result type.
* :func:`run_flow` — the shared worklist engine, with fuel/budget
  accounting: every edge propagation costs one fuel unit, exhaustion
  raises :class:`~repro.errors.AnalysisBudgetExceeded`, and the spend
  lands on the metrics registry under ``flow.*`` whether or not a
  budget was set.
* :func:`run_fused` — the multi-pass scheduler: several analyses share
  one worklist (and one fuel pool) so a single sweep over the graph
  services all of them. This is what ``repro lint`` uses to run the
  F-series passes plus the L002/L004 reachability probes in one go.
* :class:`FlowContext` — per-program artefacts (parent maps, sink
  nodes, lambda-bearing nodes) computed once and shared by every
  analysis in a run.

Items are any hashable objects, not only graph nodes: the effects
analysis mixes AST expressions and graph nodes in one worklist, which
is exactly the paper's Section 8 colouring.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence

from repro.errors import AnalysisBudgetExceeded
from repro.obs import MetricsRegistry
from repro.obs.events import emit_event, span, tally

Item = Hashable

#: Default fuel multiplier: a fused sweep of a constant number of
#: bounded-lattice analyses performs O(k * E) edge propagations; 64
#: units per graph node+edge leaves ample headroom for every shipped
#: analysis while still tripping on a runaway transfer function.
DEFAULT_FUEL_FACTOR = 64


class FlowContext:
    """Shared per-program artefacts for one batch of flow analyses.

    Wraps a program and (optionally) its subtransitive graph; the
    derived structures every client keeps re-deriving — AST parent
    map, lambda-bearing graph nodes, primitive-sink argument nodes,
    let/letrec binders, ``ran``-node-to-call-site index — are computed
    once, lazily, and cached here.
    """

    def __init__(self, program=None, sub=None, registry=None):
        self.program = program
        self.sub = sub
        self.graph = sub.graph if sub is not None else None
        self.factory = sub.factory if sub is not None else None
        if registry is None:
            registry = (
                sub.stats.registry
                if sub is not None
                else MetricsRegistry()
            )
        self.registry = registry
        self._parent_of = None
        self._lambda_nodes = None
        self._sink_args = None
        self._binders = None
        self._ran_to_sites = None

    # -- node lookups ------------------------------------------------------

    def peek(self, expr):
        """The already-built graph node of ``expr`` (never creates)."""
        return self.factory.peek_expr(expr)

    @property
    def parent_of(self) -> Dict[int, Any]:
        """AST parent by child nid (the structural relation used by
        the effects colouring)."""
        if self._parent_of is None:
            parent_of: Dict[int, Any] = {}
            for node in self.program.nodes:
                for child in node.children():
                    parent_of[child.nid] = node
            self._parent_of = parent_of
        return self._parent_of

    @property
    def lambda_value_nodes(self) -> List:
        """Graph nodes carrying at least one abstraction value (their
        own expression or a congruence-absorbed one)."""
        from repro.lang.ast import Lam

        if self._lambda_nodes is None:
            self._lambda_nodes = self.factory.nodes_bearing(Lam)
        return self._lambda_nodes

    @property
    def sink_arg_nodes(self) -> List:
        """``(argument expression, graph node)`` pairs for every
        expression handed to a primitive — the analysed program's
        external sinks. Depth-capped expressions (no graph node) are
        skipped."""
        from repro.lang.ast import Prim

        if self._sink_args is None:
            pairs = []
            for node in self.program.nodes:
                if isinstance(node, Prim):
                    for arg in node.args:
                        graph_node = self.peek(arg)
                        if graph_node is not None:
                            pairs.append((arg, graph_node))
            self._sink_args = pairs
        return self._sink_args

    @property
    def binders(self) -> List:
        """The program's ``let``/``letrec`` expressions, in program
        order."""
        from repro.lang.ast import Let, Letrec

        if self._binders is None:
            self._binders = [
                node
                for node in self.program.nodes
                if isinstance(node, (Let, Letrec))
            ]
        return self._binders

    @property
    def ran_to_sites(self) -> Dict[Any, List]:
        """``ran(e1)`` graph node -> the application sites whose
        operator is ``e1`` (Section 8's rule (a) index)."""
        if self._ran_to_sites is None:
            index: Dict[Any, List] = {}
            for site in self.program.applications:
                ran_node = self.factory.op_node(
                    ("ran",), self.factory.expr_node(site.fn)
                )
                index.setdefault(ran_node, []).append(site)
            self._ran_to_sites = index
        return self._ran_to_sites

    def default_fuel(self, factor: int = DEFAULT_FUEL_FACTOR) -> int:
        """A linear fuel budget: ``factor * (nodes + edges)`` of the
        subtransitive graph (plus the program size, so graph-free
        contexts still get a positive budget)."""
        nodes = self.graph.node_count if self.graph is not None else 0
        edges = self.graph.edge_count if self.graph is not None else 0
        size = self.program.size if self.program is not None else 0
        return factor * max(nodes + edges + size, 1)


class FlowAnalysis:
    """One client analysis: a lattice plus a transfer over the graph.

    Subclasses override:

    ``seeds(ctx)``
        Item -> initial (non-bottom) value. Bottom is represented by
        absence: unseeded, never-updated items do not appear in the
        fixpoint at all.
    ``join(old, new)``
        Least upper bound of two non-bottom values. Must be monotone;
        the engine re-enqueues an item only when the join changed its
        value (compared with ``!=``).
    ``downstream(ctx, item)``
        The items ``item``'s value may flow into. For graph nodes this
        is typically ``ctx.graph.successors`` (forward: markers follow
        edge direction) or ``ctx.graph.predecessors`` (backward: a
        node's value reaches everything that points at it, the
        k-limited CFA direction); structural relations (AST parents,
        ``ran``-to-site) are equally valid.
    ``transfer(ctx, src, dst, value)``
        The value flowing across one edge; ``None`` blocks the edge.
        Default: the identity (pure propagation).
    ``finish(ctx, values)``
        Shape the raw fixpoint into the client result. Default: the
        values dict itself.
    ``prepare(ctx)``
        Optional precomputation hook, run once before seeding.
    """

    #: Metric label: ``flow.steps.<name>``, ``flow.pass.<name>``, ...
    name: str = "flow"

    def prepare(self, ctx: FlowContext) -> None:
        pass

    def seeds(self, ctx: FlowContext) -> Dict[Item, Any]:
        raise NotImplementedError

    def join(self, old: Any, new: Any) -> Any:
        raise NotImplementedError

    def downstream(self, ctx: FlowContext, item: Item) -> Iterable[Item]:
        raise NotImplementedError

    def transfer(
        self, ctx: FlowContext, src: Item, dst: Item, value: Any
    ) -> Optional[Any]:
        return value

    def finish(self, ctx: FlowContext, values: Dict[Item, Any]) -> Any:
        return values

    def flat_direction(self, ctx: FlowContext) -> Optional[str]:
        """Declare ``downstream`` as a plain graph relation, enabling
        the engine's flat sweep.

        Return ``"successors"`` / ``"predecessors"`` when
        ``downstream(ctx, item)`` is exactly that relation of
        ``ctx.graph`` for every item, ``"seeds-only"`` when it is
        always empty, or ``None`` (the default) for anything else.
        The engine only acts on the declaration for boolean mark
        analyses (identity transfer, or-join) on a CSR
        graph, where the fixpoint is literally multi-source
        reachability and runs as a bitset BFS over the adjacency rows
        — with step/update/fuel accounting identical to the generic
        worklist, so metrics and results do not depend on the path
        taken."""
        return None


class MarkAnalysis(FlowAnalysis):
    """Boolean-lattice base: plain reachability with an optional
    per-edge filter. ``finish`` returns the set of marked items."""

    def join(self, old: bool, new: bool) -> bool:
        return old or new

    def finish(self, ctx, values):
        return set(values)


def _spend(analysis_name, used, fuel):
    if fuel is not None and used > fuel:
        raise AnalysisBudgetExceeded(
            f"flow fuel ({analysis_name})", used, fuel
        )


def run_flow(
    analysis: FlowAnalysis,
    ctx: Optional[FlowContext] = None,
    fuel: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
):
    """Run one analysis to fixpoint on the shared worklist engine.

    ``fuel`` bounds the number of edge propagations (``None`` =
    unlimited, but still accounted); exhaustion raises
    :class:`~repro.errors.AnalysisBudgetExceeded` with the spend and
    the budget. Metrics land on ``registry`` (default: the context's):
    ``flow.pass.<name>`` wall-clock, ``flow.steps.<name>`` edge
    propagations, ``flow.updates.<name>`` value changes, and — when a
    budget was set — ``flow.fuel.budget.<name>`` /
    ``flow.fuel.used.<name>`` gauges. A bound profiler records the
    pass as ``flow;<name>``.
    """
    if ctx is None:
        ctx = FlowContext()
    if registry is None:
        registry = ctx.registry
    with span("flow"), span(analysis.name):
        with registry.timer(f"flow.pass.{analysis.name}"):
            result, steps, updates = _fixpoint([analysis], ctx, fuel)
    registry.counter(f"flow.steps.{analysis.name}").inc(steps)
    registry.counter(f"flow.updates.{analysis.name}").inc(
        updates[0]
    )
    # Per-request telemetry: one event per *pass* with its totals,
    # never one per worklist step (the E21 overhead budget).
    tally("flow.steps", steps)
    emit_event(
        "flow", component="flow", analysis=analysis.name,
        fused=False, steps=steps, updates=updates[0],
    )
    if fuel is not None:
        registry.gauge(f"flow.fuel.budget.{analysis.name}").set(fuel)
        registry.gauge(f"flow.fuel.used.{analysis.name}").set(steps)
    return analysis.finish(ctx, result[0])


def run_fused(
    analyses: Sequence[FlowAnalysis],
    ctx: FlowContext,
    fuel: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[Any]:
    """Run several analyses in one fused sweep.

    One worklist holds ``(slot, item)`` pairs, so the scheduler
    interleaves all analyses and the graph is traversed once per
    *demanded* region rather than once per pass; all analyses draw
    from a single shared fuel pool. Returns each analysis's
    ``finish`` result, in input order.

    Metrics: ``flow.pass.fused`` / ``flow.steps.fused`` for the sweep,
    plus per-analysis ``flow.updates.<name>`` so the fused run remains
    attributable. A bound profiler records the sweep as
    ``flow;fused``.
    """
    if registry is None:
        registry = ctx.registry
    with span("flow"), span("fused"):
        with registry.timer("flow.pass.fused"):
            values, steps, updates = _fixpoint(list(analyses), ctx, fuel)
    registry.counter("flow.steps.fused").inc(steps)
    registry.gauge("flow.fused.analyses").set(len(analyses))
    for analysis, changed in zip(analyses, updates):
        registry.counter(f"flow.updates.{analysis.name}").inc(changed)
    # One aggregate event per fused sweep (see run_flow).
    tally("flow.steps", steps)
    emit_event(
        "flow", component="flow",
        analysis=",".join(a.name for a in analyses),
        fused=True, steps=steps, updates=sum(updates),
    )
    if fuel is not None:
        registry.gauge("flow.fuel.budget.fused").set(fuel)
        registry.gauge("flow.fuel.used.fused").set(steps)
    return [
        analysis.finish(ctx, values[slot])
        for slot, analysis in enumerate(analyses)
    ]


def _flat_plan(analysis, ctx, seed_map) -> Optional[str]:
    """The flat-sweep direction for ``analysis``, or ``None`` when it
    must run on the generic worklist. Eligibility is strict: boolean
    mark semantics (default transfer, or-join), a declared graph
    direction, all-``True`` seeds, and — for the BFS directions — a
    graph to run the bitset sweep on. (``finish`` only shapes the
    marks the sweep returns, so it does not matter.)"""
    cls = type(analysis)
    if cls.transfer is not FlowAnalysis.transfer:
        return None
    if cls.join is not MarkAnalysis.join:
        return None
    direction = analysis.flat_direction(ctx)
    if direction is None:
        return None
    if not all(value is True for value in seed_map.values()):
        return None
    if direction == "seeds-only":
        return direction
    if ctx.graph is None:
        return None
    return direction


def _flat_mark_sweep(graph, seed_map, direction):
    """Run one boolean mark analysis as multi-source reachability over
    the graph's adjacency rows. Returns ``(values, steps, updates)``
    with the exact numbers the generic worklist would have produced:
    each marked item is dequeued once there, so steps is the sum of
    marked out-degrees (in the flow direction) and updates counts the
    marked non-seeds."""
    if direction == "seeds-only":
        return dict(seed_map), 0, 0
    reverse = direction == "predecessors"
    start_ids, extras = graph._start_ids(seed_map)
    _, order = graph._reached_ids(start_ids, reverse=reverse)
    rows = graph._pred if reverse else graph._succ
    steps = sum(map(len, map(rows.__getitem__, order)))
    marked = dict.fromkeys(
        map(graph._interner.values.__getitem__, order), True
    )
    for extra in extras:
        marked[extra] = True
    return marked, steps, len(marked) - len(seed_map)


def _fixpoint(analyses, ctx, fuel):
    """The worklist core shared by :func:`run_flow` and
    :func:`run_fused`: chaotic iteration over ``(slot, item)`` pairs,
    one fuel unit per edge propagation. Eligible boolean mark analyses
    (see :meth:`FlowAnalysis.flat_direction`) peel off into bitset
    sweeps over the graph's adjacency rows first; everything else
    shares the generic worklist."""
    values: List[Dict[Item, Any]] = [dict() for _ in analyses]
    queue = deque()
    queued = set()

    def enqueue(slot: int, item: Item) -> None:
        key = (slot, item)
        if key not in queued:
            queued.add(key)
            queue.append(key)

    fused_name = (
        analyses[0].name if len(analyses) == 1 else "fused"
    )
    flat_steps = 0
    flat_updates = [0] * len(analyses)
    for slot, analysis in enumerate(analyses):
        analysis.prepare(ctx)
        seed_map = analysis.seeds(ctx)
        direction = _flat_plan(analysis, ctx, seed_map)
        if direction is not None:
            marked, spent, changed = _flat_mark_sweep(
                ctx.graph, seed_map, direction
            )
            values[slot] = marked
            flat_steps += spent
            flat_updates[slot] = changed
            _spend(fused_name, flat_steps, fuel)
            continue
        for item, value in seed_map.items():
            values[slot][item] = value
            enqueue(slot, item)

    # Analyses with the default identity transfer skip the per-edge
    # call entirely — every shipped mark analysis hits this path, and
    # the transfer call is otherwise the single hottest line.
    identity_transfer = [
        type(analysis).transfer is FlowAnalysis.transfer
        for analysis in analyses
    ]
    steps = flat_steps
    updates = flat_updates
    popleft = queue.popleft
    discard = queued.discard
    while queue:
        key = popleft()
        discard(key)
        slot, item = key
        analysis = analyses[slot]
        slot_values = values[slot]
        value = slot_values[item]
        plain = identity_transfer[slot]
        for dst in analysis.downstream(ctx, item):
            steps += 1
            if fuel is not None and steps > fuel:
                _spend(fused_name, steps, fuel)
            if plain:
                out = value
            else:
                out = analysis.transfer(ctx, item, dst, value)
                if out is None:
                    continue
            old = slot_values.get(dst)
            new = out if old is None else analysis.join(old, out)
            if old is None or new != old:
                slot_values[dst] = new
                updates[slot] += 1
                enqueue(slot, dst)
    return values, steps, updates
