"""The semi-naive delta closure engine behind the daemon.

A :class:`ProjectAnalysis` holds one warm LC' graph for an evolving
sequence of top-level definitions (the project's *program*: a chain of
``let``/``letrec`` bindings ending in unit, exactly what
:meth:`ProjectAnalysis.render_source` prints). ``define`` and
``undefine`` mutate the chain **incrementally**: instead of
re-analysing from scratch, a redefinition

1. *retracts* exactly the edges the old definition justified — build
   edges are reference-counted per definition via the engine's
   ``edge_recorder`` hook, and a build edge whose count reaches zero
   is physically deleted;
2. runs a DRed-style **over-delete**: every closure-rule conclusion
   with a deleted premise is deleted too (conclusion scans mirror the
   close loop's premise-1 scans), and an operator node that loses an
   incoming edge is un-demanded with all its outgoing closure edges
   deleted (each incoming edge independently supports the demand
   fact, so losing any one of them invalidates the derivation);
3. **rederives**: operators that still have an incoming edge are
   re-demanded, each over-deleted closure edge whose premise survived
   is re-added (the one-step rederivation), and the engine's ordinary
   ``close()`` fixpoint propagates from there — the delta worklist,
   not the whole graph;
4. builds the new definition's subtree through the same recorder and
   closes again.

Over-deletion is required for exactness: demand support can be
*cyclic* (closure edges between operator towers over a ground cycle
sustain each other's demand), so a deletion cascade that only removes
edges whose justification is currently absent would keep edges a cold
run never derives. Deleting first and rederiving from survivors is
the classic DRed argument, specialised to LC''s two rule families.

Whenever retraction support is ambiguous the engine **falls back** to
a full replay of the definition history, tagging the reason
(:data:`FALLBACK_REASONS`):

``rename-shift``
    The edit changes how alpha-renaming would allocate fresh names for
    *later* definitions (the warm graph's node identities would no
    longer match a cold parse of the rendered program).
``node-budget``
    The delta application exceeded the node budget (LC''s default
    budget for the live program's size, so garbage from retired
    definitions can trip it); a replay starts from a fresh factory
    without retired garbage.
``internal-error``
    Any unexpected failure while mutating the warm graph; replay
    re-establishes a consistent state.

Either way the result is **byte-identical** to a cold analysis of
:meth:`render_source` — the equivalence suite enforces this per
operation. A definition that takes even the replay over budget is
rejected: the project keeps its previous program, exactly as a cold
analysis of the would-be program would exceed the same budget.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AnalysisBudgetExceeded, ScopeError
from repro.core.lc import LCEngine, SubtransitiveGraph, default_node_budget
from repro.obs.events import emit_event, span as _span
from repro.core.nodes import (
    CONTRAVARIANT_HEADS,
    COVARIANT_HEADS,
    EXPR,
    Node,
)
from repro.core.queries import SubtransitiveCFA
from repro.lang.ast import (
    App,
    Case,
    Con,
    Expr,
    Lam,
    Let,
    Letrec,
    Lit,
    Program,
)
from repro.lang.parser import parse_expr
from repro.lang.rename import _Renamer, fresh_name
from repro.lang.rename import free_variables as free_base_names

#: The delta engine's fallback taxonomy (see module docstring).
FALLBACK_REASONS = ("rename-shift", "node-budget", "internal-error")

#: A guarded mutation's report ``mode`` -> its span's layer
#: (:data:`repro.obs.profile.LAYERS`); ``replay`` is ``delta.replay``.
_MODE_LAYERS = {
    "splice": "delta.splice",
    "delta": "delta.dred",
    "append": "delta.append",
}

#: The daemon's operator depth cap: fixed (not per-program) so the
#: warm graph's node identities are stable across edits. It bounds the
#: demand cascade on untypeable flows exactly as the cold reference
#: configuration does. The node budget follows the live program's
#: size (:func:`~repro.core.lc.default_node_budget`), warm and cold
#: alike, so an untypeable definition trips it in milliseconds.
DAEMON_MAX_DEPTH = 24

EdgePair = Tuple[Node, Node]


class _RecordingRenamer(_Renamer):
    """An alpha-renamer that records its fresh-name consumption.

    A cold parse of the rendered program runs one renamer over the
    whole definition chain; the recorded ``(base, fresh)`` sequence is
    exactly the slice of that run belonging to one definition, which
    is what lets a redefinition *prove* that re-renaming it leaves
    every later definition's names untouched (no ``rename-shift``).
    """

    def __init__(self, used: Optional[Set[str]] = None) -> None:
        super().__init__(used)
        self.consumed: List[Tuple[str, str]] = []

    def fresh(self, base: str) -> str:
        name = super().fresh(base)
        self.consumed.append((base, name))
        return name


class DefEntry:
    """One top-level definition of a project program."""

    __slots__ = (
        "name",
        "fresh",
        "source",
        "raw",
        "bound",
        "spine",
        "recursive",
        "consumed",
        "refs",
        "auto_lams",
        "nlines",
        "shift",
        "typing",
    )

    def __init__(
        self,
        name: str,
        fresh: str,
        source: str,
        raw: Expr,
        bound: Expr,
        spine: Expr,
        recursive: bool,
        consumed: List[Tuple[str, str]],
    ) -> None:
        self.name = name
        #: The alpha-renamed binder name (the graph's variable node).
        self.fresh = fresh
        #: The original source text, used verbatim when rendering the
        #: program for the cold reference (no printer round-trip).
        self.source = source
        #: The unrenamed AST — the replay fallback re-renames it.
        self.raw = raw
        #: The renamed AST spliced into the live chain.
        self.bound = bound
        #: The chain's Let/Letrec node for this definition.
        self.spine = spine
        self.recursive = recursive
        #: ``(base, fresh)`` pairs in renamer-consumption order.
        self.consumed = consumed
        #: Build-edge emission counts for this definition's subtree.
        self.refs: Dict[EdgePair, int] = {}
        #: Abstractions whose label is auto-assigned; reset before
        #: each re-index so label allocation matches a cold parse.
        self.auto_lams: List[Lam] = [
            node
            for node in bound.walk()
            if isinstance(node, Lam) and node.label is None
        ]
        #: Rendered line count of ``source`` (embedded newlines count).
        self.nlines = len(source.split("\n"))
        #: Line shift currently applied to ``bound`` — 0 right after a
        #: (re)rename, when positions are still snippet-relative;
        #: :meth:`ProjectAnalysis._renumber_lines` raises it to the
        #: definition's offset in the rendered chain.
        self.shift = 0
        #: The memo of this definition's last type inference
        #: (:class:`repro.daemon.audit.DefinitionTyping`); filled by
        #: the first lint read that needs it.
        self.typing = None


class ProjectAnalysis:
    """A warm, incrementally-maintained LC' analysis of one project."""

    def __init__(self) -> None:
        self.defs: List[DefEntry] = []
        #: Monotonic graph version; bumps on every applied mutation.
        self.version = 0
        #: Per-reason fallback counts (all zero on the pure delta path).
        self.fallbacks: Dict[str, int] = {r: 0 for r in FALLBACK_REASONS}
        self._fresh_state()
        self._renumber_lines()

    # -- state plumbing ----------------------------------------------------

    def _fresh_state(self) -> None:
        #: The shared chain terminator (the program's final ``()``).
        self.terminal = Lit(None)
        self.program = Program(self.terminal, rename=False)
        self.engine = LCEngine(
            self.program, congruence=None, max_depth=DAEMON_MAX_DEPTH
        )
        #: Insertion-ordered recorded closure edges (the warm twin of
        #: a cold run's ``close_edge_set``).
        self.close: Dict[EdgePair, None] = {}
        #: Physical build edges -> reference count across definitions
        #: (subtree emissions plus the chain's binding/body edges).
        self.ground: Dict[EdgePair, int] = {}
        #: The chain wiring edges currently installed.
        self.spine_pairs: Set[EdgePair] = set()

    def _snapshot(self):
        return (
            self.defs,
            self.terminal,
            self.program,
            self.engine,
            self.close,
            self.ground,
            self.spine_pairs,
        )

    def _restore(self, saved) -> None:
        (
            self.defs,
            self.terminal,
            self.program,
            self.engine,
            self.close,
            self.ground,
            self.spine_pairs,
        ) = saved

    def _find(self, name: str) -> Optional[int]:
        for index, entry in enumerate(self.defs):
            if entry.name == name:
                return index
        return None

    def _env(self, upto: int) -> Dict[str, str]:
        return {d.name: d.fresh for d in self.defs[:upto]}

    def _pool(self, upto: int) -> Set[str]:
        pool: Set[str] = set()
        for entry in self.defs[:upto]:
            pool.update(fresh for _, fresh in entry.consumed)
        return pool

    # -- renaming / eligibility --------------------------------------------

    def _rename_def(
        self,
        name: str,
        raw: Expr,
        env: Dict[str, str],
        pool: Set[str],
    ):
        """Alpha-rename one definition exactly as the cold chain parse
        would at its position: bound first then binder for ``let``,
        binder first (in scope) for ``letrec``."""
        recursive = name in free_base_names(raw) and name not in env
        if recursive and not isinstance(raw, Lam):
            raise ScopeError(
                "letrec requires the bound expression to be an abstraction"
            )
        renamer = _RecordingRenamer(pool)
        if recursive:
            fresh = renamer.fresh(name)
            bound = renamer.rename(raw, {**env, name: fresh})
        else:
            bound = renamer.rename(raw, env)
            fresh = renamer.fresh(name)
        return fresh, bound, renamer.consumed, recursive

    def _replay_matches(self, pool: Set[str], start: int) -> bool:
        """Would later definitions re-rename to the same fresh names
        against ``pool``? (The no-``rename-shift`` proof.)"""
        used = set(pool)
        counters: Dict[str, int] = {}
        for entry in self.defs[start:]:
            for base, fresh in entry.consumed:
                if fresh_name(base, used, counters) != fresh:
                    return False
        return True

    def _referenced_elsewhere(self, fresh: str, skip: int) -> bool:
        """Does any other definition's renamed body reference the
        binder ``fresh``? (Free variables of a stored body are exactly
        the fresh names of the globals it uses.)"""
        for index, entry in enumerate(self.defs):
            if index == skip:
                continue
            if fresh in free_base_names(entry.bound):
                return True
        return False

    # -- program indexing ---------------------------------------------------

    def _renumber_lines(self) -> None:
        """Stamp cold-parse line numbers onto the warm chain.

        :meth:`render_source` lays each definition out as four fixed
        lines (``let NAME =`` / ``(`` / ... / ``)`` then ``in``)
        around its verbatim source, so definition ``i`` starts at line
        ``offset_i = sum(4 + nlines_j for j < i)`` and its snippet's
        1-based positions sit ``offset_i + 2`` lines lower in the
        chain. Columns never move — snippets render at column 1.
        Re-stamping keeps warm lint findings byte-identical to a cold
        parse of the rendered program; per-definition shifts are
        cached so an unmoved definition costs O(1)."""
        offset = 0
        for entry in self.defs:
            entry.spine.line, entry.spine.column = offset + 1, 1
            shift = offset + 2
            if shift != entry.shift:
                delta = shift - entry.shift
                for node in entry.bound.walk():
                    node.line += delta
                entry.shift = shift
            offset += 4 + entry.nlines
        self.terminal.line, self.terminal.column = offset + 1, 1

    def _reindex(self) -> None:
        """Re-run :class:`Program` indexing over the current chain and
        re-key the factory's expression table to the new nids.

        Auto labels are cleared first so allocation replays the cold
        parse's preorder walk (same labels, same nids, same tables).
        The node budget follows the new program's size."""
        for entry in self.defs:
            for lam in entry.auto_lams:
                lam.label = None
        root = self.defs[0].spine if self.defs else self.terminal
        program = Program(root, rename=False)
        self._rekey(program)
        self.program = program
        self.engine.program = program
        self.engine.factory.program = program
        self.engine.factory.node_budget = default_node_budget(program.size)

    def _rekey(self, program: Program) -> None:
        """Re-key the factory's expression table to ``program``'s nids.

        Expression occurrences are keyed by nid; a re-index moves every
        nid, and retired occurrences are dropped entirely (so a query
        can never resurrect a replaced definition's nodes). Only the
        expression table is walked, and it holds the live occurrences
        alone, so this costs O(live program) however long the session;
        variable, operator and class keys are nid-independent and
        stay where they are."""
        factory = self.engine.factory
        old = factory._exprs
        for nid, _ in old:
            factory._occurrences.pop((EXPR, nid), None)
        factory._exprs = {}
        factory._bearing = {}
        live = program.nodes
        for (_, context), node in old.items():
            expr = node.expr
            if expr.nid < len(live) and live[expr.nid] is expr:
                factory.record_expr(expr, context, node)

    def _splice_same_shape(
        self,
        index: int,
        old: "DefEntry",
        name: str,
        fresh: str,
        source: str,
        raw: Expr,
        bound: Expr,
        consumed: List[Tuple[str, str]],
        recursive: bool,
    ) -> bool:
        """Same-shape redefinition fast path: splice the new bound
        subtree into the live :class:`Program` tables in place of the
        old one, skipping the full re-index.

        ``walk()`` is left-to-right preorder, so a bound subtree
        occupies a contiguous nid range with its root first; when the
        replacement has the same node count, every nid outside that
        range — and therefore every interned node, occurrence bucket
        and recorded closure edge elsewhere — is untouched by a cold
        re-parse too. This path skips the :class:`Program` re-index
        (benchmarks/bench_daemon.py); what is left is O(subtree) plus
        one pass over the live abstraction, application, expression
        and bearing tables.

        Guards (any miss falls back to the exact slow path): no
        let/letrec flip, no auto labels on either side (their preorder
        allocation is global), no datatype nodes (arity validation
        lives in ``Program._index``), equal node counts, and no label
        collision outside the replaced range."""
        if recursive != old.recursive or old.auto_lams:
            return False
        old_nodes = list(old.bound.walk())
        new_nodes = list(bound.walk())
        if len(new_nodes) != len(old_nodes):
            return False
        for node in new_nodes:
            if isinstance(node, (Case, Con)):
                return False
            if isinstance(node, Lam) and node.label is None:
                return False
        if any(isinstance(node, (Case, Con)) for node in old_nodes):
            return False
        program = self.program
        old_labels = {
            node.label for node in old_nodes if isinstance(node, Lam)
        }
        for node in new_nodes:
            if isinstance(node, Lam):
                holder = program.label_table.get(node.label)
                if holder is not None and node.label not in old_labels:
                    return False
        nid_start = old_nodes[0].nid
        if program.nodes[nid_start] is not old_nodes[0]:
            return False  # stale indexing — let the slow path rebuild
        try:
            for offset, node in enumerate(new_nodes):
                node.nid = nid_start + offset
            program.nodes[nid_start : nid_start + len(old_nodes)] = new_nodes
            for node in old_nodes:
                if isinstance(node, Lam):
                    del program.label_table[node.label]
                    del program.binders[node.param]
                elif isinstance(node, (Let, Letrec)):
                    del program.binders[node.name]
            for node in new_nodes:
                if isinstance(node, Lam):
                    program.label_table[node.label] = node
                    program.binders[node.param] = node
                elif isinstance(node, (Let, Letrec)):
                    program.binders[node.name] = node
            program.abstractions = [
                node for node in program.nodes if isinstance(node, Lam)
            ]
            program.applications = [
                node for node in program.nodes if isinstance(node, App)
            ]
            spine = old.spine
            if fresh != old.fresh:
                del program.binders[old.fresh]
                program.binders[fresh] = spine
            spine.name = fresh
            spine.bound = bound
            self.defs[index] = DefEntry(
                name, fresh, source, raw, bound, spine, recursive, consumed
            )
            self._drop_retired(old_nodes, nid_start)
        except Exception:
            # The splice mutates live tables; a failure mid-way is not
            # locally recoverable — rebuild from the pre-operation
            # specs and surface the error.
            self._replay(self._specs_from(index, old))
            raise
        return True

    def _specs_from(self, index: int, old: "DefEntry"):
        specs = self._specs()
        specs[index] = (old.name, old.source, old.raw)
        return specs

    def _drop_retired(
        self, old_nodes: List[Expr], nid_start: int
    ) -> None:
        """Purge the factory's records of a retired subtree (the
        targeted version of what :meth:`_rekey` does after a full
        re-index): the replacement reuses the same nids, so stale
        entries would resurrect old nodes. The expression table holds
        live occurrences only, so every entry in the subtree's nid
        range is a retired one."""
        factory = self.engine.factory
        retired = {id(node) for node in old_nodes}
        end = nid_start + len(old_nodes)
        for key in [k for k in factory._exprs if nid_start <= k[0] < end]:
            del factory._exprs[key]
        for nid in range(nid_start, end):
            factory._occurrences.pop((EXPR, nid), None)
        for cls, bucket in list(factory._bearing.items()):
            kept = [
                node
                for node in bucket
                if not (node.expr is not None and id(node.expr) in retired)
            ]
            if kept:
                factory._bearing[cls] = kept
            else:
                del factory._bearing[cls]

    # -- ground-edge bookkeeping -------------------------------------------

    def _desired_spine_pairs(self) -> Set[EdgePair]:
        """The chain wiring a cold build would emit for the current
        definitions: one binding edge (binder var -> bound root) and
        one body edge (spine node -> next spine node / terminal) per
        definition — exactly LC''s Let/Letrec build rule."""
        factory = self.engine.factory
        pairs: Set[EdgePair] = set()
        for index, entry in enumerate(self.defs):
            pairs.add(
                (
                    factory.var_node(entry.fresh),
                    factory.expr_node(entry.bound),
                )
            )
            nxt = (
                self.defs[index + 1].spine
                if index + 1 < len(self.defs)
                else self.terminal
            )
            pairs.add(
                (factory.expr_node(entry.spine), factory.expr_node(nxt))
            )
        return pairs

    def _retract_counts(self, counts: Dict[EdgePair, int]) -> List[EdgePair]:
        """Decrement ground reference counts; return the pairs whose
        count reached zero (to be physically deleted)."""
        zeroed: List[EdgePair] = []
        ground = self.ground
        for pair, count in counts.items():
            remaining = ground.get(pair, 0) - count
            if remaining > 0:
                ground[pair] = remaining
            else:
                ground.pop(pair, None)
                zeroed.append(pair)
        return zeroed

    # -- DRed over-delete + rederive ----------------------------------------

    def _dec_close_counter(self, src: Node) -> None:
        """Retracting one recorded closure edge: decrement the CLOSE-*
        counter it was attributed to. Attribution follows the firing
        rule the head implies; ``cell`` participates in both rules, so
        when the implied counter is already drained the other one is
        decremented (the sanitizer checks the *sum* against the
        recorded closure-edge count, which this preserves exactly)."""
        engine = self.engine
        primary = (
            engine._c_close_contra
            if src.opkey[0] == "dom"
            else engine._c_close_cov
        )
        secondary = (
            engine._c_close_cov
            if primary is engine._c_close_contra
            else engine._c_close_contra
        )
        if primary.value > 0:
            primary.value -= 1
        else:
            secondary.value -= 1

    def _overdelete(
        self, seeds: List[EdgePair]
    ) -> Tuple[List[EdgePair], List[Node]]:
        """DRed phase one: delete ``seeds`` and, transitively, every
        closure conclusion any deleted edge was a premise of.

        Any incoming edge supports an operator's demand independently,
        so demand is only invalidated when the *last* incoming edge
        goes — un-demanding on every deletion would delete and then
        rederive the full closure neighbourhood of shared hub
        operators (O(n) churn per edit on the cubic family, measured
        in benchmarks/bench_daemon.py). An operator whose support
        vanishes mid-wave is caught when its final in-edge is
        processed; survivors are re-demanded in phase two."""
        graph = self.engine.graph
        stats = self.engine.stats
        work = deque(seeds)
        scan = deque()
        deleted_close: List[EdgePair] = []
        undemanded: List[Node] = []
        while work or scan:
            if work:
                pair = work.popleft()
                src, dst = pair
                if not graph.remove_edge(src, dst):
                    continue  # already deleted via another premise
                if pair in self.close:
                    del self.close[pair]
                    self._dec_close_counter(src)
                    deleted_close.append(pair)
                scan.append(pair)
                if (
                    dst.kind == "op"
                    and dst.demanded
                    and graph.in_degree(dst) == 0
                ):
                    dst.demanded = False
                    stats.demanded_nodes -= 1
                    undemanded.append(dst)
                    for succ in list(graph.successors(dst)):
                        if (dst, succ) in self.close:
                            work.append((dst, succ))
                continue
            src, dst = scan.popleft()
            # Conclusion scans — the deleted edge as premise 1 of each
            # closure rule, mirroring the close loop's premise scans
            # (demand flags are ignored: the conclusion may have been
            # derived under demand support that is itself being
            # retracted).
            for opkey, opnode in src.ops.items():
                if opkey[0] in COVARIANT_HEADS:
                    other = dst.ops.get(opkey)
                    if other is not None and (opnode, other) in self.close:
                        work.append((opnode, other))
            for opkey, opnode in dst.ops.items():
                if opkey[0] in CONTRAVARIANT_HEADS:
                    other = src.ops.get(opkey)
                    if other is not None and (opnode, other) in self.close:
                        work.append((opnode, other))
        return deleted_close, undemanded

    def _rederive(
        self, deleted_close: List[EdgePair], undemanded: List[Node]
    ) -> int:
        """DRed phase two: re-demand operators that still have support,
        then re-add each over-deleted closure edge whose premise edge
        survived (queued as pending, so the subsequent ``close()``
        fixpoint propagates the multi-step rederivations)."""
        graph = self.engine.graph
        stats = self.engine.stats
        engine = self.engine
        for node in undemanded:
            if not node.demanded and graph.in_degree(node) > 0:
                node.demanded = True
                stats.demanded_nodes += 1
        readded = 0
        for src, dst in deleted_close:
            if not src.demanded:
                continue
            head = src.opkey[0]
            justified = (
                head in COVARIANT_HEADS
                and graph.has_edge(src.inner, dst.inner)
            ) or (
                head in CONTRAVARIANT_HEADS
                and graph.has_edge(dst.inner, src.inner)
            )
            if justified and engine._edge(src, dst, close=True):
                if head == "dom":
                    engine._c_close_contra.value += 1
                else:
                    engine._c_close_cov.value += 1
                readded += 1
        return readded

    # -- graph delta application --------------------------------------------

    def _build_subtree(self, entry: DefEntry) -> None:
        """Build the definition's subtree edges, reference-counted."""
        engine = self.engine
        refs: Dict[EdgePair, int] = {}

        def recorder(src: Node, dst: Node, close: bool) -> None:
            if not close:
                pair = (src, dst)
                refs[pair] = refs.get(pair, 0) + 1

        engine.edge_recorder = recorder
        try:
            engine._build_expr(entry.bound, ())
        finally:
            engine.edge_recorder = None
        entry.refs = refs
        ground = self.ground
        for pair, count in refs.items():
            ground[pair] = ground.get(pair, 0) + count

    def _apply_delta(
        self,
        retracted: List[DefEntry],
        inserted: List[DefEntry],
    ) -> Dict[str, int]:
        """One semi-naive mutation: retract, over-delete, rederive,
        build, close, drain. Returns delta-size accounting."""
        engine = self.engine
        # 1. Ground retraction: per-definition build-edge refcounts
        #    plus the stale chain wiring, folded into one seed list.
        seeds: List[EdgePair] = []
        for entry in retracted:
            seeds.extend(self._retract_counts(entry.refs))
        desired = self._desired_spine_pairs()
        stale = self.spine_pairs - desired
        added_spine = desired - self.spine_pairs
        seeds.extend(
            self._retract_counts({pair: 1 for pair in stale})
        )
        # 2-3. DRed over-delete + one-step rederive.
        deleted_close, undemanded = self._overdelete(seeds)
        readded = self._rederive(deleted_close, undemanded)
        # 4. New ground edges: chain wiring first, then the new
        #    definitions' subtrees (both land on the pending worklist).
        ground = self.ground
        for src, dst in added_spine:
            ground[(src, dst)] = ground.get((src, dst), 0) + 1
            engine._edge(src, dst)
        self.spine_pairs = desired
        for entry in inserted:
            self._build_subtree(entry)
        # 5. Close to fixpoint from the delta worklist and drain the
        #    newly recorded closure edges into the warm ordered set.
        engine.close()
        for pair in engine.close_edge_set:
            self.close[pair] = None
        engine.close_edge_set.clear()
        self.version += 1
        return {
            "retracted_edges": len(seeds) + len(deleted_close),
            "retracted_close_edges": len(deleted_close),
            "rederived_edges": readded,
        }

    # -- replay fallback -----------------------------------------------------

    def _replay(self, specs: List[Tuple[str, str, Expr]]) -> None:
        """Rebuild the warm state from scratch by re-appending every
        definition (fresh engine, no retired garbage). Restores the
        previous state object-for-object on failure."""
        saved = self._snapshot()
        self.defs = []
        self._fresh_state()
        try:
            with _span("delta.replay"):
                for name, source, raw in specs:
                    self._append(name, source, raw)
            self._renumber_lines()
        except Exception:
            self._restore(saved)
            # The restored trees may carry nids/labels assigned by the
            # failed replay only if they were shared — they are not
            # (a replay renames from ``raw``), so the old program
            # object is still internally consistent.
            raise

    def _specs(self) -> List[Tuple[str, str, Expr]]:
        return [(d.name, d.source, d.raw) for d in self.defs]

    def _fallback(
        self,
        specs: List[Tuple[str, str, Expr]],
        reason: str,
    ) -> None:
        self._replay(specs)
        self.fallbacks[reason] += 1

    # -- mutations ------------------------------------------------------------

    def define(self, name: str, source: str) -> Dict[str, object]:
        """Bind (or rebind) ``name`` to the expression ``source``.

        Returns the operation report: whether the delta path applied,
        the fallback reason otherwise, and delta-size accounting."""
        raw = parse_expr(source)
        index = self._find(name)
        if index is None:
            return self._guarded_append(name, source, raw)
        return self._redefine(index, name, source, raw)

    def undefine(self, name: str) -> Dict[str, object]:
        """Remove the binding ``name`` (an error while referenced)."""
        index = self._find(name)
        if index is None:
            raise ScopeError(f"unknown definition {name!r}")
        entry = self.defs[index]
        if self._referenced_elsewhere(entry.fresh, index):
            raise ScopeError(
                f"cannot undefine {name!r}: other definitions reference it"
            )
        pre_specs = self._specs()
        specs = pre_specs[:index] + pre_specs[index + 1 :]
        if not self._replay_matches(self._pool(index), index + 1):
            self._fallback(specs, "rename-shift")
            return self._report("undefine", name, "rename-shift", {})
        # Delta path: splice the chain, re-index, retract.
        self.defs.pop(index)
        if index > 0:
            self.defs[index - 1].spine.body = (
                self.defs[index].spine
                if index < len(self.defs)
                else self.terminal
            )
        self._reindex()  # cannot fail: strictly fewer labels/binders
        return self._apply_guarded(
            "undefine", name, pre_specs, retracted=[entry], inserted=[]
        )

    # -- mutation internals ---------------------------------------------------

    def _guarded_append(
        self, name: str, source: str, raw: Expr
    ) -> Dict[str, object]:
        pre_specs = self._specs()
        entry = self._splice_append(name, source, raw)
        return self._apply_guarded(
            "define", name, pre_specs, retracted=[], inserted=[entry],
            mode="append",
        )

    def _splice_append(self, name: str, source: str, raw: Expr) -> DefEntry:
        """Validate, rename and splice a new trailing definition.
        Raises (state unchanged) on scope/label errors."""
        env = self._env(len(self.defs))
        pool = self._pool(len(self.defs))
        fresh, bound, consumed, recursive = self._rename_def(
            name, raw, env, pool
        )
        cls = Letrec if recursive else Let
        spine = cls(fresh, bound, self.terminal)
        entry = DefEntry(
            name, fresh, source, raw, bound, spine, recursive, consumed
        )
        if self.defs:
            self.defs[-1].spine.body = spine
        self.defs.append(entry)
        try:
            self._reindex()
        except Exception:
            self.defs.pop()
            if self.defs:
                self.defs[-1].spine.body = self.terminal
            self._reindex()
            raise
        return entry

    def _append(self, name: str, source: str, raw: Expr) -> None:
        """Unguarded append (replay path: budget errors propagate)."""
        entry = self._splice_append(name, source, raw)
        self._apply_delta(retracted=[], inserted=[entry])

    def _redefine(
        self, index: int, name: str, source: str, raw: Expr
    ) -> Dict[str, object]:
        old = self.defs[index]
        pre_specs = self._specs()
        specs = list(pre_specs)
        specs[index] = (name, source, raw)
        env = self._env(index)
        pool = self._pool(index)
        # Rename against the pool as it stands *before* this
        # definition — exactly the cold renamer's state at its slot.
        fresh, bound, consumed, recursive = self._rename_def(
            name, raw, env, pool
        )
        eligible = self._replay_matches(pool, index + 1)
        if eligible and fresh != old.fresh:
            # The binder's own fresh name moved; stored later bodies
            # still reference the old one, so the chain only stays
            # cold-equal if nothing references it at all.
            eligible = not self._referenced_elsewhere(old.fresh, index)
        if not eligible:
            self._fallback(specs, "rename-shift")
            return self._report("define", name, "rename-shift", {})
        if self._splice_same_shape(
            index, old, name, fresh, source, raw, bound, consumed, recursive
        ):
            return self._apply_guarded(
                "define",
                name,
                pre_specs,
                retracted=[old],
                inserted=[self.defs[index]],
                mode="splice",
            )
        # Delta path: swap the spine node, re-index, retract + build.
        cls = Letrec if recursive else Let
        spine = cls(fresh, bound, old.spine.body)
        entry = DefEntry(
            name, fresh, source, raw, bound, spine, recursive, consumed
        )
        if index > 0:
            self.defs[index - 1].spine.body = spine
        self.defs[index] = entry
        try:
            self._reindex()
        except Exception:
            self.defs[index] = old
            if index > 0:
                self.defs[index - 1].spine.body = old.spine
            self._reindex()
            raise
        return self._apply_guarded(
            "define", name, pre_specs, retracted=[old], inserted=[entry]
        )

    def _apply_guarded(
        self,
        op: str,
        name: str,
        pre_specs: List[Tuple[str, str, Expr]],
        retracted: List[DefEntry],
        inserted: List[DefEntry],
        mode: str = "delta",
    ) -> Dict[str, object]:
        """Run the graph delta; on failure replay the (already
        updated) definition list, and if even that fails restore the
        pre-operation program before re-raising."""
        try:
            with _span(_MODE_LAYERS[mode]):
                sizes = self._apply_delta(retracted, inserted)
        except Exception as error:
            reason = (
                "node-budget"
                if isinstance(error, AnalysisBudgetExceeded)
                else "internal-error"
            )
            current_specs = self._specs()
            try:
                self._fallback(current_specs, reason)
            except Exception:
                # Even the replay with the new definitions failed
                # (e.g. genuinely over budget): restore the
                # pre-operation program cold and surface the error.
                self._replay(pre_specs)
                raise error
            return self._report(op, name, reason, {})
        return self._report(op, name, None, sizes, mode=mode)

    def _report(
        self,
        op: str,
        name: str,
        fallback_reason: Optional[str],
        sizes: Dict[str, int],
        mode: str = "replay",
    ) -> Dict[str, object]:
        # Every mutation ends here: restamp chain positions so read
        # surfaces (lint above all) agree with a cold parse.
        self._renumber_lines()
        graph = self.engine.graph
        report = {
            "op": op,
            "name": name,
            "delta": fallback_reason is None,
            "delta_fallback_reason": fallback_reason,
            #: How the mutation landed: ``splice`` (same-shape fast
            #: path), ``delta`` (DRed retract/rederive), ``append``
            #: (new trailing definition) or ``replay`` (full rebuild).
            "mode": mode,
            "retracted_edges": sizes.get("retracted_edges", 0),
            "retracted_close_edges": sizes.get("retracted_close_edges", 0),
            "rederived_edges": sizes.get("rederived_edges", 0),
            "graph": {
                "nodes": graph.node_count,
                "edges": graph.edge_count,
            },
            "version": self.version,
            "definitions": len(self.defs),
        }
        emit_event(
            "delta",
            component="delta",
            op=op,
            name=name,
            mode=mode,
            fallback_reason=fallback_reason,
            retracted_edges=report["retracted_edges"],
            rederived_edges=report["rederived_edges"],
            version=self.version,
        )
        return report

    # -- read surfaces ---------------------------------------------------------

    def subgraph(self) -> SubtransitiveGraph:
        """The warm graph as a :class:`SubtransitiveGraph` (fresh
        wrapper per call, so per-instance query caches never go
        stale across mutations)."""
        return SubtransitiveGraph(
            self.program,
            self.engine.factory,
            self.engine.graph,
            self.engine.stats,
            frozenset(self.close),
        )

    def cfa(self) -> SubtransitiveCFA:
        return SubtransitiveCFA(self.subgraph())

    def envelope(self) -> Dict[str, object]:
        """The ``repro.result/1`` document for the current program —
        byte-identical to a cold analysis of :meth:`render_source`."""
        from repro.export import result_to_dict

        return result_to_dict(self.cfa())

    def linearity_audit(self):
        """The T-series audit of the current program, equal to a cold
        audit of :meth:`render_source`, inferring only the definitions
        that changed since the last read (:mod:`repro.daemon.audit`)."""
        from repro.daemon.audit import chain_audit

        return chain_audit(self.program, self.defs)

    def lint(self) -> Dict[str, object]:
        """The lint section (findings/counts) for the current
        program, shaped exactly like the serve worker's."""
        from repro.serve.worker import _lint_section

        return _lint_section(
            self.program, self.cfa(), audit=self.linearity_audit()
        )

    def sanitize(self) -> Dict[str, object]:
        """The graph well-formedness report (timings dropped)."""
        return self.subgraph().sanitize().section()

    def query_name(self, name: str) -> Dict[str, object]:
        """The label set of a binding on the warm graph."""
        index = self._find(name)
        if index is None:
            raise ScopeError(f"unknown definition {name!r}")
        entry = self.defs[index]
        labels = self.cfa().labels_of_var(entry.fresh)
        return {"name": name, "labels": sorted(labels)}

    def query_label(self, label: str) -> Dict[str, object]:
        """The expressions an abstraction label flows to."""
        exprs = self.cfa().expressions_with_label(label)
        return {"label": label, "nids": [e.nid for e in exprs]}

    def render_source(self) -> str:
        """The concrete program a cold run must parse to agree with
        the warm graph: the original definition sources (verbatim, no
        printer round-trip) chained with let/letrec, ending in unit."""
        lines: List[str] = []
        for entry in self.defs:
            keyword = "letrec" if entry.recursive else "let"
            lines.append(f"{keyword} {entry.name} =")
            lines.append("(")
            lines.append(entry.source)
            lines.append(")")
            lines.append("in")
        lines.append("()")
        return "\n".join(lines) + "\n"

    @staticmethod
    def cold_cfa(source: str) -> SubtransitiveCFA:
        """The cold reference: parse + build + close from scratch with
        the daemon's engine configuration (default node budget for the
        program's size, no congruence, the daemon's depth cap)."""
        from repro.lang.parser import parse

        engine = LCEngine(
            parse(source), congruence=None, max_depth=DAEMON_MAX_DEPTH
        )
        return SubtransitiveCFA(engine.run())
