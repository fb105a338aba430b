"""The semi-naive delta closure engine behind the daemon.

A :class:`ProjectAnalysis` holds one warm LC' graph for an evolving
sequence of top-level definitions (the project's *program*: a chain of
``let``/``letrec`` bindings ending in unit, exactly what
:meth:`ProjectAnalysis.render_source` prints). ``define`` and
``undefine`` mutate the chain **incrementally**. A definition occupies
a contiguous preorder nid range (its chain node, then its bound
subtree), so every mutation first *splices* the live tables: the
edited range goes into the :class:`Program` tables, only the nodes
after it are renumbered and re-keyed, and only the wiring edges around
the edited slot change. Then, instead of re-analysing from scratch, a
redefinition

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
4. **frees** every node the edit left without edges, with the
   operator towers over it: the warm graph holds a cold analysis's
   rows;
5. builds the new definition's subtree through the same recorder and
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
``internal-error``
    Any unexpected failure while mutating the warm graph; replay
    re-establishes a consistent state.

Either way the result is **byte-identical** to a cold analysis of
:meth:`render_source` — the equivalence suite enforces this per
operation. The node budget (LC''s default for the live program's
size) counts live nodes only, and a mutation never holds more than
the edited program's, so an edit is rejected exactly when a cold
analysis of the edited program exceeds the budget: the project then
keeps its previous program.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AnalysisBudgetExceeded, ScopeError
from repro.core.lc import LCEngine, SubtransitiveGraph, default_node_budget
from repro.obs.events import emit_event, span as _span
from repro.core.nodes import CONTRAVARIANT_HEADS, COVARIANT_HEADS, Node
from repro.core.queries import SubtransitiveCFA
from repro.lang.ast import (
    App,
    Expr,
    Lam,
    Let,
    Letrec,
    Lit,
    Program,
    auto_label,
    auto_label_number,
    check_node,
)
from repro.lang.parser import parse_expr
from repro.lang.rename import alpha_rename, fresh_name
from repro.lang.rename import free_variables as free_base_names

#: The delta engine's fallback taxonomy (see module docstring).
FALLBACK_REASONS = ("rename-shift", "internal-error")

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

#: What a replay rebuilds, and restores when the replay fails.
_STATE = (
    "defs",
    "terminal",
    "program",
    "engine",
    "close",
    "ground",
    "by_name",
    "names",
    "users",
    "taken",
)

EdgePair = Tuple[Node, Node]
Spec = Tuple[str, str, Expr]


def _first_at(
    items, value: int, key=attrgetter("nid"), hi: Optional[int] = None
) -> int:
    """The position of the first of ``items[:hi]`` (ascending by
    ``key``) whose key is at least ``value``, else ``hi``."""
    lo = 0
    if hi is None:
        hi = len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if key(items[mid]) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


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
        "free",
        "refs",
        "size",
        "auto_lams",
        "labels",
        "auto_end",
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
        free: Dict[str, None],
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
        #: ``(base, fresh)`` pairs in renamer-consumption order. A
        #: cold parse of the rendered program runs one renamer over the
        #: whole chain, and this is exactly its slice for this
        #: definition, which is what lets a redefinition *prove* that
        #: re-renaming it leaves every later definition's names
        #: untouched (no ``rename-shift``). The fresh names are also
        #: the definition's keys in ``Program.binders``.
        self.consumed = consumed
        #: The free variables of ``bound`` (the fresh names of the
        #: definitions it uses, its own if recursive), as keys in
        #: first-occurrence order: ``free_variables(bound)``.
        self.free = free
        #: Build-edge emission counts for this definition's subtree.
        self.refs: Dict[EdgePair, int] = {}
        nodes = list(bound.walk())
        #: The node count of ``bound``: the nid range after the spine's.
        self.size = len(nodes)
        lams = [node for node in nodes if isinstance(node, Lam)]
        #: Abstractions whose label is auto-assigned (and reassigned
        #: whenever the allocation before them moves).
        self.auto_lams: List[Lam] = [
            lam for lam in lams if lam.label is None
        ]
        #: The labels the source writes itself.
        self.labels: List[str] = [
            lam.label for lam in lams if lam.label is not None
        ]
        #: The auto-label counter after this definition's abstractions
        #: (``None`` until :meth:`ProjectAnalysis._relabel` runs).
        self.auto_end: Optional[int] = None
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
        #: Monotonic graph version: +1 per applied mutation or replay.
        self.version = 0
        #: Per-reason fallback counts (all zero on the pure delta path).
        self.fallbacks: Dict[str, int] = {r: 0 for r in FALLBACK_REASONS}
        self._fresh_state()

    # -- state plumbing ----------------------------------------------------

    def _fresh_state(self) -> None:
        self.defs: List[DefEntry] = []
        #: The shared chain terminator (the program's final ``()``).
        self.terminal = Lit(None)
        self.terminal.line = self.terminal.column = 1
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
        #: Each definition by its source name.
        self.by_name: Dict[str, DefEntry] = {}
        #: Every fresh name the definitions consumed: the cold
        #: renamer's pool at the end of the chain.
        self.names: Set[str] = set()
        #: Fresh binder name -> how many definitions' bodies name it.
        self.users: Dict[str, int] = {}
        #: The explicit labels of every definition.
        self.taken: Set[str] = set()

    def _position(self, entry: DefEntry) -> int:
        return _first_at(self.defs, entry.spine.nid, attrgetter("spine.nid"))

    def _pool_before(self, index: int) -> Set[str]:
        """The cold renamer's fresh-name pool at definition ``index``
        (a copy): every name but those consumed from ``index`` on."""
        return self.names.difference(
            fresh for entry in self.defs[index:] for _, fresh in entry.consumed
        )

    # -- renaming / eligibility --------------------------------------------

    def _new_entry(
        self,
        name: str,
        source: str,
        raw: Expr,
        index: int,
        old: Optional[DefEntry],
    ) -> Tuple[DefEntry, Set[str]]:
        """Rename ``raw`` as definition ``index`` exactly as the cold
        chain parse would at that slot — bound first then binder for
        ``let``, binder first (in scope) for ``letrec`` — and check it
        the way ``Program`` indexing would. Returns the entry and the
        renamer's pool after it. Raises with the project unchanged."""
        raw_free = free_base_names(raw)
        slot = old.spine.nid if old is not None else self.terminal.nid
        env: Dict[str, str] = {}
        for base in raw_free:
            entry = self.by_name.get(base)
            if entry is not None and entry.spine.nid < slot:
                env[base] = entry.fresh
        recursive = name in raw_free and name not in env
        if recursive and not isinstance(raw, Lam):
            raise ScopeError(
                "letrec requires the bound expression to be an abstraction"
            )
        # An append renames against the live pool (undone on error).
        pool = self.names if old is None else self._pool_before(index)
        consumed: List[Tuple[str, str]] = []
        try:
            if recursive:
                fresh = fresh_name(name, pool, {})
                consumed.append((name, fresh))
                env[name] = fresh
                bound = alpha_rename(raw, env, pool, consumed)
            else:
                bound = alpha_rename(raw, env, pool, consumed)
                fresh = fresh_name(name, pool, {})
                consumed.append((name, fresh))
            # Renaming maps each free name through ``env`` (it raised
            # otherwise) and binds nothing already in ``pool``.
            free = dict.fromkeys(env[base] for base in raw_free)
            cls = Letrec if recursive else Let
            entry = DefEntry(
                name,
                fresh,
                source,
                raw,
                bound,
                cls(fresh, bound, self.terminal),
                recursive,
                consumed,
                free,
            )
            self._check(entry, old, slot)
        except BaseException:
            if pool is self.names:
                pool.difference_update(fresh for _, fresh in consumed)
            raise
        return entry, pool

    def _check(
        self, entry: DefEntry, old: Optional[DefEntry], slot: int
    ) -> None:
        """Raise the first error a cold parse of the edited chain
        raises in preorder (:func:`check_node`; a project declares no
        datatypes), if any. Earlier definitions are error-free, so
        after this one's own nodes only a later definition's label
        clashing with one of this one's can raise."""
        table = self.program.label_table
        owner = self.program.constructor_owner
        mine = old.labels if old is not None else ()
        held = [
            table[label]
            for label in entry.labels
            if label in self.taken and label not in mine
        ]
        taken = {lam.label for lam in held if lam.nid < slot}
        for node in entry.bound.walk():
            check_node(node, owner, taken)
        # Every holder is later: the first a cold parse meets raises.
        for lam in sorted(held, key=attrgetter("nid")):
            check_node(lam, owner, taken)

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

    def _referenced_elsewhere(self, fresh: str, entry: DefEntry) -> bool:
        """Does any definition but ``entry`` reference the binder
        ``fresh``? (Free variables of a stored body are exactly the
        fresh names of the globals it uses.)"""
        return self.users.get(fresh, 0) > (fresh in entry.free)

    # -- the splice ---------------------------------------------------------

    def _splice(
        self, index: int, old: Optional[DefEntry], new: Optional[DefEntry]
    ) -> List[Node]:
        """Put ``new`` in the live tables where ``old`` was (either may
        be ``None``: an append, an undefine), ``self.defs`` already
        holding the edited list.

        Each definition's chain node and bound subtree are one
        contiguous preorder nid range, so the edit replaces one range
        of the :class:`Program` tables; only the nodes after it are
        renumbered and re-keyed in the factory (an append moves just
        the terminal ``()``), and retired nodes leave the factory's
        expression tables, so no lookup by nid resurrects them; they
        are returned, to be freed. The auto labels and line numbers
        that can move are restamped to a cold parse's."""
        program = self.program
        factory = self.engine.factory
        nodes = program.nodes
        start = old.spine.nid if old is not None else self.terminal.nid
        end = start + 1 + old.size if old is not None else start
        added = [new.spine, *new.bound.walk()] if new is not None else []
        lams = _first_at(program.abstractions, start)
        lams_end = _first_at(program.abstractions, end)
        apps = _first_at(program.applications, start)
        apps_end = _first_at(program.applications, end)
        table = program.label_table
        binders = program.binders
        retired: List[Node] = []
        if old is not None:
            for node in nodes[start:end]:
                if new is None or node is not new.spine:
                    retired += factory.forget_expr(node)
                if isinstance(node, Lam) and table.get(node.label) is node:
                    del table[node.label]
            for _, name in old.consumed:
                del binders[name]
                self.names.discard(name)
            for name in old.free:
                self.users[name] -= 1
            self.taken.difference_update(old.labels)
            del self.by_name[old.name]
            if not self.defs:  # a lone ``()`` has no node, cold
                retired += factory.forget_expr(self.terminal)
        nxt = old.spine.body if old is not None else self.terminal
        if new is not None:
            spine = new.spine
            spine.name, spine.bound, spine.body = new.fresh, new.bound, nxt
            for node in added:
                if isinstance(node, Lam):
                    binders[node.param] = node
                    if node.label is not None:
                        table[node.label] = node
                elif isinstance(node, (Let, Letrec)):
                    binders[node.name] = node
            self.names.update(name for _, name in new.consumed)
            for name in new.free:
                self.users[name] = self.users.get(name, 0) + 1
            self.taken.update(new.labels)
            self.by_name[new.name] = new
        if index > 0:
            self.defs[index - 1].spine.body = (
                new.spine if new is not None else nxt
            )
        program.root = self.defs[0].spine if self.defs else self.terminal
        nodes[start:end] = added
        for nid, node in enumerate(added, start):
            node.nid = nid
        program.abstractions[lams:lams_end] = [
            node for node in added if isinstance(node, Lam)
        ]
        program.applications[apps:apps_end] = [
            node for node in added if isinstance(node, App)
        ]
        # Renumber what follows, the far end first when it grew.
        moved = range(start + len(added), len(nodes))
        if len(added) > end - start:
            moved = reversed(moved)
        if len(added) != end - start:
            for nid in moved:
                factory.renumber_expr(nodes[nid], nid)
        edited = set(old.labels if old is not None else ())
        edited.symmetric_difference_update(
            new.labels if new is not None else ()
        )
        self._relabel(
            index,
            [k for k in map(auto_label_number, edited) if k is not None],
        )
        self._renumber_lines(index)
        return retired

    def _relabel(self, index: int, edited: List[int]) -> None:
        """Give the unlabelled abstractions a cold parse's labels
        (:func:`auto_label`). Definition ``index`` is new, or the one
        after a removed one; an explicit label ``l<k>`` the edit added
        or dropped (``k`` in ``edited``) moves the allocation from the
        first definition whose counter passed ``k``. The walk ends at
        the first definition from ``index`` on that ends on the
        counter it ended on before, once that is past every edited
        ``k``: nothing after it moves."""
        defs = self.defs
        start, past = index, -1
        if edited:
            start = _first_at(
                defs, min(edited) + 1, attrgetter("auto_end"), index
            )
            past = max(edited)
        counter = defs[start - 1].auto_end if start else 0
        table = self.program.label_table
        for position in range(start, len(defs)):
            entry = defs[position]
            for lam in entry.auto_lams:
                label, counter = auto_label(counter, self.taken)
                if lam.label != label:
                    if table.get(lam.label) is lam:
                        del table[lam.label]
                    lam.label = label
                    table[label] = lam
            if (
                position >= index
                and counter > past
                and entry.auto_end == counter
            ):
                return
            entry.auto_end = counter

    def _renumber_lines(self, index: int) -> None:
        """Stamp cold-parse line numbers onto the warm chain from
        definition ``index`` on.

        :meth:`render_source` lays each definition out as four fixed
        lines (``let NAME =`` / ``(`` / ... / ``)`` then ``in``)
        around its verbatim source, so definition ``i`` starts at line
        ``offset_i = sum(4 + nlines_j for j < i)`` and its snippet's
        1-based positions sit ``offset_i + 2`` lines lower in the
        chain. Columns never move — snippets render at column 1.
        Re-stamping keeps warm lint findings byte-identical to a cold
        parse of the rendered program. Per-definition shifts are
        cached, and the first later definition found in place ends
        the walk: nothing after it moved either."""
        offset = 0
        if index:
            prev = self.defs[index - 1]
            offset = prev.spine.line + 3 + prev.nlines
        for position in range(index, len(self.defs)):
            entry = self.defs[position]
            shift = offset + 2
            if shift == entry.shift:
                return
            entry.spine.line, entry.spine.column = offset + 1, 1
            delta = shift - entry.shift
            for node in entry.bound.walk():
                node.line += delta
            entry.shift = shift
            offset += 4 + entry.nlines
        self.terminal.line, self.terminal.column = offset + 1, 1

    # -- ground-edge bookkeeping -------------------------------------------

    def _wiring(
        self,
        prev: Optional[DefEntry],
        entry: Optional[DefEntry],
        nxt: Expr,
        kept: bool,
    ) -> List[EdgePair]:
        """The chain wiring around one slot, as a cold build emits it
        (LC''s Let/Letrec build rule): ``prev``'s body edge into the
        slot, then ``entry``'s binding edge (binder var -> bound root)
        and body edge (spine node -> ``nxt``). An empty slot
        (``entry`` ``None``) leaves ``prev`` leading to ``nxt``. A
        ``kept`` chain node (a same-shape splice) keeps its two chain
        edges, so only the binding edge is listed."""
        factory = self.engine.factory
        pairs: List[EdgePair] = []
        if prev is not None and not kept:
            target = entry.spine if entry is not None else nxt
            pairs.append(
                (factory.expr_node(prev.spine), factory.expr_node(target))
            )
        if entry is not None:
            pairs.append(
                (factory.var_node(entry.fresh), factory.expr_node(entry.bound))
            )
            if not kept:
                pairs.append(
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

    def _overdelete(
        self, seeds: List[EdgePair], emptied: List[Node]
    ) -> Tuple[List[EdgePair], List[Node]]:
        """DRed phase one: delete ``seeds`` and, transitively, every
        closure conclusion any deleted edge was a premise of; each
        node a deletion leaves without edges goes to ``emptied``.

        Any incoming edge supports an operator's demand independently,
        so demand is only invalidated when the *last* incoming edge
        goes — un-demanding on every deletion would delete and then
        rederive the full closure neighbourhood of shared hub
        operators (O(n) churn per edit on the cubic family, measured
        in benchmarks/bench_daemon.py). An operator whose support
        vanishes mid-wave is caught when its final in-edge is
        processed; survivors are re-demanded in phase two."""
        engine = self.engine
        graph = engine.graph
        close = self.close
        ops_of = engine.factory._ops.get
        cov, contra = engine._c_close_cov, engine._c_close_contra
        work = deque(seeds)
        scan = deque()
        deleted_close: List[EdgePair] = []
        undemanded: List[Node] = []
        while work or scan:
            if work:
                pair = work.popleft()
                src, dst = pair
                if not graph.remove_edge(src, dst, emptied):
                    continue  # already deleted via another premise
                if pair in close:
                    del close[pair]
                    deleted_close.append(pair)
                    # Un-count the rule its head implies; ``cell`` fires
                    # both, and the sanitizer checks only their sum.
                    counter = contra if src.opkey[0] == "dom" else cov
                    if not counter.value:
                        counter = cov if counter is contra else contra
                    counter.value -= 1
                scan.append(pair)
                if (
                    dst.kind == "op"
                    and dst.demanded
                    and graph.in_degree(dst) == 0
                ):
                    dst.demanded = False
                    engine.stats.demanded_nodes -= 1
                    undemanded.append(dst)
                    for succ in list(graph.successors(dst)):
                        if (dst, succ) in close:
                            work.append((dst, succ))
                continue
            src, dst = scan.popleft()
            # Conclusion scans — the deleted edge as premise 1 of each
            # closure rule, mirroring the close loop's premise scans
            # (demand flags are ignored: the conclusion may have been
            # derived under demand support that is itself being
            # retracted). Both need operators over both endpoints.
            src_ops, dst_ops = ops_of(src.uid), ops_of(dst.uid)
            if not (src_ops and dst_ops):
                continue
            for opkey, opnode in src_ops.items():
                if opkey[0] in COVARIANT_HEADS:
                    other = dst_ops.get(opkey)
                    if other is not None and (opnode, other) in close:
                        work.append((opnode, other))
            for opkey, opnode in dst_ops.items():
                if opkey[0] in CONTRAVARIANT_HEADS:
                    other = src_ops.get(opkey)
                    if other is not None and (opnode, other) in close:
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

    def _mutate(
        self, index: int, old: Optional[DefEntry], new: Optional[DefEntry]
    ) -> Dict[str, int]:
        """One semi-naive mutation: splice, retract, over-delete,
        rederive, free, build, close, drain, under the node budget the
        caller set. Returns delta-size accounting."""
        engine = self.engine
        factory = engine.factory
        prev = self.defs[index - 1] if index > 0 else None
        nxt = old.spine.body if old is not None else self.terminal
        kept = old is not None and new is not None and new.spine is old.spine
        before = self._wiring(prev, old, nxt, kept)
        candidates = self._splice(index, old, new)
        # 1. Ground retraction: the old definition's build-edge
        #    refcounts plus the stale chain wiring, in one seed list.
        seeds = self._retract_counts(old.refs) if old is not None else []
        seeds.extend(self._retract_counts(dict.fromkeys(before, 1)))
        # 2-3. DRed over-delete + one-step rederive.
        deleted_close, undemanded = self._overdelete(seeds, candidates)
        readded = self._rederive(deleted_close, undemanded)
        # 4. Free what the edit left without edges (retired occurrences,
        #    what over-delete emptied) with the towers over it. Build and
        #    close only add to the rest, so test it against the budget.
        factory.release(candidates, engine.graph.remove_isolated)
        if factory.node_count > factory.node_budget:
            raise AnalysisBudgetExceeded(
                "node", factory.node_count, factory.node_budget
            )
        # 5. New ground edges: chain wiring first, then the new
        #    definition's subtree (both land on the pending worklist).
        ground = self.ground
        for pair in self._wiring(prev, new, nxt, kept):
            ground[pair] = ground.get(pair, 0) + 1
            engine._edge(*pair)
        if new is not None:
            self._build_subtree(new)
        # 6. Close to fixpoint from the delta worklist and drain the
        #    newly recorded closure edges into the warm ordered set.
        engine.close()
        for pair in engine.close_edge_set:
            self.close[pair] = None
        engine.close_edge_set.clear()
        return {
            "retracted_edges": len(seeds) + len(deleted_close),
            "retracted_close_edges": len(deleted_close),
            "rederived_edges": readded,
        }

    # -- replay fallback -----------------------------------------------------

    def _replay(self, specs: List[Spec]) -> None:
        """Rebuild the warm state from scratch by re-appending every
        definition (fresh engine) — one linear open — under the whole
        program's node budget: a prefix's graph is a subset of the
        program's, so the replay fails exactly when a cold analysis
        does. Restores the previous state object-for-object on failure."""
        saved = [getattr(self, attr) for attr in _STATE]
        size = 1 + sum(1 + sum(1 for _ in raw.walk()) for *_, raw in specs)
        self._fresh_state()
        self.engine.factory.node_budget = default_node_budget(size)
        try:
            with _span("delta.replay"):
                for name, source, raw in specs:
                    entry, _ = self._new_entry(
                        name, source, raw, len(self.defs), None
                    )
                    self.defs.append(entry)
                    self._mutate(len(self.defs) - 1, None, entry)
        except Exception:
            # A replay renames from ``raw``, so the restored trees
            # share nothing with the failed one.
            for attr, value in zip(_STATE, saved):
                setattr(self, attr, value)
            raise

    def _specs(self) -> List[Spec]:
        return [(d.name, d.source, d.raw) for d in self.defs]

    def _fallback(self, specs: List[Spec], reason: str) -> None:
        self._replay(specs)
        self.fallbacks[reason] += 1
        self.version += 1

    def rehydrate(self, history: List[Tuple[str, str]]) -> None:
        """Open the ``(name, source)`` definitions of an evicted
        project in one replay, under the whole program's budget."""
        self._replay([(name, src, parse_expr(src)) for name, src in history])
        self.version += 1

    # -- mutations ------------------------------------------------------------

    def define(self, name: str, source: str) -> Dict[str, object]:
        """Bind (or rebind) ``name`` to the expression ``source``.

        Returns the operation report: whether the delta path applied,
        the fallback reason otherwise, and delta-size accounting."""
        raw = parse_expr(source)
        old = self.by_name.get(name)
        if old is None:
            entry, _ = self._new_entry(name, source, raw, len(self.defs), None)
            return self._apply(
                "define", name, len(self.defs), None, entry, "append"
            )
        index = self._position(old)
        # Rename against the pool as it stands *before* this
        # definition — exactly the cold renamer's state at its slot.
        entry, pool = self._new_entry(name, source, raw, index, old)
        eligible = self._replay_matches(pool, index + 1)
        if eligible and entry.fresh != old.fresh:
            # The binder's own fresh name moved; stored later bodies
            # still reference the old one, so the chain only stays
            # cold-equal if nothing references it at all.
            eligible = not self._referenced_elsewhere(old.fresh, old)
        if not eligible:
            specs = self._specs()
            specs[index] = (name, source, raw)
            self._fallback(specs, "rename-shift")
            return self._report("define", name, "rename-shift", {})
        # Same shape (equal node counts, no let/letrec flip, no auto
        # labels on either side or taken from elsewhere): the chain
        # node stays and the nids outside the subtree with it.
        table = self.program.label_table
        if (
            entry.recursive == old.recursive
            and not old.auto_lams
            and not entry.auto_lams
            and entry.size == old.size
            and not any(
                label in table and label not in old.labels
                for label in entry.labels
            )
        ):
            entry.spine = old.spine
            return self._apply("define", name, index, old, entry, "splice")
        return self._apply("define", name, index, old, entry, "delta")

    def undefine(self, name: str) -> Dict[str, object]:
        """Remove the binding ``name`` (an error while referenced)."""
        old = self.by_name.get(name)
        if old is None:
            raise ScopeError(f"unknown definition {name!r}")
        if self._referenced_elsewhere(old.fresh, old):
            raise ScopeError(
                f"cannot undefine {name!r}: other definitions reference it"
            )
        index = self._position(old)
        if index + 1 < len(self.defs) and not self._replay_matches(
            self._pool_before(index), index + 1
        ):
            specs = self._specs()
            del specs[index]
            self._fallback(specs, "rename-shift")
            return self._report("undefine", name, "rename-shift", {})
        return self._apply("undefine", name, index, old, None, "delta")

    # -- mutation internals ---------------------------------------------------

    def _apply(
        self,
        op: str,
        name: str,
        index: int,
        old: Optional[DefEntry],
        new: Optional[DefEntry],
        mode: str,
    ) -> Dict[str, object]:
        """Edit the definition list and run the mutation under the
        edited program's node budget. Over budget, restore the
        pre-operation program and re-raise; on any other failure replay
        the edited list (``internal-error``), and if even that fails
        restore and re-raise."""
        if old is None:
            self.defs.append(new)
        elif new is None:
            del self.defs[index]
        else:
            self.defs[index] = new
        grown = (new.size + 1 if new else 0) - (old.size + 1 if old else 0)
        budget = default_node_budget(len(self.program.nodes) + grown)
        self.engine.factory.node_budget = budget
        try:
            with _span(_MODE_LAYERS[mode]):
                sizes = self._mutate(index, old, new)
        except Exception as error:
            specs = self._specs()
            if not isinstance(error, AnalysisBudgetExceeded):
                try:
                    self._fallback(specs, "internal-error")
                    return self._report(op, name, "internal-error", {})
                except Exception:
                    pass
            if new is not None:
                del specs[index]
            if old is not None:
                specs.insert(index, (old.name, old.source, old.raw))
            self._replay(specs)
            raise error
        self.version += 1
        return self._report(op, name, None, sizes, mode=mode)

    def _report(
        self,
        op: str,
        name: str,
        fallback_reason: Optional[str],
        sizes: Dict[str, int],
        mode: str = "replay",
    ) -> Dict[str, object]:
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
        entry = self.by_name.get(name)
        if entry is None:
            raise ScopeError(f"unknown definition {name!r}")
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
