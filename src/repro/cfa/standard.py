"""The standard (cubic-time) inclusion-based monovariant CFA.

This is the paper's Section 2 baseline: "the least association of
label sets that satisfies

* for any abstraction \\^l x.e, l in L(\\^l x.e), and
* for any application (e1 e2), if l in L(e1) and l labels \\^l x.e,
  then L(x) >= L(e2) and L((e1 e2)) >= L(e)

computed as a least fixed point". The implementation is the classic
constraint-graph worklist: token arrival at an application's operator
position installs the two inclusion edges for the discovered callee.

Records, datatypes and reference cells are handled in the usual
set-based style (tokens for record/constructor/ref creation sites,
conditional inclusion edges at projections / case branches / reads /
writes), so the baseline covers the same language the subtransitive
engine does.

The ``work`` counter counts token propagations — the paper's Table 1
reports "a measure of the units of work involved" precisely because
raw timings are noisy; we reproduce that measure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Set, Tuple

from repro._util import ensure_recursion_limit
from repro.cfa.base import (
    CFAResult,
    FlowKey,
    ValueToken,
    cell_key,
    key_of,
    var_key,
)
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
from repro.obs.events import span


class StandardCFAResult(CFAResult):
    """Completed standard CFA with its work/size accounting."""

    def __init__(
        self,
        program: Program,
        sets: Dict[FlowKey, Set[ValueToken]],
        work: int,
        edge_count: int,
    ):
        super().__init__(program)
        self._sets = sets
        #: Number of token propagations performed (the paper's "units
        #: of work" measure for Table 1).
        self.work = work
        #: Number of inclusion edges installed (base + discovered).
        self.edge_count = edge_count

    def tokens_at(self, key: FlowKey) -> Set[ValueToken]:
        return self._sets.get(key, set())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StandardCFAResult work={self.work} "
            f"edges={self.edge_count}>"
        )


class _Solver:
    """Worklist solver for the inclusion constraint system.

    With ``live_only`` the solver implements the dead-code-aware
    variant the paper's introduction lists as a design axis ("does the
    analysis take into account which pieces of a program can actually
    be called?"): constraints are generated lazily as expressions
    become *live* — the root is live, a live expression's children are
    live except abstraction bodies, and an abstraction's body becomes
    live only when the abstraction is applied at a live call site.
    """

    def __init__(self, program: Program, live_only: bool = False):
        self.program = program
        self.live_only = live_only
        self.live: Set[int] = set()
        self.sets: Dict[FlowKey, Set[ValueToken]] = {}
        self.succs: Dict[FlowKey, List[FlowKey]] = {}
        self.edges: Set[Tuple[FlowKey, FlowKey]] = set()
        # Conditional-rule watch tables: operator/subject key -> sites.
        self.app_sites: Dict[FlowKey, List[App]] = {}
        self.proj_sites: Dict[FlowKey, List[Proj]] = {}
        self.case_sites: Dict[FlowKey, List[Case]] = {}
        self.deref_sites: Dict[FlowKey, List[Deref]] = {}
        self.assign_sites: Dict[FlowKey, List[Assign]] = {}
        self.worklist: Deque[Tuple[FlowKey, ValueToken]] = deque()
        self.work = 0

    # -- constraint primitives ---------------------------------------------

    def add_token(self, key: FlowKey, token: ValueToken) -> None:
        # Each attempted propagation is one unit of work — this is the
        # paper's cubic measure (set-membership churn), whether or not
        # the token is new at ``key``.
        self.work += 1
        bucket = self.sets.setdefault(key, set())
        if token not in bucket:
            bucket.add(token)
            self.worklist.append((key, token))

    def add_subset(self, src: FlowKey, dst: FlowKey) -> None:
        """Install the inclusion L(dst) >= L(src)."""
        if src == dst or (src, dst) in self.edges:
            return
        self.edges.add((src, dst))
        self.succs.setdefault(src, []).append(dst)
        for token in list(self.sets.get(src, ())):
            self.add_token(dst, token)

    # -- base constraint generation -----------------------------------------

    def generate(self) -> None:
        if self.live_only:
            self.mark_live(self.program.root)
            return
        for node in self.program.nodes:
            self._generate(node)

    def mark_live(self, expr: Expr) -> None:
        """Make ``expr`` (and its non-lambda-body descendants) live,
        generating their constraints on first touch."""
        stack = [expr]
        while stack:
            node = stack.pop()
            if node.nid in self.live:
                continue
            self.live.add(node.nid)
            self._generate(node)
            for child in node.children():
                if isinstance(node, Lam):
                    continue  # bodies wait for an application
                stack.append(child)

    def _generate(self, node: Expr) -> None:
        if isinstance(node, Var):
            self.add_subset(var_key(node.name), key_of(node))
        elif isinstance(node, Lam):
            self.add_token(key_of(node), node)
        elif isinstance(node, App):
            self.app_sites.setdefault(key_of(node.fn), []).append(node)
        elif isinstance(node, Let):
            self.add_subset(key_of(node.bound), var_key(node.name))
            self.add_subset(key_of(node.body), key_of(node))
        elif isinstance(node, Letrec):
            self.add_subset(key_of(node.bound), var_key(node.name))
            self.add_subset(key_of(node.body), key_of(node))
        elif isinstance(node, Record):
            self.add_token(key_of(node), node)
        elif isinstance(node, Proj):
            self.proj_sites.setdefault(key_of(node.expr), []).append(node)
        elif isinstance(node, Con):
            self.add_token(key_of(node), node)
        elif isinstance(node, Case):
            self.case_sites.setdefault(
                key_of(node.scrutinee), []
            ).append(node)
            for branch in node.branches:
                self.add_subset(key_of(branch.body), key_of(node))
        elif isinstance(node, If):
            self.add_subset(key_of(node.then), key_of(node))
            self.add_subset(key_of(node.orelse), key_of(node))
        elif isinstance(node, Ref):
            self.add_token(key_of(node), node)
            self.add_subset(key_of(node.expr), cell_key(node))
        elif isinstance(node, Deref):
            self.deref_sites.setdefault(key_of(node.expr), []).append(node)
        elif isinstance(node, Assign):
            self.assign_sites.setdefault(
                key_of(node.target), []
            ).append(node)
        elif isinstance(node, (Lit, Prim)):
            pass  # ground results; arguments are not invoked
        else:
            raise TypeError(
                f"unknown expression node {type(node).__name__}"
            )

    # -- fixpoint -----------------------------------------------------------

    def solve(self) -> None:
        pop = self.worklist.popleft
        while self.worklist:
            key, token = pop()
            for dst in self.succs.get(key, ()):
                self.add_token(dst, token)
            self._trigger(key, token)

    def _trigger(self, key: FlowKey, token: ValueToken) -> None:
        if isinstance(token, Lam):
            for site in self.app_sites.get(key, ()):
                if self.live_only:
                    self.mark_live(token.body)
                self.add_subset(key_of(site.arg), var_key(token.param))
                self.add_subset(key_of(token.body), key_of(site))
        elif isinstance(token, Record):
            for site in self.proj_sites.get(key, ()):
                if site.index <= token.arity:
                    self.add_subset(
                        key_of(token.fields[site.index - 1]), key_of(site)
                    )
        elif isinstance(token, Con):
            for site in self.case_sites.get(key, ()):
                for branch in site.branches:
                    if branch.cname != token.cname:
                        continue
                    for param, arg in zip(branch.params, token.args):
                        self.add_subset(key_of(arg), var_key(param))
        elif isinstance(token, Ref):
            for site in self.deref_sites.get(key, ()):
                self.add_subset(cell_key(token), key_of(site))
            for site in self.assign_sites.get(key, ()):
                self.add_subset(key_of(site.value), cell_key(token))


def analyze_standard(
    program: Program, live_only: bool = False
) -> StandardCFAResult:
    """Run the standard cubic-time monovariant CFA on ``program``.

    ``live_only`` enables the dead-code-aware variant: only code the
    developing analysis proves reachable contributes constraints, so
    abstractions mentioned exclusively in dead code never pollute any
    label set. The default (paper-standard) analyses everything.
    """
    ensure_recursion_limit()
    with span("cfa.standard"):
        solver = _Solver(program, live_only=live_only)
        solver.generate()
        solver.solve()
    return StandardCFAResult(
        program, solver.sets, solver.work, len(solver.edges)
    )
