"""Alpha-renaming and scope checking.

The analysis (Section 3 of the paper) assumes "programs are renamed to
ensure that bound variables are distinct"; :func:`alpha_rename`
establishes that invariant by rebuilding the term with fresh, distinct
binder names. :func:`check_scopes` verifies closedness.

Both are linear in the term: the renamer keeps one scope map that a
binder updates on entry and restores on exit, :func:`fresh_name`
resumes each base name's suffix counter instead of probing from
``_1`` again, and :func:`free_variables` counts the binders around a
name instead of copying a set at each one.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.errors import ScopeError
from repro.lang.ast import (
    App,
    Assign,
    Branch,
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
    Proj,
    Record,
    Ref,
    Var,
)
from repro.obs.events import span


def fresh_name(base: str, used: Set[str], counters: Dict[str, int]) -> str:
    """The first of ``base``, ``base_1``, ``base_2``, ... not in
    ``used``; adds it to ``used``.

    ``counters`` maps a base name to the suffix its last probe stopped
    after. Names are only ever added to ``used``, so every suffix below
    that is still taken and the probe resumes there: the k-th ``x``
    costs one probe, not k. Pass the same ``counters`` for as long as
    ``used`` only grows, and a new one with a new ``used``.
    """
    if base not in used:
        used.add(base)
        return base
    counter = counters.get(base, 0) + 1
    name = f"{base}_{counter}"
    while name in used:
        counter += 1
        name = f"{base}_{counter}"
    counters[base] = counter
    used.add(name)
    return name


class _Renamer:
    """Rebuilds an expression with globally distinct binder names.

    Names are kept human-readable: the first binder called ``x`` stays
    ``x``; later ones become ``x_1``, ``x_2``, ...

    ``used`` may be shared across invocations (the incremental
    analysis session threads one pool through every definition so
    binders stay distinct session-wide).
    """

    def __init__(self, used: Optional[Set[str]] = None) -> None:
        self._used: Set[str] = used if used is not None else set()
        self._counters: Dict[str, int] = {}
        #: Source name -> renamed name for the binders in scope.
        self._scope: Dict[str, str] = {}

    def fresh(self, base: str) -> str:
        return fresh_name(base, self._used, self._counters)

    def rename(self, expr: Expr, env: Dict[str, str]) -> Expr:
        """Rename ``expr`` whose free variables ``env`` maps to the
        names to use for them (``env`` itself is left alone)."""
        self._scope = dict(env)
        return self._rename(expr)

    def _enter(self, name: str, fresh: str) -> Optional[str]:
        scope = self._scope
        outer = scope.get(name)
        scope[name] = fresh
        return outer

    def _exit(self, name: str, outer: Optional[str]) -> None:
        if outer is None:
            del self._scope[name]
        else:
            self._scope[name] = outer

    def _rename(self, expr: Expr) -> Expr:
        cls = type(expr)
        if cls is Var:
            name = self._scope.get(expr.name)
            if name is None:
                raise ScopeError(f"unbound variable {expr.name!r}")
            out = Var(name)
        elif cls is App:
            out = App(self._rename(expr.fn), self._rename(expr.arg))
        elif cls is Lam:
            fresh = self.fresh(expr.param)
            outer = self._enter(expr.param, fresh)
            out = Lam(fresh, self._rename(expr.body), expr.label)
            self._exit(expr.param, outer)
        elif cls is Let:
            bound = self._rename(expr.bound)
            fresh = self.fresh(expr.name)
            outer = self._enter(expr.name, fresh)
            out = Let(fresh, bound, self._rename(expr.body))
            self._exit(expr.name, outer)
        elif cls is Lit:
            out = Lit(expr.value)
        elif cls is Prim:
            out = Prim(expr.name, [self._rename(a) for a in expr.args])
        elif cls is Letrec:
            fresh = self.fresh(expr.name)
            outer = self._enter(expr.name, fresh)
            bound = self._rename(expr.bound)
            out = Letrec(fresh, bound, self._rename(expr.body))
            self._exit(expr.name, outer)
        elif cls is If:
            out = If(
                self._rename(expr.cond),
                self._rename(expr.then),
                self._rename(expr.orelse),
            )
        elif cls is Record:
            out = Record([self._rename(f) for f in expr.fields])
        elif cls is Proj:
            out = Proj(expr.index, self._rename(expr.expr))
        elif cls is Con:
            out = Con(expr.cname, [self._rename(a) for a in expr.args])
        elif cls is Case:
            scrutinee = self._rename(expr.scrutinee)
            branches = []
            for branch in expr.branches:
                fresh_params = [self.fresh(p) for p in branch.params]
                outers = [
                    self._enter(p, f)
                    for p, f in zip(branch.params, fresh_params)
                ]
                body = self._rename(branch.body)
                for p, outer in zip(reversed(branch.params), reversed(outers)):
                    self._exit(p, outer)
                branches.append(Branch(branch.cname, fresh_params, body))
            out = Case(scrutinee, branches)
        elif cls is Ref:
            out = Ref(self._rename(expr.expr))
        elif cls is Deref:
            out = Deref(self._rename(expr.expr))
        elif cls is Assign:
            out = Assign(self._rename(expr.target), self._rename(expr.value))
        else:
            raise TypeError(f"unknown expression node {cls.__name__}")
        out.line = expr.line
        out.column = expr.column
        return out


def alpha_rename(
    expr: Expr,
    free: Optional[Dict[str, str]] = None,
    used: Optional[Set[str]] = None,
) -> Expr:
    """Return a copy of ``expr`` in which all bound variables are
    distinct (and human-readable).

    ``free`` maps variable names that may occur free (e.g. session
    globals) to the names to use for them; ``used`` is an optional
    shared pool of already-taken binder names.
    """
    with span("lang.rename"):
        return _Renamer(used).rename(expr, free or {})


def free_variables(expr: Expr) -> Dict[str, None]:
    """The variables that occur free in ``expr``: the keys of the
    returned dict, in the order of their first occurrence (preorder,
    the order :func:`alpha_rename` meets them)."""
    free: Dict[str, None] = {}
    #: How many binders of each name enclose the current node.
    depth: Dict[str, int] = {}

    def bind(name: str) -> None:
        depth[name] = depth.get(name, 0) + 1

    def go(node: Expr) -> None:
        cls = type(node)
        if cls is Var:
            if not depth.get(node.name):
                free[node.name] = None
        elif cls is Lam:
            bind(node.param)
            go(node.body)
            depth[node.param] -= 1
        elif cls is Let:
            go(node.bound)
            bind(node.name)
            go(node.body)
            depth[node.name] -= 1
        elif cls is Letrec:
            bind(node.name)
            go(node.bound)
            go(node.body)
            depth[node.name] -= 1
        elif cls is Case:
            go(node.scrutinee)
            for branch in node.branches:
                for param in branch.params:
                    bind(param)
                go(branch.body)
                for param in branch.params:
                    depth[param] -= 1
        else:
            for child in node.children():
                go(child)

    go(expr)
    return free


def check_scopes(expr: Expr) -> None:
    """Raise :class:`ScopeError` unless ``expr`` is closed (naming the
    first free variable, as :func:`alpha_rename` would)."""
    free = free_variables(expr)
    if free:
        raise ScopeError(f"unbound variable {next(iter(free))!r}")


def bound_variables(expr: Expr) -> Set[str]:
    """All variable names bound anywhere in ``expr``."""
    names: Set[str] = set()
    for node in expr.walk():
        if isinstance(node, Lam):
            names.add(node.param)
        elif isinstance(node, (Let, Letrec)):
            names.add(node.name)
        elif isinstance(node, Case):
            for branch in node.branches:
                names.update(branch.params)
    return names
