"""Let-polymorphic Hindley-Milner type inference (algorithm W).

Uses Remy-style generalisation levels: ``let``-bound types are
inferred one level up and only variables that stayed above the outer
level are generalised. Inference annotates every expression occurrence
with its (mono)type; for a use of a polymorphic binder the annotation
is the *instantiation* at that occurrence, which is exactly the
monotype the occurrence would have in the let-expansion — the quantity
McAllester's bounded-type definition (paper, Section 5) is stated in
terms of.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro._util import ensure_recursion_limit
from repro.errors import TypeInferenceError, UnknownConstructorError
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
from repro.types.types import (
    BOOL,
    INT,
    TData,
    TFun,
    TRecord,
    TRef,
    TScheme,
    TVar,
    Type,
    UNIT,
    free_type_vars,
    prune,
    substitute,
)
from repro.types.unify import unify


def _prim_scheme(name: str, level: int) -> Tuple[Tuple[Type, ...], Type]:
    """(argument types, result type) for primitive ``name`` used at
    generalisation level ``level``.

    ``print`` is polymorphic in its argument: each occurrence gets a
    fresh variable at its own level, so a let-bound function that
    prints its argument generalises like any other.
    """
    if name in ("add", "sub", "mul"):
        return (INT, INT), INT
    if name in ("less", "leq", "eq"):
        return (INT, INT), BOOL
    if name == "not":
        return (BOOL,), BOOL
    if name == "print":
        return (TVar(level),), UNIT
    raise TypeInferenceError(f"no type signature for primitive {name!r}")


class InferenceResult:
    """Typing of a whole program.

    * ``node_types[nid]`` — the monotype of each expression occurrence
      (for polymorphic uses, the per-occurrence instantiation);
    * ``schemes[name]`` — the generalised scheme of each ``let`` /
      ``letrec`` binder;
    * ``var_types[name]`` — the monotype of each lambda/case-bound
      variable.
    """

    def __init__(self) -> None:
        self.node_types: Dict[int, Type] = {}
        self.schemes: Dict[str, TScheme] = {}
        self.var_types: Dict[str, Type] = {}

    def type_of(self, expr: Expr) -> Type:
        """The (pruned) monotype inferred for occurrence ``expr``."""
        try:
            return prune(self.node_types[expr.nid])
        except KeyError:
            raise TypeInferenceError(
                f"expression #{expr.nid} was not part of the typed program"
            ) from None

    def type_of_var(self, name: str) -> Type:
        """The (pruned) monotype of a monomorphically-bound variable."""
        try:
            return prune(self.var_types[name])
        except KeyError:
            raise TypeInferenceError(
                f"variable {name!r} has no monomorphic type"
            ) from None


class _Inferencer:
    def __init__(self, program: Program):
        self.program = program
        self.result = InferenceResult()
        #: Projections whose record type was not yet determined when
        #: they were visited: (record type, index, result variable).
        #: Resolved to a fixpoint after the main pass (the usual
        #: flex-record treatment).
        self.pending_projections: List[Tuple[Type, int, Type]] = []

    # -- scheme helpers --------------------------------------------------

    def generalize(self, ty: Type, level: int) -> TScheme:
        quantified = [
            v for v in free_type_vars(ty) if v.level > level
        ]
        return TScheme(tuple(quantified), ty)

    def instantiate(self, scheme: TScheme, level: int) -> Type:
        if not scheme.quantified:
            return scheme.body
        return substitute(
            scheme.body, {v: TVar(level) for v in scheme.quantified}
        )

    # -- inference -------------------------------------------------------

    def infer(
        self, expr: Expr, env: Dict[str, TScheme], level: int
    ) -> Type:
        ty = self._infer(expr, env, level)
        self.result.node_types[expr.nid] = ty
        return ty

    def _infer(
        self, expr: Expr, env: Dict[str, TScheme], level: int
    ) -> Type:
        if isinstance(expr, Var):
            try:
                scheme = env[expr.name]
            except KeyError:
                raise TypeInferenceError(
                    f"unbound variable {expr.name!r}"
                ) from None
            return self.instantiate(scheme, level)
        if isinstance(expr, Lam):
            param = TVar(level)
            self.result.var_types[expr.param] = param
            inner = dict(env)
            inner[expr.param] = TScheme((), param)
            body = self.infer(expr.body, inner, level)
            return TFun(param, body)
        if isinstance(expr, App):
            fn = self.infer(expr.fn, env, level)
            arg = self.infer(expr.arg, env, level)
            result = TVar(level)
            unify(fn, TFun(arg, result))
            return result
        if isinstance(expr, (Let, Letrec)):
            inner = dict(env)
            inner[expr.name] = self.bind(expr, env, level)
            return self.infer(expr.body, inner, level)
        if isinstance(expr, Record):
            return TRecord(
                tuple(self.infer(f, env, level) for f in expr.fields)
            )
        if isinstance(expr, Proj):
            rec = prune(self.infer(expr.expr, env, level))
            if isinstance(rec, TVar):
                # Defer: the record type may be pinned down by later
                # unifications (flex-record treatment).
                result = TVar(level)
                self.pending_projections.append(
                    (rec, expr.index, result)
                )
                return result
            return self._project(rec, expr.index)
        if isinstance(expr, Con):
            signature = self.program.constructor_signature(expr.cname)
            owner = self.program.constructor_owner[expr.cname]
            for arg, want in zip(expr.args, signature):
                got = self.infer(arg, env, level)
                unify(got, want)
            return TData(owner.name)
        if isinstance(expr, Case):
            owners = {
                self.program.constructor_owner[b.cname].name
                for b in expr.branches
            }
            if len(owners) != 1:
                raise TypeInferenceError(
                    "case branches mix constructors from datatypes "
                    + ", ".join(sorted(owners))
                )
            owner = owners.pop()
            scrutinee = self.infer(expr.scrutinee, env, level)
            unify(scrutinee, TData(owner))
            result: Optional[Type] = None
            for branch in expr.branches:
                signature = self.program.datatypes[owner].constructors[
                    branch.cname
                ]
                inner = dict(env)
                for param, ty in zip(branch.params, signature):
                    self.result.var_types[param] = ty
                    inner[param] = TScheme((), ty)
                body = self.infer(branch.body, inner, level)
                if result is None:
                    result = body
                else:
                    unify(result, body)
            assert result is not None
            return result
        if isinstance(expr, If):
            cond = self.infer(expr.cond, env, level)
            unify(cond, BOOL)
            then = self.infer(expr.then, env, level)
            orelse = self.infer(expr.orelse, env, level)
            unify(then, orelse)
            return then
        if isinstance(expr, Lit):
            if expr.value is None:
                return UNIT
            if isinstance(expr.value, bool):
                return BOOL
            return INT
        if isinstance(expr, Prim):
            argtypes, result = _prim_scheme(expr.name, level)
            for arg, want in zip(expr.args, argtypes):
                got = self.infer(arg, env, level)
                unify(got, want)
            return result
        if isinstance(expr, Ref):
            return TRef(self.infer(expr.expr, env, level))
        if isinstance(expr, Deref):
            content = TVar(level)
            cell = self.infer(expr.expr, env, level)
            unify(cell, TRef(content))
            return content
        if isinstance(expr, Assign):
            content = TVar(level)
            target = self.infer(expr.target, env, level)
            unify(target, TRef(content))
            value = self.infer(expr.value, env, level)
            unify(value, content)
            return UNIT
        raise TypeError(f"unknown expression node {type(expr).__name__}")

    def bind(
        self, expr: Union[Let, Letrec], env: Dict[str, TScheme], level: int
    ) -> TScheme:
        """Infer a ``let``/``letrec`` binding one level up and return
        its generalised scheme (the body is left to the caller)."""
        if isinstance(expr, Letrec):
            # Monomorphic recursion: the binder is a plain variable
            # inside its own definition, generalised only for the body.
            recvar = TVar(level + 1)
            inner = dict(env)
            inner[expr.name] = TScheme((), recvar)
            bound = self.infer(expr.bound, inner, level + 1)
            unify(recvar, bound)
        else:
            bound = self.infer(expr.bound, env, level + 1)
        scheme = self.generalize(bound, level)
        self.result.schemes[expr.name] = scheme
        return scheme

    def _project(self, rec: Type, index: int) -> Type:
        if not isinstance(rec, TRecord):
            raise TypeInferenceError(
                f"projection #{index} applied to non-record type {rec}"
            )
        if index > len(rec.fields):
            raise TypeInferenceError(
                f"projection #{index} out of range for "
                f"{len(rec.fields)}-record"
            )
        return rec.fields[index - 1]

    def resolve_pending(self) -> None:
        """Fixpoint over deferred projections.

        Projections whose record type is still a free variable at the
        end are *defaulted* to the smallest record consistent with the
        observed indices (standard flex-record defaulting); this keeps
        inference total on programs that only constrain a record
        through its projections.
        """
        pending = self.pending_projections
        while pending:
            progressed = False
            remaining: List[Tuple[Type, int, Type]] = []
            for rec, index, result in pending:
                rec = prune(rec)
                if isinstance(rec, TVar):
                    remaining.append((rec, index, result))
                    continue
                unify(result, self._project(rec, index))
                progressed = True
            if not progressed:
                # Default each still-flexible record variable to the
                # minimum arity its projections require.
                arity: Dict[TVar, int] = {}
                for rec, index, _ in remaining:
                    rec = prune(rec)
                    assert isinstance(rec, TVar)
                    arity[rec] = max(arity.get(rec, 0), index)
                for rec, width in arity.items():
                    fields = tuple(TVar(rec.level) for _ in range(width))
                    unify(rec, TRecord(fields))
            pending = remaining
        self.pending_projections = []


def infer_types(
    program: Program,
    definition: Optional[Union[Let, Letrec]] = None,
    env: Optional[Dict[str, TScheme]] = None,
) -> InferenceResult:
    """Infer types for every occurrence in ``program``.

    Raises :class:`TypeInferenceError` if the program is not typeable
    under the let-polymorphic discipline (such programs fall outside
    the paper's bounded-type guarantee and should use the hybrid
    analysis driver).

    ``definition``, a ``let``/``letrec`` node of ``program``'s
    top-level chain, restricts inference to that one binding, typed
    under ``env`` (the schemes of the earlier definitions it names)
    and generalised at the top level; ``node_types`` then cover its
    bound subtree. Whole-program inference resolves deferred
    projections only at the end, after later definitions have
    instantiated this scheme, so ``schemes[definition.name]`` is a
    copy of the scheme taken *before* the binding's own projections
    are resolved: the scheme a later definition must instantiate.
    """
    ensure_recursion_limit()
    inferencer = _Inferencer(program)
    if definition is None:
        inferencer.infer(program.root, {}, 0)
    else:
        scheme = inferencer.bind(definition, env or {}, 0)
        inferencer.result.schemes[definition.name] = scheme.copy()
    inferencer.resolve_pending()
    return inferencer.result


def try_infer_types(
    program: Program,
) -> Union[InferenceResult, TypeInferenceError]:
    """:func:`infer_types`, with an untypeable program's
    :class:`TypeInferenceError` returned instead of raised: the
    attempt's outcome, kept and handed to every consumer."""
    try:
        return infer_types(program)
    except TypeInferenceError as error:
        # Kept without the frames it was raised through: they hold
        # the callers' locals, which come to hold the error itself.
        error.__context__ = None
        return error.with_traceback(None)
