"""Type representations for the mini-ML language.

The paper's complexity result is parameterised by the *tree size* of the
types occurring in a program (Section 4): a program is in the class
``P_k`` when every expression's monotype has tree size at most ``k``.
This module defines the type terms themselves; inference lives in
:mod:`repro.types.infer` and the size measures in
:mod:`repro.types.measure`.

Types are immutable and structurally hashable *except* for
:class:`TVar`, which is a mutable inference variable using identity
semantics (the standard union-find-by-path-compression representation
for algorithm W).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Tuple


class Type:
    """Base class of all type terms."""

    __slots__ = ()

    def walk(self) -> Iterator["Type"]:
        """Yield this type and all subterms, preorder, following
        resolved inference variables."""
        resolved = prune(self)
        yield resolved
        for child in resolved.children():
            yield from child.walk()

    def children(self) -> Tuple["Type", ...]:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class TCon(Type):
    """A base type constant such as ``int``, ``bool`` or ``unit``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, TCon) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("TCon", self.name))

    def __str__(self) -> str:
        return self.name


#: Shared base type instances.
INT = TCon("int")
BOOL = TCon("bool")
UNIT = TCon("unit")
STRING = TCon("string")


class TFun(Type):
    """A function type ``param -> result``."""

    __slots__ = ("param", "result")

    def __init__(self, param: Type, result: Type):
        self.param = param
        self.result = result

    def children(self) -> Tuple[Type, ...]:
        return (self.param, self.result)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TFun)
            and prune(other.param) == prune(self.param)
            and prune(other.result) == prune(self.result)
        )

    def __hash__(self) -> int:
        return hash(("TFun", prune(self.param), prune(self.result)))

    def __str__(self) -> str:
        param = prune(self.param)
        if isinstance(param, TFun):
            return f"({param}) -> {prune(self.result)}"
        return f"{param} -> {prune(self.result)}"


class TRecord(Type):
    """A record (tuple) type ``(t1, ..., tn)``."""

    __slots__ = ("fields",)

    def __init__(self, fields: Tuple[Type, ...]):
        self.fields = tuple(fields)

    def children(self) -> Tuple[Type, ...]:
        return self.fields

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TRecord)
            and len(other.fields) == len(self.fields)
            and all(
                prune(a) == prune(b)
                for a, b in zip(self.fields, other.fields)
            )
        )

    def __hash__(self) -> int:
        return hash(("TRecord", tuple(prune(f) for f in self.fields)))

    def __str__(self) -> str:
        inner = ", ".join(str(prune(f)) for f in self.fields)
        return f"({inner})"


class TData(Type):
    """A named (possibly recursive) datatype, e.g. ``intlist``.

    Datatypes in this reproduction are monomorphic: the declaration
    fixes the argument types of every constructor (Section 6 of the
    paper treats an ML datatype declaration as defining a collection of
    multi-arity data constructors).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, TData) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("TData", self.name))

    def __str__(self) -> str:
        return self.name


class TRef(Type):
    """A mutable reference cell type ``t ref``."""

    __slots__ = ("content",)

    def __init__(self, content: Type):
        self.content = content

    def children(self) -> Tuple[Type, ...]:
        return (self.content,)

    def __eq__(self, other) -> bool:
        return isinstance(other, TRef) and prune(other.content) == prune(
            self.content
        )

    def __hash__(self) -> int:
        return hash(("TRef", prune(self.content)))

    def __str__(self) -> str:
        content = prune(self.content)
        if isinstance(content, TFun):
            return f"({content}) ref"
        return f"{content} ref"


_tvar_counter = itertools.count()


class TVar(Type):
    """A mutable unification variable (identity-based).

    ``instance`` is the union-find parent pointer: ``None`` while the
    variable is free, otherwise the type it was unified with. ``level``
    implements Remy-style generalisation levels for efficient
    let-polymorphism.
    """

    __slots__ = ("uid", "instance", "level")

    def __init__(self, level: int = 0):
        self.uid = next(_tvar_counter)
        self.instance: Optional[Type] = None
        self.level = level

    def __eq__(self, other) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def __str__(self) -> str:
        if self.instance is not None:
            return str(prune(self))
        return f"'t{self.uid}"


class TScheme:
    """A polymorphic type scheme ``forall a1..an . body``."""

    __slots__ = ("quantified", "body")

    def __init__(self, quantified: Tuple[TVar, ...], body: Type):
        self.quantified = tuple(quantified)
        self.body = body

    @property
    def is_mono(self) -> bool:
        return not self.quantified

    @property
    def is_closed(self) -> bool:
        """Is every free variable of the body quantified? An open
        scheme shares its other variables with whoever instantiates
        it, so a later unification can still change it."""
        quantified = set(self.quantified)
        return all(v in quantified for v in free_type_vars(self.body))

    def copy(self) -> "TScheme":
        """The same scheme over fresh quantified variables: later
        unifications of this scheme's variables leave the copy as it
        is now. Unquantified variables stay shared."""
        mapping: Dict[TVar, Type] = {
            v: TVar(v.level) for v in self.quantified
        }
        return TScheme(
            tuple(mapping.values()), substitute(self.body, mapping)
        )

    def alpha_equal(self, other: "TScheme") -> bool:
        """Equal up to renaming of the quantified variables, matched
        by position (both in first-occurrence order, as
        generalisation and :meth:`copy` leave them)."""
        if len(self.quantified) != len(other.quantified):
            return False
        ours = {v: i for i, v in enumerate(self.quantified)}
        theirs = {v: i for i, v in enumerate(other.quantified)}

        def same(a: Type, b: Type) -> bool:
            a, b = prune(a), prune(b)
            if isinstance(a, TVar) or isinstance(b, TVar):
                index = ours.get(a) if isinstance(a, TVar) else None
                if index is None:
                    return a is b
                return isinstance(b, TVar) and theirs.get(b) == index
            if type(a) is not type(b):
                return False
            if isinstance(a, (TCon, TData)):
                return a.name == b.name
            left, right = a.children(), b.children()
            return len(left) == len(right) and all(
                same(x, y) for x, y in zip(left, right)
            )

        return same(self.body, other.body)

    def __str__(self) -> str:
        if not self.quantified:
            return str(self.body)
        names = " ".join(str(v) for v in self.quantified)
        return f"forall {names}. {self.body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


def prune(ty: Type) -> Type:
    """Follow instantiated type variables to the representative type.

    Performs path compression, so repeated calls are effectively O(1).
    """
    while isinstance(ty, TVar) and ty.instance is not None:
        # Path-compress: point directly at the representative.
        nxt = ty.instance
        if isinstance(nxt, TVar) and nxt.instance is not None:
            ty.instance = nxt.instance
        ty = nxt
    return ty


def substitute(ty: Type, mapping: Dict[TVar, Type]) -> Type:
    """``ty`` rebuilt with each variable in ``mapping`` replaced
    (resolved variables are followed; other variables are shared)."""
    ty = prune(ty)
    if isinstance(ty, TVar):
        return mapping.get(ty, ty)
    if isinstance(ty, TFun):
        return TFun(
            substitute(ty.param, mapping), substitute(ty.result, mapping)
        )
    if isinstance(ty, TRecord):
        return TRecord(tuple(substitute(f, mapping) for f in ty.fields))
    if isinstance(ty, TRef):
        return TRef(substitute(ty.content, mapping))
    return ty


def occurs_in(var: TVar, ty: Type) -> bool:
    """Return True if ``var`` occurs in ``ty`` (after pruning)."""
    ty = prune(ty)
    if ty is var:
        return True
    return any(occurs_in(var, child) for child in ty.children())


def free_type_vars(ty: Type) -> "list[TVar]":
    """Free unification variables of ``ty``, in first-occurrence order."""
    seen: "dict[int, TVar]" = {}
    stack = [ty]
    while stack:
        t = prune(stack.pop())
        if isinstance(t, TVar):
            seen.setdefault(t.uid, t)
        else:
            stack.extend(reversed(t.children()))
    return list(seen.values())
