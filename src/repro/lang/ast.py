"""Abstract syntax for the mini-ML object language.

The core of the paper (Sections 2-4) works over a lambda calculus with
*labelled* abstractions::

    e ::= x | \\^l x. e | (e1 e2)

Sections 5-6 extend the language (and the analysis) with ``let``
polymorphism, ``letrec``, records with projection, datatype
constructors with ``case`` deconstruction, and we additionally include
literals, primitives, conditionals and ML-style ref cells so the
effects analysis of Section 8 has something to find.

Identity matters: standard CFA associates a label set with each
*occurrence* of a subexpression, so AST nodes use identity equality
(two structurally equal occurrences are distinct analysis nodes). Every
node belonging to a :class:`Program` carries a unique integer ``nid``.
"""

from __future__ import annotations

import re
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ScopeError, UnknownConstructorError
from repro.lang.prims import PRIMITIVES

if TYPE_CHECKING:  # imported for annotations only (avoids an import cycle)
    from repro.types.types import Type


class Expr:
    """Base class of all expression nodes.

    Subclasses use ``__slots__`` and identity equality. The ``nid``
    field is ``-1`` until the node is indexed by a :class:`Program`.
    """

    __slots__ = ("nid", "line", "column")

    def __init__(self) -> None:
        self.nid = -1
        self.line = 0
        self.column = 0

    def children(self) -> Tuple["Expr", ...]:
        """Direct subexpressions, in evaluation order."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants in preorder."""
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def at(self, line: int, column: int) -> "Expr":
        """Attach a source position (builder convenience)."""
        self.line = line
        self.column = column
        return self

    def __repr__(self) -> str:
        from repro.lang.printer import pretty

        return f"<{type(self).__name__} #{self.nid} {pretty(self)!r}>"


class Var(Expr):
    """A variable occurrence."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class Lam(Expr):
    """A labelled abstraction ``\\^l x. body``.

    ``label`` is the abstraction label the analysis traces; it is
    assigned automatically by :class:`Program` when left ``None``.
    """

    __slots__ = ("param", "body", "label")

    def __init__(self, param: str, body: Expr, label: Optional[str] = None):
        super().__init__()
        self.param = param
        self.body = body
        self.label = label

    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)


class App(Expr):
    """An application ``(fn arg)``."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Expr, arg: Expr):
        super().__init__()
        self.fn = fn
        self.arg = arg

    def children(self) -> Tuple[Expr, ...]:
        return (self.fn, self.arg)


class Let(Expr):
    """A (polymorphic) ``let name = bound in body``."""

    __slots__ = ("name", "bound", "body")

    def __init__(self, name: str, bound: Expr, body: Expr):
        super().__init__()
        self.name = name
        self.bound = bound
        self.body = body

    def children(self) -> Tuple[Expr, ...]:
        return (self.bound, self.body)


class Letrec(Expr):
    """A recursive binding ``letrec f = \\^l x. e1 in e2`` (Section 6).

    The bound expression must be an abstraction, matching the paper's
    construct.
    """

    __slots__ = ("name", "bound", "body")

    def __init__(self, name: str, bound: Lam, body: Expr):
        super().__init__()
        if not isinstance(bound, Lam):
            raise ScopeError(
                "letrec requires the bound expression to be an abstraction"
            )
        self.name = name
        self.bound = bound
        self.body = body

    def children(self) -> Tuple[Expr, ...]:
        return (self.bound, self.body)


class Record(Expr):
    """A record (tuple) creation ``(e1, ..., en)`` with n >= 2."""

    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[Expr]):
        super().__init__()
        self.fields = tuple(fields)

    def children(self) -> Tuple[Expr, ...]:
        return self.fields

    @property
    def arity(self) -> int:
        return len(self.fields)


class Proj(Expr):
    """A record projection ``#j e`` (1-based, as in SML)."""

    __slots__ = ("index", "expr")

    def __init__(self, index: int, expr: Expr):
        super().__init__()
        if index < 1:
            raise ScopeError(f"projection index must be >= 1, got {index}")
        self.index = index
        self.expr = expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)


class Con(Expr):
    """A datatype constructor application ``C(e1, ..., en)``."""

    __slots__ = ("cname", "args")

    def __init__(self, cname: str, args: Sequence[Expr] = ()):
        super().__init__()
        self.cname = cname
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args


class Branch:
    """One arm of a :class:`Case`: ``C(x1, ..., xn) => body``."""

    __slots__ = ("cname", "params", "body")

    def __init__(self, cname: str, params: Sequence[str], body: Expr):
        self.cname = cname
        self.params = tuple(params)
        self.body = body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(self.params)
        return f"<Branch {self.cname}({params})>"


class Case(Expr):
    """A datatype deconstruction ``case e of C1(..) => e1 | ...``.

    Branches must be exhaustive for the scrutinee's datatype (checked
    during type inference, not at construction).
    """

    __slots__ = ("scrutinee", "branches")

    def __init__(self, scrutinee: Expr, branches: Sequence[Branch]):
        super().__init__()
        if not branches:
            raise ScopeError("case expression must have at least one branch")
        self.scrutinee = scrutinee
        self.branches = tuple(branches)

    def children(self) -> Tuple[Expr, ...]:
        return (self.scrutinee,) + tuple(b.body for b in self.branches)


class If(Expr):
    """A conditional ``if c then t else f``."""

    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr):
        super().__init__()
        self.cond = cond
        self.then = then
        self.orelse = orelse

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)


class Lit(Expr):
    """A literal: an ``int``, a ``bool`` or unit (``None``)."""

    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        if not (value is None or isinstance(value, (bool, int))):
            raise ScopeError(f"unsupported literal {value!r}")
        self.value = value


class Prim(Expr):
    """A fully-applied primitive ``p(e1, ..., en)``.

    The primitive table (:mod:`repro.lang.prims`) fixes each
    primitive's arity and whether it is side-effecting; the paper's
    effects analysis (Section 8) starts from applications of
    side-effecting primitives.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        super().__init__()
        if name not in PRIMITIVES:
            raise ScopeError(f"unknown primitive {name!r}")
        spec = PRIMITIVES[name]
        if len(args) != spec.arity:
            raise ScopeError(
                f"primitive {name!r} expects {spec.arity} argument(s), "
                f"got {len(args)}"
            )
        self.name = name
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    @property
    def effectful(self) -> bool:
        return PRIMITIVES[self.name].effectful


class Ref(Expr):
    """Reference-cell allocation ``ref e``."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        super().__init__()
        self.expr = expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)


class Deref(Expr):
    """Reference-cell read ``!e``."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        super().__init__()
        self.expr = expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)


class Assign(Expr):
    """Reference-cell write ``e1 := e2`` (side-effecting)."""

    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr):
        super().__init__()
        self.target = target
        self.value = value

    def children(self) -> Tuple[Expr, ...]:
        return (self.target, self.value)


class DatatypeDecl:
    """A monomorphic datatype declaration.

    ``constructors`` maps each constructor name to the tuple of its
    argument types, e.g.::

        DatatypeDecl("intlist", {"Nil": (), "Cons": (INT, TData("intlist"))})
    """

    __slots__ = ("name", "constructors")

    def __init__(self, name: str, constructors: "Dict[str, Tuple[Type, ...]]"):
        self.name = name
        self.constructors = {c: tuple(ts) for c, ts in constructors.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DatatypeDecl {self.name}>"


#: The form of the labels :func:`auto_label` allocates.
_AUTO_LABEL = re.compile(r"l(0|[1-9][0-9]*)")


def auto_label(counter: int, taken: Set[str]) -> Tuple[str, int]:
    """The label an unlabelled abstraction gets with the allocation
    counter at ``counter`` (a program counts from 0 over its
    abstractions in preorder): ``l<counter>``, or the first ``l<k>``
    after it that is not one of the explicit labels ``taken``. Returns
    the label and the counter after it."""
    while f"l{counter}" in taken:
        counter += 1
    return f"l{counter}", counter + 1


def auto_label_number(label: str) -> Optional[int]:
    """``k`` if ``label`` has the form :func:`auto_label` allocates,
    ``l<k>`` (so writing it moves the allocation), else ``None``."""
    match = _AUTO_LABEL.fullmatch(label)
    return int(match.group(1)) if match else None


def check_node(
    node: Expr,
    constructor_owner: Dict[str, DatatypeDecl],
    taken: Set[str],
) -> None:
    """Raise the error :class:`Program` raises at ``node``, if any: a
    label among ``taken`` (the explicit labels met before ``node`` in
    preorder, to which its own is added), or a constructor that
    ``constructor_owner`` does not declare or that is applied or
    matched with the wrong number of arguments."""
    cls = type(node)
    if cls is Lam:
        label = node.label
        if label is not None:
            if label in taken:
                raise ScopeError(f"duplicate label {label!r}")
            taken.add(label)
    elif cls is Con:
        if node.cname not in constructor_owner:
            raise UnknownConstructorError(node.cname)
        decl = constructor_owner[node.cname]
        want = len(decl.constructors[node.cname])
        if len(node.args) != want:
            raise ScopeError(
                f"constructor {node.cname!r} expects {want} "
                f"argument(s), got {len(node.args)}"
            )
    elif cls is Case:
        for branch in node.branches:
            if branch.cname not in constructor_owner:
                raise UnknownConstructorError(branch.cname)
            decl = constructor_owner[branch.cname]
            want = len(decl.constructors[branch.cname])
            if len(branch.params) != want:
                raise ScopeError(
                    f"constructor {branch.cname!r} has {want} "
                    "argument(s), pattern binds "
                    f"{len(branch.params)}"
                )


class Program:
    """A closed program: a root expression plus datatype declarations.

    Construction normalises the term for analysis:

    1. alpha-renames so every bound variable is distinct (the paper
       assumes this in Section 3), which also checks that the
       expression is closed; with ``rename=False`` it only checks
       that;
    2. indexes every node with a unique ``nid`` (preorder);
    3. assigns a unique label to every unlabelled abstraction and
       checks label uniqueness.

    The resulting object is immutable from the analyses' point of view
    and offers the node/label lookup tables they all share.
    """

    def __init__(
        self,
        root: Expr,
        datatypes: Sequence[DatatypeDecl] = (),
        rename: bool = True,
    ):
        from repro.lang.rename import alpha_rename, check_scopes

        self.datatypes: Dict[str, DatatypeDecl] = {}
        self.constructor_owner: Dict[str, DatatypeDecl] = {}
        for decl in datatypes:
            if decl.name in self.datatypes:
                raise ScopeError(f"duplicate datatype {decl.name!r}")
            self.datatypes[decl.name] = decl
            for cname in decl.constructors:
                if cname in self.constructor_owner:
                    raise ScopeError(f"duplicate constructor {cname!r}")
                self.constructor_owner[cname] = decl

        if rename:
            # The renamer raises the ScopeError check_scopes would.
            root = alpha_rename(root)
        else:
            check_scopes(root)
        self.root = root

        self.nodes: List[Expr] = []
        self.abstractions: List[Lam] = []
        self.applications: List[App] = []
        self.label_table: Dict[str, Lam] = {}
        self.binders: Dict[str, Expr] = {}
        self._index()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def parse(source: str) -> "Program":
        """Parse concrete mini-ML syntax into a :class:`Program`."""
        from repro.lang.parser import parse

        return parse(source)

    def _index(self) -> None:
        """Number, check (:func:`check_node`) and table every node in
        one preorder walk, then label the unlabelled abstractions
        (:func:`auto_label`)."""
        nodes = self.nodes
        abstractions = self.abstractions
        owner = self.constructor_owner
        taken: Set[str] = set()
        stack: List[Expr] = [self.root]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            node.nid = len(nodes)
            nodes.append(node)
            cls = type(node)
            if cls is Var or cls is Lit:
                continue
            if cls is App:
                self.applications.append(node)
                push(node.arg)
                push(node.fn)
            elif cls is Lam:
                if node.label is not None:
                    check_node(node, owner, taken)
                self._bind(node.param, node)
                abstractions.append(node)
                push(node.body)
            elif cls is Let or cls is Letrec:
                self._bind(node.name, node)
                push(node.body)
                push(node.bound)
            else:
                check_node(node, owner, taken)
                if cls is Case:
                    for branch in node.branches:
                        for p in branch.params:
                            self._bind(p, node)
                stack.extend(reversed(node.children()))
        counter = 0
        for lam in abstractions:
            if lam.label is None:
                lam.label, counter = auto_label(counter, taken)
            self.label_table[lam.label] = lam

    def _bind(self, name: str, site: Expr) -> None:
        if name in self.binders:
            raise ScopeError(
                f"bound variable {name!r} is not distinct after renaming"
            )
        self.binders[name] = site

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of syntax nodes (the paper's ``n``)."""
        return len(self.nodes)

    @property
    def labels(self) -> List[str]:
        """All abstraction labels, in program order."""
        return [lam.label for lam in self.abstractions]

    def node(self, nid: int) -> Expr:
        """Node lookup by ``nid``."""
        return self.nodes[nid]

    def abstraction(self, label: str) -> Lam:
        """The abstraction carrying ``label``."""
        try:
            return self.label_table[label]
        except KeyError:
            raise ScopeError(f"no abstraction labelled {label!r}") from None

    def binder(self, name: str) -> Expr:
        """The binding site of variable ``name``."""
        try:
            return self.binders[name]
        except KeyError:
            raise ScopeError(f"unbound variable {name!r}") from None

    def constructor_signature(self, cname: str) -> "Tuple[Type, ...]":
        """Argument types of constructor ``cname``."""
        try:
            decl = self.constructor_owner[cname]
        except KeyError:
            raise UnknownConstructorError(cname) from None
        return decl.constructors[cname]

    def nontrivial_applications(self) -> List[App]:
        """Applications whose operator is neither a variable bound to a
        known function nor an abstraction.

        This matches the paper's Section 10 benchmark protocol, which
        queries control flow "for all non-trivial applications (i.e.
        applications of the form (e1 e2) where e1 is not a function
        identifier or an abstraction)".
        """
        trivial_names = {
            site.name
            for site in self.nodes
            if isinstance(site, (Let, Letrec)) and isinstance(site.bound, Lam)
        }
        result = []
        for application in self.applications:
            fn = application.fn
            if isinstance(fn, Lam):
                continue
            if isinstance(fn, Var) and fn.name in trivial_names:
                continue
            result.append(application)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program size={self.size} labels={len(self.labels)}>"
