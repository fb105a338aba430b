"""Recursive-descent parser for the mini-ML concrete syntax.

Grammar sketch (see README for the full reference)::

    program  := datadecl* expr
    datadecl := 'datatype' IDENT '=' condef ('|' condef)* ';'
    condef   := CONID ('of' type ('*' type)*)?
    type     := atype ('->' type)?            -- right associative
    atype    := ('int'|'bool'|'unit'|IDENT|'('type(','type)+')'|'('type')')
                'ref'*

    expr     := 'fn' ('[' label ']')? IDENT '=>' expr
              | 'let' IDENT '=' expr 'in' expr
              | 'letrec' IDENT '=' expr 'in' expr
              | 'if' expr 'then' expr 'else' expr
              | 'case' expr 'of' '|'? branch ('|' branch)* 'end'
              | assign
    branch   := CONID ('(' IDENT (',' IDENT)* ')')? '=>' expr
    assign   := cmp (':=' assign)?
    cmp      := add (('<'|'<='|'==') add)?
    add      := mul (('+'|'-') mul)*
    mul      := appx ('*' appx)*
    appx     := prefix prefix*                -- application, left assoc
    prefix   := '!' prefix | 'ref' prefix | '#' INT prefix
              | PRIM1 prefix | atom
    atom     := IDENT | INT | 'true' | 'false' | '(' ')'
              | '(' expr (',' expr)* ')'      -- parens or record
              | CONID ('(' expr (',' expr)* ')')?

Prefix unary primitives (currently ``print`` and ``not``) are reserved
words at the expression level: a variable may not shadow them.
Brackets may nest at most :data:`MAX_NESTING` deep; a deeper one is a
:class:`~repro.errors.ParseError` at that bracket.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro._util import ensure_recursion_limit
from repro.errors import ParseError
from repro.lang.ast import (
    App,
    Assign,
    Branch,
    Case,
    Con,
    DatatypeDecl,
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
from repro.lang.lexer import Token, tokenize
from repro.lang.prims import INFIX_TO_PRIM, PREFIX_PRIMS
from repro.obs.events import span
from repro.types.types import BOOL, INT, TData, TFun, TRecord, TRef, Type, UNIT

#: Token kinds that may begin a `prefix` expression (used to detect
#: the extent of juxtaposition application).
_EXPR_START = frozenset(
    ["IDENT", "CONID", "INT", "true", "false", "(", "!", "ref", "#"]
)

_BASE_TYPES = {"int": INT, "bool": BOOL, "unit": UNIT}

#: The deepest bracket nesting a program may have. Every stage after
#: the parser recurses over the tree; 12,000 levels still get through
#: analysis, lint and the daemon's ``define``, so this leaves margin.
MAX_NESTING = 10_000


#: Binary operator token kind -> precedence level: ``cmp`` (1),
#: ``add`` (2) and ``mul`` (3) of the grammar.
_BINARY_LEVEL = {"<": 1, "<=": 1, "==": 1, "+": 2, "-": 2, "*": 3}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        #: Declared constructor arities; a nullary constructor never
        #: consumes a following '(' (it would belong to the next
        #: application argument, e.g. ``f Nil (1, 2)``).
        self.con_arity: dict = {}
        #: Brackets open around the current token.
        self.depth = 0

    # -- token plumbing -------------------------------------------------

    def peek(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def take(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.kind!r}"
                + (f" ({token.value!r})" if token.value else ""),
                token.line,
                token.column,
            )
        self.pos += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.tokens[self.pos]
        return ParseError(message, token.line, token.column)

    def open_bracket(self) -> Token:
        token = self.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"brackets nested deeper than {MAX_NESTING} levels",
                token.line,
                token.column,
            )
        return token

    def close_bracket(self) -> Token:
        self.depth -= 1
        return self.expect(")")

    # -- datatype declarations ------------------------------------------

    def parse_program(self) -> Tuple[Expr, List[DatatypeDecl]]:
        decls = []
        while self.peek("datatype"):
            decls.append(self.parse_datadecl())
        expr = self.parse_expr()
        self.expect("EOF")
        return expr, decls

    def parse_datadecl(self) -> DatatypeDecl:
        self.expect("datatype")
        name = self.expect("IDENT").value
        self.expect("=")
        constructors = {}
        while True:
            cname, argtypes = self.parse_condef()
            if cname in constructors:
                raise self.error(f"duplicate constructor {cname!r}")
            constructors[cname] = argtypes
            self.con_arity[cname] = len(argtypes)
            if self.peek("|"):
                self.take()
                continue
            break
        self.expect(";")
        return DatatypeDecl(name, constructors)

    def parse_condef(self) -> Tuple[str, Tuple[Type, ...]]:
        cname = self.expect("CONID").value
        argtypes: List[Type] = []
        if self.peek("of"):
            self.take()
            argtypes.append(self.parse_type())
            while self.peek("*"):
                self.take()
                argtypes.append(self.parse_type())
        return cname, tuple(argtypes)

    def parse_type(self) -> Type:
        left = self.parse_atype()
        if self.peek("->"):
            self.take()
            return TFun(left, self.parse_type())
        return left

    def parse_atype(self) -> Type:
        token = self.tokens[self.pos]
        if token.kind == "IDENT":
            self.take()
            ty = _BASE_TYPES.get(token.value, None) or TData(token.value)
        elif token.kind == "(":
            self.open_bracket()
            fields = [self.parse_type()]
            while self.peek(","):
                self.take()
                fields.append(self.parse_type())
            self.close_bracket()
            ty = fields[0] if len(fields) == 1 else TRecord(tuple(fields))
        else:
            raise self.error(f"expected a type, found {token.kind!r}")
        while self.peek("ref"):
            self.take()
            ty = TRef(ty)
        return ty

    # -- expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "fn":
            return self.parse_fn()
        if kind == "let":
            self.pos += 1
            name = self.expect("IDENT").value
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return Let(name, bound, body).at(token.line, token.column)
        if kind == "letrec":
            self.pos += 1
            name = self.expect("IDENT").value
            self.expect("=")
            bound = self.parse_expr()
            if not isinstance(bound, Lam):
                raise ParseError(
                    "letrec must bind an abstraction",
                    token.line,
                    token.column,
                )
            self.expect("in")
            body = self.parse_expr()
            return Letrec(name, bound, body).at(token.line, token.column)
        if kind == "if":
            self.pos += 1
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            orelse = self.parse_expr()
            return If(cond, then, orelse).at(token.line, token.column)
        if kind == "case":
            return self.parse_case()
        # assign := cmp (':=' assign)?
        left = self.parse_binary(1)
        token = self.tokens[self.pos]
        if token.kind == ":=":
            self.pos += 1
            # The right-hand side is a full expression, so
            # `c := fn x => ...` needs no parentheses (and chains
            # `a := b := e` associate to the right).
            right = self.parse_expr()
            return Assign(left, right).at(token.line, token.column)
        return left

    def parse_fn(self) -> Expr:
        token = self.expect("fn")
        label: Optional[str] = None
        if self.peek("["):
            self.take()
            label_token = self.tokens[self.pos]
            if label_token.kind not in ("IDENT", "CONID", "INT"):
                raise self.error("expected a label inside [...]")
            label = self.take().value
            self.expect("]")
        param = self.expect("IDENT").value
        self.expect("=>")
        body = self.parse_expr()
        return Lam(param, body, label).at(token.line, token.column)

    def parse_case(self) -> Expr:
        token = self.expect("case")
        scrutinee = self.parse_expr()
        self.expect("of")
        if self.peek("|"):
            self.take()
        branches = [self.parse_branch()]
        while self.peek("|"):
            self.take()
            branches.append(self.parse_branch())
        self.expect("end")
        return Case(scrutinee, branches).at(token.line, token.column)

    def parse_branch(self) -> Branch:
        cname = self.expect("CONID").value
        params: List[str] = []
        if self.peek("("):
            self.take()
            params.append(self.expect("IDENT").value)
            while self.peek(","):
                self.take()
                params.append(self.expect("IDENT").value)
            self.expect(")")
        self.expect("=>")
        return Branch(cname, params, self.parse_expr())

    def parse_binary(self, level: int) -> Expr:
        """The ``cmp``, ``add`` and ``mul`` rules by precedence
        climbing: operands of operators at ``level`` or tighter.
        ``+ - *`` associate to the left; a comparison takes one
        operator and leaves a second one to the caller."""
        left = self.parse_app()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            op_level = _BINARY_LEVEL.get(token.kind, 0)
            if op_level < level:
                return left
            self.pos += 1
            right = self.parse_binary(op_level + 1)
            left = Prim(INFIX_TO_PRIM[token.kind], [left, right]).at(
                token.line, token.column
            )
            if op_level == 1:
                return left

    def parse_app(self) -> Expr:
        expr = self.parse_prefix()
        tokens = self.tokens
        while tokens[self.pos].kind in _EXPR_START:
            arg = self.parse_prefix()
            expr = App(expr, arg).at(expr.line, expr.column)
        return expr

    def parse_prefix(self) -> Expr:
        """The ``prefix`` and ``atom`` rules."""
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "IDENT":
            self.pos += 1
            if token.value in PREFIX_PRIMS:
                return Prim(token.value, [self.parse_prefix()]).at(
                    token.line, token.column
                )
            return Var(token.value).at(token.line, token.column)
        if kind == "(":
            self.open_bracket()
            if self.peek(")"):
                self.close_bracket()
                return Lit(None).at(token.line, token.column)
            exprs = [self.parse_expr()]
            while self.peek(","):
                self.pos += 1
                exprs.append(self.parse_expr())
            self.close_bracket()
            if len(exprs) == 1:
                return exprs[0]
            return Record(exprs).at(token.line, token.column)
        if kind == "INT":
            self.pos += 1
            return Lit(int(token.value)).at(token.line, token.column)
        if kind == "CONID":
            self.pos += 1
            args: List[Expr] = []
            takes_args = self.con_arity.get(token.value, 1) > 0
            if takes_args and self.peek("("):
                self.open_bracket()
                args.append(self.parse_expr())
                while self.peek(","):
                    self.pos += 1
                    args.append(self.parse_expr())
                self.close_bracket()
            return Con(token.value, args).at(token.line, token.column)
        if kind == "!":
            self.pos += 1
            return Deref(self.parse_prefix()).at(token.line, token.column)
        if kind == "ref":
            self.pos += 1
            return Ref(self.parse_prefix()).at(token.line, token.column)
        if kind == "#":
            self.pos += 1
            index = int(self.expect("INT").value)
            return Proj(index, self.parse_prefix()).at(
                token.line, token.column
            )
        if kind == "true":
            self.pos += 1
            return Lit(True).at(token.line, token.column)
        if kind == "false":
            self.pos += 1
            return Lit(False).at(token.line, token.column)
        raise self.error(
            f"expected an expression, found {kind!r}"
            + (f" ({token.value!r})" if token.value else "")
        )


def parse_expr(source: str) -> Expr:
    """Parse a single expression (no datatype declarations)."""
    ensure_recursion_limit()
    with span("lang.parse"):
        parser = _Parser(tokenize(source))
        expr = parser.parse_expr()
        parser.expect("EOF")
    return expr


def parse(source: str, rename: bool = True) -> Program:
    """Parse a full program (datatype declarations + expression)."""
    ensure_recursion_limit()
    with span("lang.parse"):
        parser = _Parser(tokenize(source))
        expr, decls = parser.parse_program()
        return Program(expr, decls, rename=rename)
