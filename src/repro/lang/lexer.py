"""Lexer for the mini-ML concrete syntax.

Token kinds:

* ``IDENT`` — identifiers starting with a lowercase letter or ``_``
  (variables, primitives);
* ``CONID`` — identifiers starting with an uppercase letter (datatype
  constructors);
* ``INT`` — nonnegative integer literals (decimal digits);
* keywords — ``fn let letrec in if then else case of end datatype ref
  true false``;
* symbols — ``=> -> := == <= < = + - * ( ) , ; | # ! [ ]``.

An identifier starts with a letter (``str.isalpha``) or ``_`` and goes
on with letters, digits (``str.isalnum``), ``_`` or ``'``, so Unicode
letters are identifiers too. Comments are ML-style ``(* ... *)`` and
nest.

The source is scanned in one pass: each stretch between comments goes
through one compiled pattern, and line and column numbers come from
the offsets of the newlines passed.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import LexError
from repro.obs.events import span

KEYWORDS = frozenset(
    [
        "fn",
        "let",
        "letrec",
        "in",
        "if",
        "then",
        "else",
        "case",
        "of",
        "end",
        "datatype",
        "ref",
        "true",
        "false",
    ]
)

#: Multi-character symbols first so maximal munch works.
SYMBOLS = [
    "=>",
    "->",
    ":=",
    "==",
    "<=",
    "<",
    "=",
    "+",
    "-",
    "*",
    "(",
    ")",
    ",",
    ";",
    "|",
    "#",
    "!",
    "[",
    "]",
]


class Token(NamedTuple):
    """A lexed token with its source position."""

    kind: str  # 'IDENT' | 'CONID' | 'INT' | a keyword | a symbol | 'EOF'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}({self.value!r})@{self.line}:{self.column}"


#: One match per token: the blanks before it, then one alternative
#: per token class, tried in order. ``\d`` is a Unicode decimal digit
#: (what ``int()`` reads) and ``\w`` is ``str.isalnum()`` or ``_``.
#: ``word`` and ``con`` take the ASCII identifiers; ``uni`` takes one
#: that starts with any other word character that is not a digit, and
#: the scanner checks that it is a letter. Anything else is ``bad``.
#: A newline is its own match (the scanner counts lines), and blanks
#: at the end of the scanned stretch match ``\Z``, so the blanks are
#: never matched twice. Comments never reach the pattern.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<nl>\n)|(?P<int>\d+)|(?P<word>[a-z_][\w']*)"
    r"|(?P<con>[A-Z][\w']*)|(?P<uni>[^\W\d][\w']*)|(?P<sym>"
    + "|".join(re.escape(sym) for sym in SYMBOLS)
    + r")|(?P<bad>.)|\Z)",
    re.DOTALL,
)

_COMMENT_DELIMITER = re.compile(r"\(\*|\*\)")

#: A keyword's or symbol's spelling -> the one string object that is
#: both its kind and its value, so the parser compares kinds by
#: identity and hashes each only once.
_KEYWORD_KINDS = {word: word for word in KEYWORDS}
_SYMBOL_KINDS = {sym: sym for sym in SYMBOLS}

#: Builds a Token without NamedTuple's Python-level ``__new__``.
_new_token = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source``; raises :class:`LexError` on bad input."""
    with span("lang.tokenize"):
        return _tokens(source)


def _tokens(source: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    keywords = _KEYWORD_KINDS
    symbols = _SYMBOL_KINDS
    line = 1
    line_start = 0  # offset of the current line's first character
    pos = 0
    while True:
        comment = source.find("(*", pos)
        stretch_end = len(source) if comment < 0 else comment
        for match in _TOKEN.finditer(source, pos, stretch_end):
            group = match.lastgroup
            if group is None:  # the blanks at the end
                continue
            if group == "nl":
                line += 1
                line_start = match.end()
                continue
            text = match.group(group)
            column = match.end() - len(text) - line_start + 1
            if group == "word":
                kind = keywords.get(text)
                if kind is None:
                    kind = "IDENT"
                else:
                    text = kind
            elif group == "sym":
                text = kind = symbols[text]
            elif group == "int":
                kind = "INT"
            elif group == "con":
                kind = "CONID"
            elif group == "uni" and text[0].isalpha():
                kind = "CONID" if text[0].isupper() else "IDENT"
            else:
                raise LexError(
                    f"unexpected character {text[0]!r}", line, column
                )
            append(_new_token(Token, (kind, text, line, column)))
        if comment < 0:
            break
        depth = 1
        pos = comment + 2
        while depth:
            delimiter = _COMMENT_DELIMITER.search(source, pos)
            if delimiter is None:
                raise LexError(
                    "unterminated comment", line, comment - line_start + 1
                )
            depth += 1 if delimiter.group() == "(*" else -1
            pos = delimiter.end()
        newlines = source.count("\n", comment, pos)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", comment, pos) + 1
    column = len(source) - line_start + 1
    append(_new_token(Token, ("EOF", "", line, column)))
    return tokens
