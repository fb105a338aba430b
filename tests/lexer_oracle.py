"""The character-by-character mini-ML lexer, kept as a test oracle.

``repro.lang.lexer`` scans with one compiled pattern; this is the
lexer it replaced, unchanged below this docstring, so a property test
can check that both produce the same tokens and the same errors.
The one intended difference: this lexer reads a run of ``isdigit()``
characters as ``INT``, so ``²`` lexes here (and crashes ``int()`` in
the parser), while the pattern lexer only takes decimal digits.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

from repro.errors import LexError

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


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source``; raises :class:`LexError` on bad input."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("(*", i):
            depth = 1
            start_line, start_col = line, col
            advance(2)
            while depth:
                if i >= n:
                    raise LexError(
                        "unterminated comment", start_line, start_col
                    )
                if source.startswith("(*", i):
                    depth += 1
                    advance(2)
                elif source.startswith("*)", i):
                    depth -= 1
                    advance(2)
                else:
                    advance(1)
            continue
        if ch.isdigit():
            start = i
            start_line, start_col = line, col
            while i < n and source[i].isdigit():
                advance(1)
            yield Token("INT", source[start:i], start_line, start_col)
            continue
        if _is_ident_start(ch):
            start = i
            start_line, start_col = line, col
            while i < n and _is_ident_char(source[i]):
                advance(1)
            word = source[start:i]
            if word in KEYWORDS:
                yield Token(word, word, start_line, start_col)
            elif word[0].isupper():
                yield Token("CONID", word, start_line, start_col)
            else:
                yield Token("IDENT", word, start_line, start_col)
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                start_line, start_col = line, col
                advance(len(sym))
                yield Token(sym, sym, start_line, start_col)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    yield Token("EOF", "", line, col)
