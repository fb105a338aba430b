"""Robustness fuzzing for the front end.

The parser/lexer must never crash with anything other than their
declared error types, no matter the input — a property worth fuzzing
because analysis tools routinely meet garbage input.
"""

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import (
    LexError,
    ParseError,
    ReproError,
    ScopeError,
    UnknownConstructorError,
)
from repro.lang import parse
from repro.lang.lexer import tokenize

FRONTEND_ERRORS = (
    LexError,
    ParseError,
    ScopeError,
    UnknownConstructorError,
)

# Character soup biased towards the language's own alphabet, so the
# fuzzer reaches deeper parser states than pure noise would.
_alphabet = (
    string.ascii_letters
    + string.digits
    + " \n\t()[]{}<>=+-*,;|#!:'\"._"
)

_token_soup = st.lists(
    st.sampled_from(
        [
            "fn", "let", "letrec", "in", "if", "then", "else", "case",
            "of", "end", "datatype", "ref", "true", "false", "x", "y",
            "f", "Cons", "Nil", "1", "42", "=>", "->", ":=", "==",
            "<=", "<", "=", "+", "-", "*", "(", ")", ",", ";", "|",
            "#", "!", "[", "]", "print", "not",
        ]
    ),
    max_size=30,
).map(" ".join)


class TestLexerFuzz:
    @settings(max_examples=200, deadline=None)
    @given(source=st.text(alphabet=_alphabet, max_size=120))
    def test_tokenize_total(self, source):
        try:
            tokens = tokenize(source)
        except LexError:
            return
        assert tokens[-1].kind == "EOF"

    @settings(max_examples=100, deadline=None)
    @given(source=st.text(max_size=60))
    def test_tokenize_arbitrary_unicode(self, source):
        try:
            tokenize(source)
        except LexError:
            pass


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(source=st.text(alphabet=_alphabet, max_size=120))
    def test_parse_never_crashes_on_soup(self, source):
        try:
            parse(source)
        except FRONTEND_ERRORS:
            pass

    @settings(max_examples=200, deadline=None)
    @given(source=st.text(max_size=60))
    @example("²")
    @example("let x = ² in x")
    def test_parse_never_crashes_on_arbitrary_unicode(self, source):
        try:
            parse(source)
        except FRONTEND_ERRORS:
            pass

    @settings(max_examples=200, deadline=None)
    @given(source=_token_soup)
    def test_parse_never_crashes_on_token_soup(self, source):
        try:
            parse(source)
        except FRONTEND_ERRORS:
            pass

    @settings(max_examples=100, deadline=None)
    @given(source=_token_soup)
    def test_accepted_programs_are_analysable(self, source):
        """Anything the front end accepts, the analyses handle
        (possibly via the hybrid fallback)."""
        try:
            program = parse(source)
        except FRONTEND_ERRORS:
            return
        from repro.core.hybrid import analyze_hybrid

        result = analyze_hybrid(program)
        for site in program.applications[:3]:
            result.may_call(site)
