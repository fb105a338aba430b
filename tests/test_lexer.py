"""Unit tests for the mini-ML lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexError
from repro.lang import parse_expr
from repro.lang.lexer import Token, tokenize
from tests.lexer_oracle import tokenize as oracle_tokenize
from tests.test_fuzz_frontend import _alphabet


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.kind != "EOF"]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        assert kinds("") == ["EOF"]

    def test_whitespace_only(self):
        assert kinds("  \t\n  ") == ["EOF"]

    def test_identifier(self):
        tokens = tokenize("abc")
        assert tokens[0] == Token("IDENT", "abc", 1, 1)

    def test_identifier_with_digits_underscore_prime(self):
        assert values("x_1'") == ["x_1'"]

    def test_constructor_identifier(self):
        assert kinds("Cons")[:1] == ["CONID"]

    def test_integer(self):
        tokens = tokenize("42")
        assert tokens[0].kind == "INT"
        assert tokens[0].value == "42"

    def test_keywords_are_their_own_kind(self):
        for kw in ["fn", "let", "letrec", "in", "if", "then", "else",
                   "case", "of", "end", "datatype", "ref", "true",
                   "false"]:
            assert kinds(kw)[0] == kw

    def test_keyword_prefix_is_still_identifier(self):
        # 'lettuce' starts with 'let' but is one identifier.
        assert kinds("lettuce")[0] == "IDENT"

    def test_underscore_starts_identifier(self):
        assert kinds("_x")[0] == "IDENT"


class TestSymbols:
    def test_maximal_munch_arrow(self):
        assert kinds("=>")[:1] == ["=>"]

    def test_maximal_munch_assign_vs_colon(self):
        assert kinds(":=")[:1] == [":="]

    def test_eq_vs_eqeq(self):
        assert kinds("== =")[:2] == ["==", "="]

    def test_leq_vs_less(self):
        assert kinds("<= <")[:2] == ["<=", "<"]

    def test_all_single_symbols(self):
        src = "+ - * ( ) , ; | # ! [ ]"
        expected = src.split()
        assert kinds(src)[:-1] == expected

    def test_application_like_stream(self):
        assert values("f (g x)") == ["f", "(", "g", "x", ")"]


class TestComments:
    def test_simple_comment_is_skipped(self):
        assert values("a (* comment *) b") == ["a", "b"]

    def test_nested_comment(self):
        assert values("a (* outer (* inner *) still *) b") == ["a", "b"]

    def test_comment_spanning_lines(self):
        src = "a (* line1\nline2 *) b"
        tokens = tokenize(src)
        assert tokens[1].line == 2  # b is on line 2

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a (* never closed")

    def test_unterminated_nested_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("(* outer (* inner *) ")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_columns_advance_past_symbols(self):
        tokens = tokenize("x:=y")
        assert (tokens[1].column, tokens[2].column) == (2, 4)


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a $ b")
        assert "$" in str(excinfo.value)

    def test_error_carries_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("ok\n  ?")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3


class TestUnicode:
    def test_non_decimal_digit_is_a_lex_error(self):
        # '²'.isdigit() holds, but int() rejects it: it starts no token.
        with pytest.raises(LexError) as excinfo:
            tokenize("let x = ² in x")
        assert str(excinfo.value) == "1:9: unexpected character '²'"
        assert (excinfo.value.line, excinfo.value.column) == (1, 9)

    def test_non_decimal_digit_continues_an_identifier(self):
        assert tokenize("x²") == [
            Token("IDENT", "x²", 1, 1),
            Token("EOF", "", 1, 3),
        ]

    def test_decimal_digits_of_any_script_are_an_int(self):
        assert tokenize("٣")[0] == Token("INT", "٣", 1, 1)
        assert parse_expr("٣").value == 3

    def test_uppercase_numeral_is_a_lex_error(self):
        # 'Ⅷ'.isupper() holds, but it is no letter: not a CONID.
        with pytest.raises(LexError) as excinfo:
            tokenize("Ⅷ")
        assert str(excinfo.value) == "1:1: unexpected character 'Ⅷ'"


def _lex(lexer, source):
    try:
        return lexer(source)
    except LexError as error:
        return str(error), error.line, error.column


def _non_decimal_digit(ch):
    return ch.isdigit() and not ch.isdecimal()


#: Source fragments: the fuzzers' alphabet, keywords and symbols,
#: Unicode letters and decimal digits, comments (nested, unterminated,
#: over lines), CRLF line ends and any other character.
_fragments = st.one_of(
    st.sampled_from(list(_alphabet)),
    st.sampled_from(
        ["fn", "let", "in", "=>", ":=", "==", "<=", "x'", "Cons", "42"]
    ),
    st.sampled_from(
        ["é", "ß", "Ω", "字", "ǅ", "Ⅷ", "٣", "۷", "५", "０"]
    ),
    st.sampled_from(
        ["(*", "*)", "(* c *)", "(* (* n *) *)", "(* a\nb *)", "(*)",
         "\r\n", "\n", "\x0b", "\u2028"]
    ),
    st.characters().filter(lambda ch: not _non_decimal_digit(ch)),
)


class TestOracle:
    """The pattern lexer against the character-by-character lexer it
    replaced (tests/lexer_oracle.py)."""

    @settings(max_examples=500, deadline=None)
    @given(source=st.lists(_fragments, max_size=40).map("".join))
    def test_same_tokens_and_errors(self, source):
        assert _lex(tokenize, source) == _lex(oracle_tokenize, source)

    @pytest.mark.parametrize("source", ["²", "1²", "x ³ y", "①"])
    def test_only_non_decimal_digits_differ(self, source):
        assert isinstance(_lex(oracle_tokenize, source), list)
        message, _, _ = _lex(tokenize, source)
        assert "unexpected character" in message
