"""Property tests for the lexer's two scanners.

The master regex lexes nearly every token; the character-by-character
scanner lexes string and character literals, tokens next to non-ASCII
text and malformed input. The first property renders random token
sequences with known kinds, values and positions; the second holds
``tokenize`` to the reference scanner alone on arbitrary text.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.lexer import Lexer, tokenize
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    TokenKind,
)

OPERATORS = {**dict(MULTI_CHAR_OPERATORS), **SINGLE_CHAR_OPERATORS}

_IDENT_START = string.ascii_letters + "_"
_IDENT_REST = _IDENT_START + string.digits
_INT_SUFFIXES = ("", "u", "U", "l", "L", "ul", "UL", "lu", "LL", "ull")


def _token(kind, text, value=None, suffix=""):
    """A token to render: its expected kind, text and value, and the
    source spelling (the text plus any suffix the lexer drops)."""
    return kind, text, value, text + suffix


identifiers = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(_IDENT_START),
    st.text(_IDENT_REST, max_size=8),
).filter(lambda name: name not in KEYWORDS).map(
    lambda name: _token(TokenKind.IDENT, name, name))
keywords = st.sampled_from(sorted(KEYWORDS)).map(
    lambda word: _token(KEYWORDS[word], word))
operators = st.sampled_from(sorted(OPERATORS)).map(
    lambda text: _token(OPERATORS[text], text))
decimals = st.builds(
    lambda n, suffix: _token(TokenKind.INT_LIT, str(n), n, suffix),
    st.integers(min_value=0, max_value=10**12),
    st.sampled_from(_INT_SUFFIXES))
octals = st.builds(
    lambda digits, suffix: _token(TokenKind.INT_LIT, "0" + digits,
                                  int(digits, 8), suffix),
    st.text("01234567", min_size=1, max_size=8),
    st.sampled_from(_INT_SUFFIXES))
hexes = st.builds(
    lambda x, digits, suffix: _token(TokenKind.INT_LIT, f"0{x}{digits}",
                                     int(digits, 16), suffix),
    st.sampled_from("xX"),
    st.text(string.hexdigits, min_size=1, max_size=8),
    st.sampled_from(_INT_SUFFIXES))
_digits = st.text(string.digits, min_size=1, max_size=5)
_exponents = st.builds(lambda e, sign, digits: e + sign + digits,
                       st.sampled_from("eE"), st.sampled_from(("", "+", "-")),
                       _digits)
_mantissas = st.one_of(
    st.builds(lambda a, b: f"{a}.{b}", _digits,
              st.text(string.digits, max_size=4)),
    st.builds(lambda b: f".{b}", _digits))
#: A float literal has a fraction, an exponent or both.
_float_texts = st.one_of(
    st.builds(str.__add__, _mantissas, st.one_of(st.just(""), _exponents)),
    st.builds(str.__add__, _digits, _exponents))
floats = st.builds(
    lambda text, suffix: _token(TokenKind.FLOAT_LIT, text, float(text),
                                suffix),
    _float_texts, st.sampled_from(("", "f", "F")))

tokens = st.one_of(identifiers, keywords, operators, decimals, octals,
                   hexes, floats)

_comment_text = st.text(
    st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
    max_size=10)
#: What may separate two tokens. Every separator starts with a
#: whitespace character, so no token can run into the next one (or into
#: a comment: ``/`` then ``/*``).
separators = st.builds(
    lambda first, rest: first + "".join(rest),
    st.sampled_from(" \t\r\n"),
    st.lists(st.one_of(
        st.text(" \t\r\n", min_size=1, max_size=3),
        _comment_text.map(lambda text: f"//{text}\n"),
        _comment_text.map(lambda text: f"#{text}\n"),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
        .filter(lambda text: "*/" not in text and not text.endswith("*"))
        .map(lambda text: f"/*{text}*/"),
    ), max_size=3),
)


def _advance(line, column, text):
    """The 1-based (line, column) after ``text``."""
    newlines = text.count("\n")
    if newlines:
        return line + newlines, len(text) - text.rindex("\n")
    return line, column + len(text)


@given(st.lists(st.tuples(separators, tokens), max_size=25), separators)
@settings(max_examples=300, deadline=None)
def test_rendered_tokens_lex_back(pieces, tail):
    parts = []
    expected = []
    line, column = 1, 1
    for separator, (kind, text, value, spelling) in pieces:
        line, column = _advance(line, column, separator)
        expected.append((kind, text, value, line, column))
        line, column = _advance(line, column, spelling)
        parts += (separator, spelling)
    line, column = _advance(line, column, tail)
    expected.append((TokenKind.EOF, "", None, line, column))
    lexed = [(t.kind, t.text, t.value, t.location.line, t.location.column)
             for t in tokenize("".join(parts) + tail)]
    assert lexed == expected


def _reference_tokens(source):
    """The character-by-character scanner on its own."""
    lexer = Lexer(source)
    out = []
    while True:
        token = lexer._next_token()
        out.append(token)
        if token.kind is TokenKind.EOF:
            return out


def _outcome(lex, source):
    try:
        return [(t.kind, t.text, t.value, t.location) for t in lex(source)]
    except Exception as error:  # LexError and int()'s ValueError alike
        return type(error), str(error)


#: Fragments that exercise every branch of both scanners: literal
#: starts, suffixes, exponents, comment delimiters, escapes, and
#: non-ASCII letters and digits the ASCII regex leaves alone.
_FRAGMENTS = (
    list(" \t\r\n\f_aAxXeEfFuUlL0189.+-*/%&|^~!<>=()[]{};,?:'\"\\#@")
    + ["\u00e9", "\u0663", "\u00b2", "\u00a0", "/*", "*/", "//", "0x",
       "1e", "..", "'a'", '"s"', "\\x41", "int", "for", "09", "1.5e+3"])


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=16))
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_reference_scanner(fragments):
    source = "".join(fragments)
    assert _outcome(tokenize, source) == _outcome(_reference_tokens, source)
