"""Lexer for the MiniC language.

The lexer supports the C syntax subset used by the FORAY-GEN workloads:
decimal/hex/octal integer literals (with ``u``/``l`` suffixes), floating
literals, character and string literals with the common escapes, ``//`` and
``/* */`` comments, ``#`` lines (skipped), and the full C operator set
listed in :mod:`repro.lang.tokens`.

Two scanners share one definition of the language:

* :data:`_SCAN_PATTERN`, one compiled master regex, skips whitespace and
  comments and matches one identifier, keyword, number or operator. Line
  numbers come from counting newlines in what it skipped; a column is
  the distance from the last line start. It covers nearly every token of
  a real program in one ``match`` call.
* The character-by-character scanner (:meth:`Lexer._next_token`) lexes
  one token from the position after the previous one whenever the regex
  does not apply: string and character literals, any token within three
  characters of a non-ASCII character (``str.isalpha``/``isdigit`` accept
  more than ASCII, and the number scanner looks two characters ahead),
  and all malformed input — so every token, value, location and
  :class:`LexError` is the reference scanner's.
"""

from __future__ import annotations

import functools
import re

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

#: Whitespace and comments (atomic: a failed token match never backtracks
#: into a comment), then one token. A number may not start ``0x`` without
#: hex digits, and ``/`` may not start an unterminated ``/*``: neither
#: matches, so the reference scanner raises its error.
_SCAN_PATTERN = (
    r"(?>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|\#[^\n]*)*)(?:"
    r"(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]+)[uUlL]*"
    r"|(?!0[xX])(?:"
    r"(?P<flt>(?:[0-9]+\.(?!\.)[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+[eE][+-]?[0-9]+)[fF]?"
    r"|(?P<int>[0-9]+)[uUlL]*)"
    r"|(?P<op>"
    + "|".join(re.escape(text) for text, _ in MULTI_CHAR_OPERATORS)
    + r"|/(?!\*)|["
    + re.escape("".join(ch for ch in SINGLE_CHAR_OPERATORS if ch != "/"))
    + "])"
    r"|(?P<eof>\Z))"
)


@functools.cache
def _scanner() -> re.Pattern[str]:
    """:data:`_SCAN_PATTERN`, compiled on first use: a process that
    never lexes (``--help``, a warm run) never pays for it."""
    return re.compile(_SCAN_PATTERN, re.DOTALL)


_OPERATORS: dict[str, TokenKind] = {
    **dict(MULTI_CHAR_OPERATORS), **SINGLE_CHAR_OPERATORS}

#: How far past a token's end the reference scanner may look.
_LOOKAHEAD = 3


def _int_value(text: str) -> int:
    """A decimal integer literal's value. Octal literals (leading zero)
    are accepted for C compatibility."""
    return int(text, 8) if len(text) > 1 and text[0] == "0" else int(text)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}


class Lexer:
    """Converts MiniC source text into a list of tokens."""

    def __init__(self, source: str, filename: str = "<minic>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokenize(self) -> list[Token]:
        """Lex the whole input; the result always ends with an EOF token."""
        source = self._source
        filename = self._filename
        ascii_only = source.isascii()
        scan = _scanner().match
        count = source.count
        tokens: list[Token] = []
        append = tokens.append
        pos = self._pos
        line = self._line
        line_start = pos - self._col + 1
        while True:
            m = scan(source, pos)
            if m is not None:
                kind = m.lastgroup
                start = m.start(kind)
                if not (ascii_only or source[
                        start:m.end() + _LOOKAHEAD].isascii()):
                    m = None
            if m is None:
                # The reference scanner lexes this token from where the
                # previous one ended, whitespace and comments included.
                self._pos, self._line = pos, line
                self._col = pos - line_start + 1
                token = self._next_token()
                append(token)
                if token.kind is TokenKind.EOF:
                    return tokens
                pos, line = self._pos, self._line
                line_start = pos - self._col + 1
                continue
            newlines = count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, start) + 1
            loc = SourceLocation(line, start - line_start + 1, filename)
            pos = m.end()
            text = m.group(kind)
            if kind == "id":
                keyword = KEYWORDS.get(text)
                append(Token(TokenKind.IDENT, text, loc, text)
                       if keyword is None else Token(keyword, text, loc))
            elif kind == "op":
                append(Token(_OPERATORS[text], text, loc))
            elif kind == "int":
                append(Token(TokenKind.INT_LIT, text, loc, _int_value(text)))
            elif kind == "flt":
                append(Token(TokenKind.FLOAT_LIT, text, loc, float(text)))
            elif kind == "hex":
                append(Token(TokenKind.INT_LIT, text, loc, int(text, 16)))
            else:
                append(Token(TokenKind.EOF, "", loc))
                return tokens

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._col, self._filename)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._pos >= len(self._source):
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            elif ch == "#":
                # Preprocessor-style lines (e.g. #define used as doc) are
                # skipped wholesale; MiniC has no preprocessor.
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        loc = self._location()
        if self._pos >= len(self._source):
            return Token(TokenKind.EOF, "", loc)

        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_ident_or_keyword(loc)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(loc)
        if ch == "'":
            return self._lex_char(loc)
        if ch == '"':
            return self._lex_string(loc)

        for text, kind in MULTI_CHAR_OPERATORS:
            if self._source.startswith(text, self._pos):
                self._advance(len(text))
                return Token(kind, text, loc)
        if ch in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token(SINGLE_CHAR_OPERATORS[ch], ch, loc)

        raise LexError(f"unexpected character {ch!r}", loc)

    def _lex_ident_or_keyword(self, loc: SourceLocation) -> Token:
        start = self._pos
        while self._pos < len(self._source) and (
            self._peek().isalnum() or self._peek() == "_"
        ):
            self._advance()
        text = self._source[start : self._pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        value = text if kind is TokenKind.IDENT else None
        return Token(kind, text, loc, value)

    def _lex_number(self, loc: SourceLocation) -> Token:
        start = self._pos
        is_float = False

        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if not self._is_hex_digit(self._peek()):
                raise LexError("invalid hex literal", loc)
            while self._is_hex_digit(self._peek()):
                self._advance()
            text = self._source[start : self._pos]
            value = int(text, 16)
            self._skip_int_suffix()
            return Token(TokenKind.INT_LIT, text, loc, value)

        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1) != ".":
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()

        text = self._source[start : self._pos]
        if is_float:
            if self._peek() in ("f", "F"):
                self._advance()
            return Token(TokenKind.FLOAT_LIT, text, loc, float(text))

        value = _int_value(text)
        self._skip_int_suffix()
        return Token(TokenKind.INT_LIT, text, loc, value)

    def _skip_int_suffix(self) -> None:
        while self._peek() in ("u", "U", "l", "L"):
            self._advance()

    @staticmethod
    def _is_hex_digit(ch: str) -> bool:
        return bool(ch) and ch in "0123456789abcdefABCDEF"

    def _read_escape(self, loc: SourceLocation) -> str:
        self._advance()  # consume backslash
        esc = self._peek()
        if esc == "x":
            self._advance()
            digits = ""
            while self._is_hex_digit(self._peek()):
                digits += self._peek()
                self._advance()
            if not digits:
                raise LexError("invalid \\x escape", loc)
            return chr(int(digits, 16))
        if esc in _ESCAPES:
            self._advance()
            return _ESCAPES[esc]
        raise LexError(f"unknown escape sequence \\{esc}", loc)

    def _lex_char(self, loc: SourceLocation) -> Token:
        self._advance()  # opening quote
        if self._peek() == "\\":
            ch = self._read_escape(loc)
        else:
            ch = self._peek()
            if not ch or ch == "'":
                raise LexError("empty character literal", loc)
            self._advance()
        if self._peek() != "'":
            raise LexError("unterminated character literal", loc)
        self._advance()
        return Token(TokenKind.CHAR_LIT, f"'{ch}'", loc, ord(ch))

    def _lex_string(self, loc: SourceLocation) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError("unterminated string literal", loc)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                chars.append(self._read_escape(loc))
            else:
                chars.append(ch)
                self._advance()
        text = "".join(chars)
        return Token(TokenKind.STRING_LIT, f'"{text}"', loc, text)


def tokenize(source: str, filename: str = "<minic>") -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokenize()
