"""Tokenizer and token cursor shared by the SQL and TASK-definition parsers."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ParseError

__all__ = ["TokenType", "Token", "TokenCursor", "tokenize"]


class TokenType(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    OPERATOR = "operator"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its position (1-based line / column)."""

    type: TokenType
    value: str
    line: int
    column: int

    def matches(self, token_type: TokenType, value: str | None = None) -> bool:
        if self.type is not token_type:
            return False
        if value is None:
            return True
        if token_type is TokenType.IDENT:
            return self.value.upper() == value.upper()
        return self.value == value


_SYMBOLS = set("(),.:;[]%")
_OPERATOR_STARTS = set("=<>!+-*/")
_TWO_CHAR_OPERATORS = {"<=", ">=", "!=", "<>"}


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL / TASK text.  Comments (``--`` to end of line) are skipped."""
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def error(message: str) -> ParseError:
        return ParseError(message, line=line, column=column)

    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char == "-" and index + 1 < length and text[index + 1] == "-":
            while index < length and text[index] != "\n":
                index += 1
            continue
        start_line, start_column = line, column
        if char in "\"'":
            quote = char
            index += 1
            column += 1
            value_chars: list[str] = []
            while index < length and text[index] != quote:
                if text[index] == "\n":
                    raise error("unterminated string literal")
                value_chars.append(text[index])
                index += 1
                column += 1
            if index >= length:
                raise error("unterminated string literal")
            index += 1
            column += 1
            tokens.append(Token(TokenType.STRING, "".join(value_chars), start_line, start_column))
            continue
        if char.isdigit() or (char == "." and index + 1 < length and text[index + 1].isdigit()):
            number_chars = []
            seen_dot = False
            while index < length and (text[index].isdigit() or (text[index] == "." and not seen_dot)):
                if text[index] == ".":
                    # A dot not followed by a digit is field access, not a decimal point.
                    if index + 1 >= length or not text[index + 1].isdigit():
                        break
                    seen_dot = True
                number_chars.append(text[index])
                index += 1
                column += 1
            tokens.append(Token(TokenType.NUMBER, "".join(number_chars), start_line, start_column))
            continue
        if char.isalpha() or char == "_":
            ident_chars = []
            while index < length and (text[index].isalnum() or text[index] == "_"):
                ident_chars.append(text[index])
                index += 1
                column += 1
            tokens.append(Token(TokenType.IDENT, "".join(ident_chars), start_line, start_column))
            continue
        if char in _OPERATOR_STARTS:
            two = text[index:index + 2]
            if two in _TWO_CHAR_OPERATORS:
                tokens.append(Token(TokenType.OPERATOR, "!=" if two == "<>" else two, start_line, start_column))
                index += 2
                column += 2
            else:
                tokens.append(Token(TokenType.OPERATOR, char, start_line, start_column))
                index += 1
                column += 1
            continue
        if char in _SYMBOLS:
            tokens.append(Token(TokenType.SYMBOL, char, start_line, start_column))
            index += 1
            column += 1
            continue
        raise error(f"unexpected character {char!r}")
    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens


class TokenCursor:
    """A read position over :func:`tokenize`'s output, shared by both parsers."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.position = 0

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, line=token.line, column=token.column)

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._peek()
        if not token.matches(TokenType.SYMBOL, symbol):
            raise self._error(f"expected {symbol!r}, found {token.value!r}")
        return self._advance()

    def _accept_symbol(self, symbol: str) -> bool:
        if self._peek().matches(TokenType.SYMBOL, symbol):
            self._advance()
            return True
        return False
