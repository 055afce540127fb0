"""Tokenizer and recursive-descent parser for the equation DSL.

Expressions are polynomial/rational in t, z1..zd, the symbol q and
complex literals like (1+2i); they evaluate directly to TruncatedSeries
at the configured window.  Series literals (sums of monomial terms) are
the same grammar, so one parser serves both surfaces.
"""

import re
from fractions import Fraction

from .errors import NotAUnitError, ParseError
from .series import TruncatedSeries, divide

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    |(?P<name>[A-Za-z][A-Za-z0-9]*)
    |(?P<op>[-+*/^()=;:])
    |(?P<ws>\s+)
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


def tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            raise ParseError("expected %r, found %r" % (text, tok.text or "end of input"), tok.line, tok.col)
        return self.next()

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


class ExprParser:
    """Evaluating parser: expressions become TruncatedSeries immediately."""

    def __init__(self, cur, d, Kt, Kz, q=None):
        self.cur = cur
        self.d = d
        self.Kt = Kt
        self.Kz = Kz
        self.q = q

    def _const(self, value):
        return TruncatedSeries.const(value, self.d, self.Kt, self.Kz)

    def parse_expr(self):
        value = self.parse_term()
        while self.cur.peek().text in ("+", "-"):
            op = self.cur.next().text
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self, value=None, operator=None):
        """Factors joined by '*' or '/', multiplied into `value` where one
        is given.  `operator(divisor)`, where given, is tried first at each
        factor, with `divisor` true after a '/': it parses a factor that is
        not an expression, and returns whether it found one there."""
        op = "*"
        while True:
            if operator is None or not operator(op == "/"):
                tok = self.cur.peek()
                rhs = self.parse_factor()
                if value is None:
                    value = rhs
                elif op == "*":
                    value = value * rhs
                else:
                    try:
                        value = divide(value, rhs)
                    except NotAUnitError:
                        raise ParseError("division by a series with zero constant term", tok.line, tok.col)
            if self.cur.peek().text not in ("*", "/"):
                return value
            op = self.cur.next().text

    def parse_factor(self):
        base = self.parse_atom()
        while self.cur.peek().text == "^":
            self.cur.next()
            tok = self.cur.peek()
            sign = 1
            if tok.text == "-":
                self.cur.next()
                sign = -1
                tok = self.cur.peek()
            if tok.kind != "num" or "." in tok.text or "e" in tok.text.lower():
                self.cur.error("exponent must be an integer")
            k = sign * int(self.cur.next().text)
            try:
                base = base.pow(k)
            except NotAUnitError:
                raise ParseError("negative power of a non-unit series", tok.line, tok.col)
        return base

    def parse_atom(self):
        tok = self.cur.peek()
        if tok.text == "-":
            self.cur.next()
            return -self.parse_atom()
        if tok.text == "+":
            self.cur.next()
            return self.parse_atom()
        if tok.text == "(":
            self.cur.next()
            inner = self.parse_expr()
            self.cur.expect(")")
            return inner
        if tok.kind == "num":
            self.cur.next()
            value = float(tok.text)
            if self.cur.peek().text == "i":
                self.cur.next()
                return self._const(complex(0.0, value))
            return self._const(value)
        if tok.kind == "name":
            name = tok.text
            if name == "i":
                self.cur.next()
                return self._const(1j)
            if name == "t":
                self.cur.next()
                return TruncatedSeries.var_t(self.d, self.Kt, self.Kz)
            if name == "q":
                if self.q is None:
                    self.cur.error("symbol q is not available in this context")
                self.cur.next()
                return self._const(self.q)
            m = re.fullmatch(r"z(\d+)", name)
            if m:
                axis = int(m.group(1))
                if not 1 <= axis <= self.d:
                    self.cur.error("variable z%d out of range for d=%d" % (axis, self.d))
                self.cur.next()
                return TruncatedSeries.var_z(axis, self.d, self.Kt, self.Kz)
            self.cur.error("unknown symbol %r" % name)
        self.cur.error("expected an expression, found %r" % (tok.text or "end of input"))


def parse_series(text, d, Kt, Kz, q=None):
    """Parse a series literal / expression into a TruncatedSeries."""
    cur = _Cursor(tokenize(text))
    value = ExprParser(cur, d, Kt, Kz, q).parse_expr()
    tok = cur.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input %r" % tok.text, tok.line, tok.col)
    return value


def parse_int(cur, what):
    tok = cur.peek()
    if tok.kind != "num" or "." in tok.text or "e" in tok.text.lower():
        cur.error("expected an integer %s" % what)
    return int(cur.next().text)


def parse_number(cur):
    sign = 1.0
    if cur.peek().text == "-":
        cur.next()
        sign = -1.0
    tok = cur.peek()
    if tok.kind != "num":
        cur.error("expected a number")
    return sign * float(cur.next().text)


def parse_rational(cur):
    sign = 1
    if cur.peek().text == "-":
        cur.next()
        sign = -1
    num = parse_int(cur, "numerator")
    den = 1
    if cur.peek().text == "/":
        cur.next()
        tok = cur.peek()
        den = parse_int(cur, "denominator")
        if den == 0:
            raise ParseError("zero denominator", tok.line, tok.col)
    return Fraction(sign * num, den)
