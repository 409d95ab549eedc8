"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace-insensitive, implicit multiplication forbidden):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := rational | variable ['^' posint] | '(' expr ')'
    rational:= int ['/' posint]

Errors carry the offset of the offending token.  An integer literal may have
at most MAX_LITERAL_DIGITS digits and parentheses may nest at most
MAX_NESTING deep, so that no input reaches the interpreter's own limits on
integer conversion and recursion.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InputError
from .multipoly import MultiPoly


class PolyParseError(InputError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOK_OPS = set("+-*/^()")
MAX_LITERAL_DIGITS = 4000
MAX_NESTING = 100


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOK_OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise PolyParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", i)
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, vars: tuple, field):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self.vars = vars
        self.field = field

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def expr(self) -> MultiPoly:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            p = p + t if op == "+" else p - t
        return p

    def term(self) -> MultiPoly:
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> MultiPoly:
        kind, text, pos = self.peek()
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.take()
            self.depth += 1
            p = self.expr()
            self.take(")")
            self.depth -= 1
            return p
        if kind == "-":
            # a run of signs folded into a literal or sub-factor
            negate = False
            while self.peek()[0] == "-":
                self.take()
                negate = not negate
            p = self.factor()
            return -p if negate else p
        if kind == "int":
            self.take()
            num = int(text)
            if self.peek()[0] == "/":
                self.take()
                dk, dt, dp = self.take()
                if dk != "int" or int(dt) <= 0:
                    raise PolyParseError("denominator must be a positive integer", dp)
                value = Fraction(num, int(dt))
            else:
                value = Fraction(num)
            return MultiPoly.constant(self.field, self.vars, self.field.coerce(value))
        if kind == "name":
            self.take()
            if text not in self.vars:
                raise PolyParseError(f"unknown variable {text!r}", pos)
            p = MultiPoly.variable(self.field, self.vars, text)
            if self.peek()[0] == "^":
                self.take()
                ek, et, ep = self.take()
                if ek != "int" or int(et) <= 0:
                    raise PolyParseError("exponent must be a positive integer", ep)
                p = p ** int(et)
            return p
        raise PolyParseError(f"expected a factor, found {text!r}" if text else "unexpected end of input", pos)


def parse_poly(text: str, vars: tuple, field) -> MultiPoly:
    """Parse text into a polynomial; reject one whose terms differ in degree."""
    p = _Parser(text, vars, field).parse()
    if not p.is_homogeneous():
        degs = sorted({sum(e) for e in p.terms})
        raise InputError(f"polynomial is not homogeneous (term degrees {degs}): {text!r}")
    return p
