"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace-insensitive, implicit multiplication forbidden):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := rational | variable ['^' posint] | '(' expr ')'
    rational:= int ['/' posint]

Each sub-expression is a plain term dict (exponent tuple -> coefficient):
an int, or over Q a `Fraction` where a literal has '/', and over F_q a
residue, every sum and product reduced mod q, q the field's characteristic
(0 for Q).  A literal is taken into the field where it is read, `x^k` is one
monomial, and the whole expression is returned as a term dict, with
Fraction coefficients over Q.  Errors carry the offset of the offending
token.  An integer literal may have at most MAX_LITERAL_DIGITS digits
(decimal digits only), parentheses may nest at most MAX_NESTING deep, and a
product or power may have degree at most MAX_DEGREE, so that no input
reaches the interpreter's own limits on integer conversion and recursion,
or makes a product of many factors.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InputError
from .fields import fraction_mod, residue
from .multipoly import mul_terms


class PolyParseError(InputError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOK_OPS = set("+-*/^()")
MAX_LITERAL_DIGITS = 4000
MAX_NESTING = 100
MAX_DEGREE = 12


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
        if ch.isdecimal():  # not isdigit, which takes digits such as '²' that int() refuses
            j = i
            while j < n and text[j].isdecimal():
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
    def __init__(self, text: str, vars: tuple, q: int):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self.vars = vars
        self.q = q

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> dict:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"trailing input {tok[1]!r}", tok[2])
        return p if self.q else {e: Fraction(c) for e, c in p.items()}

    def expr(self) -> dict:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        p: dict = {}
        while True:
            for e, c in self.term().items():
                s = residue(p.get(e, 0) + sign * c, self.q)
                if s:
                    p[e] = s
                else:
                    p.pop(e, None)
            if self.peek()[0] not in ("+", "-"):
                return p
            sign = 1 if self.take()[0] == "+" else -1

    def term(self) -> dict:
        p = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            f = self.factor()
            # a product of nonzero polynomials has the sum of their degrees
            if p and f and max(map(sum, p)) + max(map(sum, f)) > MAX_DEGREE:
                raise PolyParseError(f"degree higher than {MAX_DEGREE}", pos)
            p = mul_terms(p, f, self.q)
        return p

    def factor(self) -> dict:
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
            return {e: residue(-c, self.q) for e, c in p.items()} if negate else p
        if kind == "int":
            self.take()
            value = int(text)
            if self.peek()[0] == "/":
                self.take()
                dk, dt, dp = self.take()
                if dk != "int" or int(dt) <= 0:
                    raise PolyParseError("denominator must be a positive integer", dp)
                value = Fraction(value, int(dt))
                if self.q:
                    value = fraction_mod(value, self.q)
            value = residue(value, self.q)
            return {(0,) * len(self.vars): value} if value else {}
        if kind == "name":
            self.take()
            if text not in self.vars:
                raise PolyParseError(f"unknown variable {text!r}", pos)
            k = 1
            if self.peek()[0] == "^":
                hat = self.take()[2]
                ek, et, ep = self.take()
                if ek != "int" or int(et) <= 0:
                    raise PolyParseError("exponent must be a positive integer", ep)
                k = int(et)
                if k > MAX_DEGREE:
                    raise PolyParseError(f"degree higher than {MAX_DEGREE}", hat)
            return {tuple(k if v == text else 0 for v in self.vars): 1}
        raise PolyParseError(f"expected a factor, found {text!r}" if text else "unexpected end of input", pos)


def parse_poly(text: str, vars: tuple, q: int = 0) -> dict:
    """Parse text into the terms of a polynomial in characteristic q; reject
    one whose terms differ in degree."""
    p = _Parser(text, vars, q).parse()
    degs = sorted({sum(e) for e in p})
    if len(degs) > 1:
        raise InputError(f"polynomial is not homogeneous (term degrees {degs}): {text!r}")
    return p
