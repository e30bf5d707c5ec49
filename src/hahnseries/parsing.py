"""Expression parser for the textual grammar.

Atoms are rationals (via integer division), the series variable t, the
polynomial unknown y, transcendentals a1, a2, ..., and precision clauses
O(t^e).  '^' binds tighter than '*' and '/', which bind tighter than
'+' and '-'; unary minus is allowed; exponents after '^' are integer or
parenthesized rational literals (a parenthesized tuple at rank > 1).
Series atoms materialize at the session precision; an O clause can
lower the precision of a sum, never raise it.  Values stay in the
smallest layer that fits: a pure coefficient expression returns a
Coefficient, anything touching t or O a TruncatedSeries, anything
touching y a SeriesPolynomial.
"""

from __future__ import annotations

import string
from fractions import Fraction

from .coeffs import Coefficient
from .errors import ParseError
from .exponents import as_exponent
from .series import SeriesPolynomial, TruncatedSeries

__all__ = ["parse_expression"]


_OPS = set("+-*/^(),")
# the grammar is ASCII: str.isdigit and str.isalpha accept '²' or '١'
_DIGITS = set(string.digits)
_LETTERS = set(string.ascii_letters)
_NAME_CHARS = _LETTERS | _DIGITS | {"_"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < len(text) and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _PolyBuilder:
    """Sparse polynomial in y while parsing: degree -> scalar or series.

    Absent slots are exactly zero, so assembling terms never clamps the
    precision of unrelated slots; the builder is materialized into a
    SeriesPolynomial only when the whole expression has been read.
    """

    __slots__ = ("slots",)

    def __init__(self, slots):
        self.slots = slots


class _Parser:
    def __init__(self, text, rank, default_prec):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.rank = rank
        self.prec = as_exponent(default_prec, rank)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text):
        tok = self.advance()
        if tok.kind == "end" or tok.text != text:
            self.fail(f"expected {text!r}", tok)
        return tok

    # -- value coercions ----------------------------------------------------

    def to_series(self, x):
        if isinstance(x, TruncatedSeries):
            return x
        if isinstance(x, _PolyBuilder):
            self.fail("a polynomial in y cannot be used as a series")
        return TruncatedSeries([(self.prec.scale(0), x)], self.prec)

    def materialize(self, x):
        if not isinstance(x, _PolyBuilder):
            return x
        if not x.slots:
            return SeriesPolynomial([])
        top = max(x.slots)
        coeffs = []
        for k in range(top + 1):
            v = x.slots.get(k)
            if v is None:
                coeffs.append(TruncatedSeries.zero(self.prec))
            else:
                coeffs.append(self.to_series(v))
        return SeriesPolynomial(coeffs)

    def add(self, a, b):
        if isinstance(a, _PolyBuilder) or isinstance(b, _PolyBuilder):
            if not isinstance(a, _PolyBuilder):
                a, b = b, a
            slots = dict(a.slots)
            items = b.slots.items() if isinstance(b, _PolyBuilder) else [(0, b)]
            for k, v in items:
                slots[k] = v if k not in slots else self.add(slots[k], v)
            return _PolyBuilder(slots)
        if isinstance(a, TruncatedSeries) or isinstance(b, TruncatedSeries):
            return self.to_series(a) + self.to_series(b)
        return a + b

    def mul(self, a, b):
        if isinstance(a, _PolyBuilder) or isinstance(b, _PolyBuilder):
            if not isinstance(a, _PolyBuilder):
                a, b = b, a
            out = {}
            items = b.slots.items() if isinstance(b, _PolyBuilder) else [(0, b)]
            for i, x in a.slots.items():
                for j, y in items:
                    prod = self.mul(x, y)
                    k = i + j
                    out[k] = prod if k not in out else self.add(out[k], prod)
            return _PolyBuilder(out)
        # exact coefficients scale without precision loss
        if isinstance(a, Coefficient) and isinstance(b, TruncatedSeries):
            a, b = b, a
        if isinstance(a, TruncatedSeries) and isinstance(b, Coefficient):
            return a.scalar_mul(b)
        if isinstance(a, TruncatedSeries) or isinstance(b, TruncatedSeries):
            return self.to_series(a) * self.to_series(b)
        return a * b

    def div(self, a, b, tok):
        if isinstance(b, _PolyBuilder):
            self.fail("cannot divide by a polynomial in y", tok)
        if isinstance(b, Coefficient):
            if b.is_zero():
                raise ZeroDivisionError("division by zero coefficient")
            return self.mul(a, Coefficient.one() / b)
        inv = self.to_series(b).inv()
        if isinstance(a, _PolyBuilder):
            return self.mul(a, inv)
        return self.to_series(a) * inv

    def neg(self, a):
        if isinstance(a, _PolyBuilder):
            return _PolyBuilder({k: self.neg(v) for k, v in a.slots.items()})
        return -a

    # -- grammar ------------------------------------------------------------

    def parse(self):
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r}", tok)
        return self.materialize(value)

    def expression(self):
        value = self.term()
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            op = self.advance()
            rhs = self.term()
            if op.text == "-":
                rhs = self.neg(rhs)
            value = self.add(value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek().text in ("*", "/") and self.peek().kind == "op":
            op = self.advance()
            rhs = self.factor()
            if op.text == "*":
                value = self.mul(value, rhs)
            else:
                value = self.div(value, rhs, op)
        return value

    def factor(self):
        negate = False
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            if self.advance().text == "-":
                negate = not negate
        value = self.power()
        return self.neg(value) if negate else value

    def power(self):
        tag, payload, tok = self.atom()
        if self.peek().text == "^" and self.peek().kind == "op":
            caret = self.advance()
            exponent = self.exponent_literal()
            return self.apply_power(tag, payload, exponent, caret)
        return self.finalize(tag, payload, tok)

    def finalize(self, tag, payload, tok):
        if tag == "t":
            return TruncatedSeries.monomial(1, self.t_exponent(1, tok), self.prec)
        if tag == "y":
            return _PolyBuilder({1: Coefficient.one()})
        return payload

    def t_exponent(self, e, tok):
        """The exponent of t^e at the session rank; a rational pads with zeros."""
        if not isinstance(e, tuple):
            e = (e,) + (0,) * (self.rank - 1)
        elif len(e) != self.rank:
            self.fail(f"exponent tuple of length {len(e)} at rank {self.rank}", tok)
        return as_exponent(e)

    def apply_power(self, tag, payload, exponent, caret):
        if tag == "t":
            e = self.t_exponent(exponent, caret)
            return TruncatedSeries.monomial(1, e, self.prec)
        if isinstance(exponent, tuple):
            self.fail("tuple exponents only apply to t", caret)
        if exponent.denominator != 1:
            # fractional power of a single-term series with coefficient 1
            value = self.finalize(tag, payload, caret)
            if (
                isinstance(value, TruncatedSeries)
                and len(value.terms) == 1
                and value.terms[0][1] == Coefficient.one()
            ):
                e = value.terms[0][0].scale(exponent)
                return TruncatedSeries.monomial(1, e, self.prec)
            self.fail("fractional powers apply only to monomials in t", caret)
        n = int(exponent)
        if tag == "y":
            if n < 0:
                self.fail("negative power of y", caret)
            return _PolyBuilder({n: Coefficient.one()})
        value = self.finalize(tag, payload, caret)
        if isinstance(value, Coefficient):
            return value**n
        if n < 0:
            if isinstance(value, _PolyBuilder):
                self.fail("negative power of a polynomial in y", caret)
            value = value.inv()
        if n == 0:
            if isinstance(value, _PolyBuilder):
                return _PolyBuilder({0: Coefficient.one()})
            return TruncatedSeries.one(value.prec)
        # start from the base: a product with 1 would lose precision when
        # v(base) < 0 and would give nothing when base.prec <= 0.  A power
        # of a polynomial in y, whose size grows with n, is multiplied out
        if not isinstance(value, _PolyBuilder):
            return _series_power(value, abs(n))
        out = value
        for _ in range(n - 1):
            out = self.mul(out, value)
        return out

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            return "value", Coefficient.const(int(tok.text)), tok
        if tok.kind == "name":
            if tok.text == "t":
                return "t", None, tok
            if tok.text == "y":
                return "y", None, tok
            if tok.text == "O":
                self.expect("(")
                inner = self.advance()
                if inner.kind != "name" or inner.text != "t":
                    self.fail("O(...) takes a power of t", inner)
                if self.peek().text == "^":
                    self.advance()
                    e = self.exponent_literal()
                else:
                    e = Fraction(1)
                self.expect(")")
                bound = self.t_exponent(e, tok)
                return "value", TruncatedSeries.zero(min(bound, self.prec)), tok
            if tok.text.startswith("a") and tok.text[1:].isdigit():
                idx = int(tok.text[1:])
                if idx < 1:
                    self.fail("transcendental indices start at a1", tok)
                return "value", Coefficient.alpha(idx), tok
            self.fail(f"unknown identifier {tok.text!r}", tok)
        if tok.text == "(":
            value = self.expression()
            self.expect(")")
            return "value", value, tok
        self.fail(f"unexpected {tok.text or 'end of input'!r}", tok)

    def exponent_literal(self):
        tok = self.peek()
        if tok.text == "(" and tok.kind == "op":
            self.advance()
            parts = [self.signed_rational()]
            while self.peek().text == ",":
                self.advance()
                parts.append(self.signed_rational())
            self.expect(")")
            if len(parts) == 1:
                return parts[0]
            return tuple(parts)
        return self.signed_rational()

    def signed_rational(self):
        sign = 1
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            if self.advance().text == "-":
                sign = -sign
        tok = self.advance()
        if tok.kind != "int":
            self.fail("expected a rational literal", tok)
        numerator = int(tok.text)
        if self.peek().text == "/" and self.peek().kind == "op":
            save = self.pos
            self.advance()
            den_tok = self.peek()
            if den_tok.kind == "int":
                self.advance()
                if int(den_tok.text) == 0:
                    self.fail("zero denominator in a rational literal", den_tok)
                return Fraction(sign * numerator, int(den_tok.text))
            self.pos = save
        return Fraction(sign * numerator)


def _series_power(f, n):
    """f^n for n >= 1 by repeated squaring.  Under any grouping of its n - 1
    products, f^n is known below prec + (n - 1)*v(f), so the result is the
    left-to-right product's."""
    if n == 1:
        return f
    half = _series_power(f, n // 2)
    return half * half * f if n % 2 else half * half


def parse_expression(text, rank=1, default_prec=10):
    """Parse into a Coefficient, TruncatedSeries, or SeriesPolynomial."""
    return _Parser(text, rank, default_prec).parse()

