"""Reference arithmetic that the oracles compare the library against.

Nothing here imports hahnseries.  A reference series is ``Series(terms,
prec)``: ``terms`` maps exponent tuples of Fractions to nonzero field
elements and ``prec`` is an exponent tuple; the element is known modulo
exponents >= prec.  Field elements are Fractions or elements of sympy's
rational-function field, and only ``+ - * /`` and ``== 0`` are used on
them.

Precision rules are derived from the mathematics, not read from the
library: a product is known below min(pa + vb, pb + va); an inverse of
a series of valuation v known below p is known below p - 2v; exp, log
and rational powers keep the precision of their argument.

Rank-1 inverse, exp, log and powers use the classical recurrences on the
integer grid t^(1/L), which is a different algorithm from the power sums
the library uses.  Higher rank falls back to power sums with a hard cap.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

Series = namedtuple("Series", "terms prec")

_POWER_SUM_CAP = 500


def exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_scale(a, q):
    return tuple(x * q for x in a)


def v_floor(s: Series):
    return min(s.terms) if s.terms else s.prec


def _clean(terms, prec):
    return {e: c for e, c in terms.items() if e < prec and c != 0}


def make(terms, prec) -> Series:
    """Normalize: drop zero coefficients and exponents at or above prec."""
    prec = tuple(prec)
    out = {}
    for e, c in (terms.items() if isinstance(terms, dict) else terms):
        e = tuple(e)
        out[e] = out.get(e, 0) + c
    return Series(_clean(out, prec), prec)


def add(a: Series, b: Series) -> Series:
    prec = min(a.prec, b.prec)
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + c
    return Series(_clean(out, prec), prec)


def neg(a: Series) -> Series:
    return Series({e: -c for e, c in a.terms.items()}, a.prec)


def sub(a: Series, b: Series) -> Series:
    return add(a, neg(b))


def scale(a: Series, k) -> Series:
    return Series(_clean({e: c * k for e, c in a.terms.items()}, a.prec), a.prec)


def mul(a: Series, b: Series) -> Series:
    prec = min(exp_add(a.prec, v_floor(b)), exp_add(b.prec, v_floor(a)))
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = exp_add(e1, e2)
            if e < prec:
                out[e] = out.get(e, 0) + c1 * c2
    return Series(_clean(out, prec), prec)


def truncate(a: Series, prec) -> Series:
    prec = min(a.prec, tuple(prec))
    return Series(_clean(a.terms, prec), prec)


def one(prec, unit=Fraction(1)) -> Series:
    return Series({tuple(0 * x for x in prec): unit}, tuple(prec))


def eval_poly(coeffs, x: Series) -> Series:
    """Horner evaluation of sum(coeffs[i] * y^i) at y = x."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = add(mul(acc, x), c)
    return acc


def _grid(exponents):
    return lcm(*(Fraction(e).denominator for e in exponents))


def _unit_of(a: Series):
    """Split a = c0 * t^v * u with u a 1-unit; returns (v, c0, u)."""
    if not a.terms:
        raise ZeroDivisionError("series is zero at precision")
    v = min(a.terms)
    c0 = a.terms[v]
    neg_v = exp_scale(v, -1)
    u = Series(
        {exp_add(e, neg_v): c / c0 for e, c in a.terms.items()},
        exp_add(a.prec, neg_v),
    )
    return v, c0, u


def _coeff_list(s: Series, L, n, zero):
    out = [zero] * n
    for e, c in s.terms.items():
        k = e[0] * L
        if k < n:
            out[int(k)] = c
    return out


def _from_grid(values, L, prec, shift=Fraction(0)):
    return Series(
        {(Fraction(k, L) + shift,): c for k, c in enumerate(values) if c != 0},
        prec,
    )


def _rank1_setup(s: Series):
    L = _grid([e[0] for e in s.terms] + [s.prec[0]])
    return L, int(s.prec[0] * L)


def inv(a: Series) -> Series:
    v, c0, u = _unit_of(a)
    if len(a.prec) != 1:
        unit = c0 / c0
        delta = sub(u, one(u.prec, unit))
        term = one(u.prec, unit)
        acc = term
        for _ in range(_POWER_SUM_CAP):
            term = truncate(mul(term, neg(delta)), u.prec)
            if not term.terms:
                break
            acc = add(acc, term)
        else:
            raise ArithmeticError("power sum did not terminate")
        shift = exp_scale(v, -1)
        return Series(
            {exp_add(e, shift): c / c0 for e, c in acc.terms.items()},
            exp_add(acc.prec, shift),
        )
    unit = c0 / c0
    L, n = _rank1_setup(u)
    us = _coeff_list(u, L, n, unit - unit)
    b = [unit] + [unit - unit] * max(n - 1, 0)
    for k in range(1, n):
        acc = unit - unit
        for j in range(1, k + 1):
            if us[j] != 0:
                acc = acc - us[j] * b[k - j]
        b[k] = acc
    b = [x / c0 for x in b[:n]]
    return _from_grid(b, L, (a.prec[0] - 2 * v[0],), shift=-v[0])


def exp(e: Series, unit=Fraction(1)) -> Series:
    if e.terms and not min(e.terms) > tuple(0 * x for x in e.prec):
        raise ValueError("exp needs positive valuation")
    if len(e.prec) != 1:
        acc = one(e.prec, unit)
        power = one(e.prec, unit)
        for i in range(1, _POWER_SUM_CAP):
            power = truncate(mul(power, e), e.prec)
            if not power.terms:
                return acc
            acc = add(acc, scale(power, Fraction(1, factorial(i))))
        raise ArithmeticError("power sum did not terminate")
    L, n = _rank1_setup(e)
    zero = unit - unit
    es = _coeff_list(e, L, n, zero)
    out = [unit] + [zero] * max(n - 1, 0)
    for k in range(1, n):
        acc = zero
        for j in range(1, k + 1):
            if es[j] != 0:
                acc = acc + j * es[j] * out[k - j]
        out[k] = acc / k
    return _from_grid(out[:n], L, e.prec)


def log(u: Series) -> Series:
    zero_e = tuple(0 * x for x in u.prec)
    unit = u.terms[zero_e]
    delta = sub(u, one(u.prec, unit))
    if len(u.prec) != 1:
        acc = Series({}, u.prec)
        power = one(u.prec, unit)
        for i in range(1, _POWER_SUM_CAP):
            power = truncate(mul(power, delta), u.prec)
            if not power.terms:
                return acc
            acc = add(acc, scale(power, Fraction((-1) ** (i + 1), i)))
        raise ArithmeticError("power sum did not terminate")
    L, n = _rank1_setup(u)
    zero = unit - unit
    us = _coeff_list(u, L, n, zero)
    out = [zero] * n
    for k in range(1, n):
        acc = k * us[k]
        for j in range(1, k):
            if us[k - j] != 0:
                acc = acc - j * out[j] * us[k - j]
        out[k] = acc / k
    return _from_grid(out, L, u.prec)


def power(u: Series, q: Fraction) -> Series:
    """u^q for a rank-1 1-unit u and rational q."""
    zero_e = tuple(0 * x for x in u.prec)
    unit = u.terms[zero_e]
    L, n = _rank1_setup(u)
    zero = unit - unit
    us = _coeff_list(u, L, n, zero)
    w = [unit] + [zero] * max(n - 1, 0)
    for k in range(1, n):
        acc = zero
        for j in range(1, k + 1):
            if us[j] != 0:
                acc = acc + ((q + 1) * j - k) * us[j] * w[k - j]
        w[k] = acc / k
    return _from_grid(w[:n], L, u.prec)


# ---------------------------------------------------------------------------
# Rational functions of a1, a2, a3 as generated data


@dataclass(frozen=True)
class RatFun:
    """num/den, each a tuple of (Fraction coefficient, (e1, e2, e3)) terms."""

    num: tuple
    den: tuple = ((Fraction(1), (0, 0, 0)),)

    def value(self, point):
        """Value at point = (q1, q2, q3); ZeroDivisionError at a pole."""
        return _poly_value(self.num, point) / _poly_value(self.den, point)

    def is_zero(self):
        return all(c == 0 for c, _ in self.num)

    def to_sympy(self, syms):
        return _poly_sympy(self.num, syms) / _poly_sympy(self.den, syms)

    def variables(self):
        return {
            j + 1 for _, m in self.num + self.den for j, e in enumerate(m) if e
        }

    def __add__(self, other):
        other = as_ratfun(other)
        return RatFun(
            _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den)),
            _poly_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFun(tuple((-c, m) for c, m in self.num), self.den)

    def __sub__(self, other):
        return self + (-as_ratfun(other))

    def __rsub__(self, other):
        return as_ratfun(other) + (-self)

    def __mul__(self, other):
        other = as_ratfun(other)
        return RatFun(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))

    __rmul__ = __mul__


def as_ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    return RatFun(((Fraction(x), (0, 0, 0)),))


def _poly_add(a, b):
    out = {}
    for c, m in a + b:
        out[m] = out.get(m, 0) + c
    return tuple(sorted((c, m) for m, c in out.items() if c != 0)) or (
        (Fraction(0), (0, 0, 0)),
    )


def _poly_mul(a, b):
    out = {}
    for c1, m1 in a:
        for c2, m2 in b:
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _poly_add(tuple((c, m) for m, c in out.items()), ())


def _poly_value(terms, point):
    total = Fraction(0)
    for c, m in terms:
        v = c
        for q, e in zip(point, m):
            if e:
                v *= q**e
        total += v
    return total


def _poly_sympy(terms, syms):
    import sympy

    total = sympy.Integer(0)
    for c, m in terms:
        v = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            v = v * s**e
        total = total + v
    return total


def coeff_value(c, point):
    """Value of a generated coefficient (Fraction or RatFun) at point."""
    return c.value(point) if isinstance(c, RatFun) else Fraction(c)


def spec_value(terms, prec, point, strict=True) -> Series:
    """Evaluate a generated series spec at a point of (a1, a2, a3).

    A coefficient that vanishes at the point would change the support, and
    with it the precision the reference derives, so such a point is
    rejected like a pole (ZeroDivisionError) and the caller picks another.
    """
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + coeff_value(c, point)
    if strict and any(v == 0 for v in out.values()):
        raise ZeroDivisionError("a coefficient vanishes at the point")
    return make(out, prec)


# ---------------------------------------------------------------------------
# Reading the library's printed coefficients

_INT = re.compile(r"(?<!\w)\d+")
_CODE_CACHE = {}


def printed_value(text: str, point):
    """Value of a printed coefficient such as ``(a1 + 3/2)/(a2^2 - 1)``.

    The text is the library's own ``str`` of a coefficient; integer
    literals become Fractions so the evaluation stays exact.
    """
    code = _CODE_CACHE.get(text)
    if code is None:
        expr = _INT.sub(lambda m: f"F({m.group()})", text.replace("^", "**"))
        code = compile(expr, "<coefficient>", "eval")
        _CODE_CACHE[text] = code
    env = {"F": Fraction, "a1": point[0], "a2": point[1], "a3": point[2]}
    return eval(code, {"__builtins__": {}}, env)


def printed_variables(text: str):
    return {int(m) for m in re.findall(r"a(\d+)", text)}


# ---------------------------------------------------------------------------
# Rank of a rational matrix, computed modulo a large prime

_PRIME = (1 << 61) - 1


def rank(rows) -> int:
    """Rank of a matrix of Fractions, computed in GF(2^61 - 1).

    The rank mod p never exceeds the rank over Q, so "full rank" verdicts
    are exact, and "in the span" verdicts are wrong only if p divides a
    nonzero minor (probability about 2^-61 for the values used here).
    """
    rows = [
        [(x.numerator % _PRIME) * pow(x.denominator, -1, _PRIME) % _PRIME for x in map(Fraction, r)]
        for r in rows
    ]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, _PRIME)
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                f = f * inv % _PRIME
                rows[i] = [(a - f * b) % _PRIME for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r
