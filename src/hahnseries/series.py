"""Truncated generalized power series with precision tracking.

A series is a finite, strictly increasing list of (exponent, coefficient)
terms together with a precision bound tau: the element is known modulo
terms of exponent >= tau.  The minimal-support valuation v_min is the
least exponent of the support; for a series with no stored terms it is
only known to be >= tau, which the distinguished value AtLeast(tau)
records.  All ring operations attach the weakest correct precision.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from operator import add, sub

from .coeffs import INFINITE, Coefficient, Place, apply_place, as_coefficient
from .errors import (
    NotInValuationRingError,
    PrecisionError,
    PreconditionError,
    RankMismatchError,
)
from .exponents import Exponent, Record, as_exponent, reach_count

__all__ = [
    "TruncatedSeries",
    "SeriesPolynomial",
    "AtLeast",
    "phi_P",
    "eval_poly",
    "first_order",
    "specialize_poly",
]


class AtLeast(Record):
    """Valuation known only to be >= bound (possibly infinite)."""

    __slots__ = ("bound",)

    def __init__(self, bound: Exponent):
        super().__init__(bound)

    def __str__(self):
        return f">= {self.bound} (unknown)"


class TruncatedSeries:
    """Finite sorted term list plus a precision exponent."""

    __slots__ = ("terms", "prec")

    def __init__(self, terms, prec):
        prec = as_exponent(prec)
        rank = prec.rank
        merged = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            e = as_exponent(e, rank)
            c = as_coefficient(c)
            if e in merged:
                c = merged[e] + c
            if c.is_zero():
                merged.pop(e, None)
            else:
                merged[e] = c
        kept = sorted((e, c) for e, c in merged.items() if e < prec)
        self.terms = tuple(kept)
        self.prec = prec

    @classmethod
    def _of(cls, terms, prec) -> "TruncatedSeries":
        """A series on trusted input, as Exponent._of is for exponents: terms
        a tuple of (Exponent, nonzero Coefficient) pairs, strictly
        increasing and below the Exponent prec."""
        s = object.__new__(cls)
        s.terms = terms
        s.prec = prec
        return s

    @property
    def rank(self) -> int:
        return self.prec.rank

    def _zero_exp(self) -> Exponent:
        return self.prec.scale(0)

    @classmethod
    def zero(cls, prec) -> "TruncatedSeries":
        return cls((), prec)

    @classmethod
    def monomial(cls, coeff, exponent, prec) -> "TruncatedSeries":
        return cls([(exponent, coeff)], prec)

    @classmethod
    def one(cls, prec) -> "TruncatedSeries":
        prec = as_exponent(prec)
        return cls([(prec.scale(0), Coefficient.one())], prec)

    def coefficient(self, e) -> Coefficient:
        e = as_exponent(e, self.rank)
        return dict(self.terms).get(e, Coefficient.zero())

    def v_min(self):
        """Least exposed exponent, or AtLeast(prec) when nothing is stored."""
        if self.terms:
            return self.terms[0][0]
        return AtLeast(self.prec)

    def v_floor(self) -> Exponent:
        """Exact v_min when visible, else the precision bound."""
        return self.terms[0][0] if self.terms else self.prec

    def leading_coeff(self) -> Coefficient:
        if not self.terms:
            raise PreconditionError("zero series at precision has no leading term")
        return self.terms[0][1]

    def is_zero_at_prec(self) -> bool:
        return not self.terms

    def truncate(self, prec) -> "TruncatedSeries":
        prec = min(as_exponent(prec, self.rank), self.prec)
        return TruncatedSeries._of(_below(self.terms, prec), prec)

    def __add__(self, other):
        """Merges the two increasing term lists, cut at the lesser prec."""
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        a, b = _below(self.terms, prec), _below(other.terms, prec)
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            (e, c), (f, d) = a[i], b[j]
            lower = e.coords < f.coords
            if lower or f.coords < e.coords:
                out.append(a[i] if lower else b[j])
                i, j = i + lower, j + (not lower)
            else:
                s = c + d
                if not s.is_zero():
                    out.append((e, s))
                i, j = i + 1, j + 1
        return TruncatedSeries._of(tuple(out) + a[i:] + b[j:], prec)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return TruncatedSeries._of(tuple((e, -c) for e, c in self.terms), self.prec)

    def scalar_mul(self, c) -> "TruncatedSeries":
        """Multiply by an exact coefficient; precision is unchanged."""
        c = as_coefficient(c)
        if c == 1:
            return self
        if c.is_zero():
            return TruncatedSeries.zero(self.prec)
        q = c._value()
        scalar = c if q is None else q  # a rational scales each term: no gcd
        return TruncatedSeries._of(tuple((e, k * scalar) for e, k in self.terms), self.prec)

    def shift_scale(self, c, e) -> "TruncatedSeries":
        """Multiply by the exact monomial c * t^e (c != 0); lossless."""
        c = as_coefficient(c)
        if c.is_zero():
            raise ValueError("shift_scale requires a nonzero coefficient")
        e = as_exponent(e, self.rank)
        d = e.coords
        shifted = ((Exponent._of(tuple(map(add, g.coords, d))), k * c) for g, k in self.terms)
        return TruncatedSeries._of(tuple(shifted), self.prec + e)

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.rank != self.rank:
                raise RankMismatchError(
                    f"series of rank {self.rank} vs rank {other.rank}"
                )
            return other
        c = as_coefficient(other)
        return TruncatedSeries([(self._zero_exp(), c)], self.prec)

    def __mul__(self, other):
        """The product, known below prec = min(self.prec + other.v_floor(),
        other.prec + self.v_floor()).

        The lexicographic order is a group order, so e1 + e2 < prec exactly
        when e2 < prec - e1.  Both term lists increase strictly: the first
        e2 at or past prec - e1 ends the row, as every later e2 is cut too,
        and a row whose first pair is cut ends the product, as every later
        e1 is larger.  Exponents are added as integer index tuples on the
        common grid of both factors and prec (see _lift).
        """
        other = self._coerce(other)
        prec = min(self.prec + other.v_floor(), other.prec + self.v_floor())
        grid, plain, cut, (lhs, rhs) = _lift(prec, self, other)
        out = {}
        for a, c1 in lhs:
            room = tuple(map(sub, cut, a))
            if not rhs or not rhs[0][0] < room:
                break
            for b, c2 in rhs:
                if not b < room:
                    break
                e = tuple(map(add, a, b))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return _drop(out, grid, plain, prec)

    __rmul__ = __mul__

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse; f * f.inv() = 1 to precision prec - v_min."""
        if not self.terms:
            raise PreconditionError("cannot invert a series that is zero at precision")
        v, c0 = self.terms[0]
        c0_inv = Coefficient.one() / c0
        # 1/u = (1 + x)^(-1) for the 1-unit u = 1 + x, known modulo prec - v
        unit = self.shift_scale(c0_inv, -v)
        return first_order(unit - 1, 1, -1, 0).shift_scale(c0_inv, -v)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def specialize(self, place: Place) -> "TruncatedSeries":
        """Apply a place to every coefficient; same precision."""
        out = []
        for e, c in self.terms:
            image = apply_place(c, place)
            if image is INFINITE:
                raise NotInValuationRingError(
                    f"coefficient at t^{e} has a pole under {place}"
                )
            out.append((e, image))
        return TruncatedSeries(out, self.prec)

    def split_neg(self):
        """Split into (negative-exponent part, valuation-ring part)."""
        zero = self._zero_exp()
        neg = _below(self.terms, zero)
        ring = TruncatedSeries._of(self.terms[len(neg):], max(self.prec, zero))
        return TruncatedSeries._of(neg, self.prec), ring

    def residue(self) -> Coefficient:
        """Coefficient at exponent 0; requires v_min >= 0 and prec > 0."""
        zero = self._zero_exp()
        if self.terms and self.terms[0][0] < zero:
            raise NotInValuationRingError(
                f"negative valuation {self.terms[0][0]}"
            )
        if not self.prec > zero:
            raise PrecisionError("precision too low to read the residue")
        return self.coefficient(zero)

    def agrees_with(self, other) -> bool:
        """Equality to the shared precision min(prec, other.prec)."""
        other = self._coerce(other)
        p = min(self.prec, other.prec)
        return _below(self.terms, p) == _below(other.terms, p)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.prec == other.prec and self.terms == other.terms

    def __hash__(self):
        return hash((self.terms, self.prec))

    def __str__(self):
        parts = []
        for e, c in self.terms:
            parts.append(_term_str(e, c, first=not parts))
        if not parts:
            parts.append("0")
        return " ".join(parts) + f" + O({_t_power(self.prec)})"

    def __repr__(self):
        return f"TruncatedSeries({self})"


def _t_power(e: Exponent) -> str:
    if e.rank == 1:
        q = e.coords[0]
        if q == 1:
            return "t"
        if q.denominator == 1 and q >= 0:
            return f"t^{q}"
        return f"t^({q})"
    return f"t^{e}"


def _term_str(e: Exponent, c: Coefficient, first: bool) -> str:
    # a single-term coefficient over 1 lends its sign to the term
    simple = c.den.is_const() and c.den.const_value() == 1 and len(c.num.terms) == 1
    negative = simple and next(iter(c.num.terms.values())) < 0
    txt = str(-c if negative else c)
    if e != e.scale(0):
        t = _t_power(e)
        body = t if txt == "1" else (f"{txt}*{t}" if simple else f"({txt})*{t}")
    else:
        body = txt
    if first:
        return f"-{body}" if negative else body
    return f"{'-' if negative else '+'} {body}"


class SeriesPolynomial:
    """Polynomial in one unknown with truncated-series coefficients.  It
    keeps the degree it is given: a leading coefficient that is zero at
    precision is unknown, not absent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero_at_prec() for c in self.coeffs)

    def derivative(self) -> "SeriesPolynomial":
        return SeriesPolynomial(
            [c.scalar_mul(i) for i, c in enumerate(self.coeffs)][1:]
        )

    def __eq__(self, other):
        if not isinstance(other, SeriesPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        if len(self.coeffs) == 1:
            # keep the value a polynomial under reparsing
            return f"({self.coeffs[0]})*y^0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if d == 0:
                parts.append(f"({c})")
            elif d == 1:
                parts.append(f"({c})*y")
            else:
                parts.append(f"({c})*y^{d}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SeriesPolynomial({self})"


def phi_P(f: TruncatedSeries, place: Place) -> TruncatedSeries:
    """Coefficientwise place application (requires every coefficient finite)."""
    return f.specialize(place)


def specialize_poly(q: SeriesPolynomial, place: Place) -> SeriesPolynomial:
    return SeriesPolynomial([c.specialize(place) for c in q.coeffs])


def eval_poly(q, f: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of a series polynomial at a series."""
    coeffs = q.coeffs if isinstance(q, SeriesPolynomial) else tuple(q)
    if not coeffs:
        return TruncatedSeries.zero(f.prec)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * f + c
    return acc


def first_order(x: TruncatedSeries, lam, q, mu) -> TruncatedSeries:
    """g = F(x) for an infinitesimal x, truncated at x.prec, where F solves
    (1 + lam*X) * F' = q*F + mu with F(0) = 1 - mu.

    Let j be the archimedean class of v_min(x).  The derivation
    theta(t^e) = e_j * t^e turns the equation into
    (1 + lam*x) * theta(g) = (q*g + mu) * theta(x), so each coefficient of
    g is one convolution over supp(x) (J. C. P. Miller's recurrence):

        e_j g_e = mu e_j x_e + sum_b (q b_j - lam (e - b)_j) x_b g_(e-b).

    g lives on the monoid that supp(x) generates, cut at prec, taken in
    increasing order.  That set is finite exactly when some integer
    multiple of the valuation reaches the precision; at rank > 1 it may
    not, and the call refuses.  Every e of the set has the zero prefix of
    v_min(x) before j, so e_j >= v_j > 0.  The recurrence runs unchanged
    on index tuples of the grid 1/L (see _lift): L scales e_j and weights.
    """
    zero = x.prec.scale(0)
    if not x.prec > zero:
        raise PreconditionError("argument precision must exceed 0")
    if x.terms and not x.terms[0][0] > zero:
        raise PreconditionError(f"v_min must be positive, got {x.terms[0][0]}")
    if reach_count(x.v_floor(), x.prec) is None:
        raise PrecisionError(
            "precision unreachable by integer multiples of the valuation"
        )
    grid, plain, cut, (xs,) = _lift(x.prec, x)
    support = _monoid_below([b for b, _ in xs], (0,) * x.rank, cut)
    one = Fraction(1) if plain else Coefficient.one()
    g = {support[0]: one * (1 - mu)} if mu != 1 else {}
    xe = dict(xs)
    j = x.v_floor().arch_class() - 1
    for e in support[1:]:
        ej = e[j]
        acc = xe[e] * (mu * ej) if mu and e in xe else None
        for b, xb in xs:
            if b > e:
                break
            gd = g.get(tuple(map(sub, e, b)))
            if gd is None:
                continue
            w = q * b[j] - lam * (ej - b[j])
            if w:
                p = xb * gd * w
                acc = p if acc is None else acc + p
        if acc is not None and (acc if plain else not acc.is_zero()):
            g[e] = acc * Fraction(1, ej)
    return _drop(g, grid, plain, x.prec)


def _monoid_below(gens, zero, prec):
    """0 and the sums of elements of gens below prec, in increasing order.

    gens are positive index tuples in increasing order, on the grid of zero
    and prec; the set must be finite (the caller checks with reach_count).
    """
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for s in frontier:
            for b in gens:
                e = tuple(map(add, s, b))
                if not e < prec:
                    break
                if e not in seen:
                    seen.add(e)
                    new.append(e)
        frontier = new
    return sorted(seen)


def _below(terms, prec):
    """The terms below prec: a prefix, as terms increase."""
    return terms[: bisect_left(terms, prec.coords, key=lambda t: t[0].coords)]


def _indices(e, grid):
    """The integer index tuple of e on the grid 1/grid."""
    return tuple(q.numerator * (grid // q.denominator) for q in e.coords)


def _lift(prec, *series):
    """The kernels' entry: the least grid 1/L holding prec and every exponent
    of series, whether every coefficient is rational, prec's index tuple, and
    each series' terms as (index tuple, Fraction if so, else Coefficient)."""
    exps = [prec] + [e for f in series for e, _ in f.terms]
    grid = lcm(*{q.denominator for e in exps for q in e.coords})
    values = [[c._value() for _, c in f.terms] for f in series]
    plain = all(None not in v for v in values)
    lifted = [[(_indices(e, grid), v if plain else c) for (e, c), v in zip(f.terms, vs)]
              for f, vs in zip(series, values)]
    return grid, plain, _indices(prec, grid), lifted


def _drop(out, grid, plain, prec):
    """The kernels' exit: the nonzero values of out, a dict from index
    tuples, as a series, each term wrapped once."""
    terms = tuple(
        (Exponent._of(tuple(Fraction(k, grid) for k in e)),
         Coefficient.const(c) if plain else c)
        for e, c in sorted(out.items())
        if (c if plain else not c.is_zero())
    )
    return TruncatedSeries._of(terms, prec)
