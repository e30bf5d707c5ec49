"""Truncated generalized power series with precision tracking.

A series is a finite, strictly increasing list of (exponent, coefficient)
terms together with a precision bound tau: the element is known modulo
terms of exponent >= tau.  The minimal-support valuation v_min is the
least exponent of the support; for a series with no stored terms it is
only known to be >= tau, which the distinguished value AtLeast(tau)
records.  All ring operations attach the weakest correct precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffs import INFINITE, Coefficient, Place, apply_place, as_coefficient
from .errors import (
    NotInValuationRingError,
    PrecisionError,
    PreconditionError,
    RankMismatchError,
)
from .exponents import Exponent, as_exponent, reach_count

__all__ = [
    "TruncatedSeries",
    "SeriesPolynomial",
    "AtLeast",
    "v_min",
    "phi_P",
    "split_neg",
    "residue",
    "eval_poly",
    "specialize_poly",
]


@dataclass(frozen=True)
class AtLeast:
    """Valuation known only to be >= bound (possibly infinite)."""

    bound: Exponent

    def __str__(self):
        return f">= {self.bound} (unknown)"


class TruncatedSeries:
    """Finite sorted term list plus a precision exponent."""

    __slots__ = ("terms", "prec", "_index")

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
        self._index = dict(kept)

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
        return self._index.get(e, Coefficient.zero())

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
        prec = as_exponent(prec, self.rank)
        return TruncatedSeries(self.terms, min(prec, self.prec))

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        merged = dict(self.terms)
        for e, c in other.terms:
            s = merged.get(e, Coefficient.zero()) + c
            merged[e] = s
        return TruncatedSeries(merged, prec)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        out = TruncatedSeries.zero(self.prec)
        out.terms = tuple((e, -c) for e, c in self.terms)
        out._index = dict(out.terms)
        return out

    def scalar_mul(self, c) -> "TruncatedSeries":
        """Multiply by an exact coefficient; precision is unchanged."""
        c = as_coefficient(c)
        if c.is_zero():
            return TruncatedSeries.zero(self.prec)
        out = TruncatedSeries.zero(self.prec)
        out.terms = tuple((e, k * c) for e, k in self.terms)
        out._index = dict(out.terms)
        return out

    def shift_scale(self, c, e) -> "TruncatedSeries":
        """Multiply by the exact monomial c * t^e (c != 0); lossless."""
        c = as_coefficient(c)
        if c.is_zero():
            raise ValueError("shift_scale requires a nonzero coefficient")
        e = as_exponent(e, self.rank)
        return TruncatedSeries(
            [(g + e, k * c) for g, k in self.terms], self.prec + e
        )

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
        other = self._coerce(other)
        prec = min(self.prec + other.v_floor(), other.prec + self.v_floor())
        out = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if not e < prec:
                    continue
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return TruncatedSeries(out, prec)

    __rmul__ = __mul__

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse; f * f.inv() = 1 to precision prec - v_min."""
        if not self.terms:
            raise PreconditionError("cannot invert a series that is zero at precision")
        v = self.terms[0][0]
        c0 = self.terms[0][1]
        # u = 1 + delta with v_min(delta) > 0, known modulo prec - v
        unit = self.shift_scale(Coefficient.one() / c0, -v)
        delta = unit - TruncatedSeries.one(unit.prec)
        if delta.terms:
            n = reach_count(delta.v_floor(), unit.prec)
            if n is None:
                raise PrecisionError(
                    "inverse needs infinitely many terms below the precision bound"
                )
            inv_unit = TruncatedSeries.one(unit.prec)
            power = TruncatedSeries.one(unit.prec)
            for _ in range(1, n):
                power = power * (-delta)
                inv_unit = inv_unit + power
        else:
            inv_unit = TruncatedSeries.one(unit.prec)
        return inv_unit.shift_scale(Coefficient.one() / c0, -v)

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
        neg = [(e, c) for e, c in self.terms if e < self._zero_exp()]
        ring = [(e, c) for e, c in self.terms if not e < self._zero_exp()]
        ring_prec = max(self.prec, self._zero_exp())
        return (
            TruncatedSeries(neg, self.prec),
            TruncatedSeries(ring, ring_prec),
        )

    def residue(self) -> Coefficient:
        """Coefficient at exponent 0; requires v_min >= 0 and prec > 0."""
        zero = self._zero_exp()
        if self.terms and self.terms[0][0] < zero:
            raise NotInValuationRingError(
                f"negative valuation {self.terms[0][0]}"
            )
        if not self.prec > zero:
            raise PrecisionError("precision too low to read the residue")
        return self._index.get(zero, Coefficient.zero())

    def agrees_with(self, other) -> bool:
        """Equality to the shared precision min(prec, other.prec)."""
        other = self._coerce(other)
        p = min(self.prec, other.prec)
        mine = tuple((e, c) for e, c in self.terms if e < p)
        theirs = tuple((e, c) for e, c in other.terms if e < p)
        return mine == theirs

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
    zero = e.scale(0)
    simple = (
        c.den.is_const()
        and c.den.const_value() == 1
        and len(c.num.terms) == 1
    )
    sign = ""
    body = None
    if simple:
        mono, q = next(iter(c.num.terms.items()))
        if q < 0:
            sign = "-"
            q = -q
        mono_txt = "*".join(f"a{v}^{p}" if p > 1 else f"a{v}" for v, p in mono)
        if e == zero:
            body = mono_txt if q == 1 and mono_txt else (
                f"{q}*{mono_txt}" if mono_txt else str(q)
            )
        else:
            t = _t_power(e)
            if q == 1 and not mono_txt:
                body = t
            elif mono_txt:
                qtxt = "" if q == 1 else f"{q}*"
                body = f"{qtxt}{mono_txt}*{t}"
            else:
                body = f"{q}*{t}"
    else:
        txt = str(c)
        if e == zero:
            body = txt
        else:
            body = f"({txt})*{_t_power(e)}"
    if first:
        return f"{sign}{body}"
    return f"{'-' if sign else '+'} {body}"


class SeriesPolynomial:
    """Polynomial in one unknown with truncated-series coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [c for c in coeffs]
        while coeffs and coeffs[-1].is_zero_at_prec():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "SeriesPolynomial":
        return SeriesPolynomial(
            [c.scalar_mul(i) for i, c in enumerate(self.coeffs)][1:]
        )

    def map_coeffs(self, fn) -> "SeriesPolynomial":
        return SeriesPolynomial([fn(c) for c in self.coeffs])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            if i >= len(self.coeffs):
                out.append(other.coeffs[i])
            elif i >= len(other.coeffs):
                out.append(self.coeffs[i])
            else:
                out.append(self.coeffs[i] + other.coeffs[i])
        return SeriesPolynomial(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SeriesPolynomial":
        return SeriesPolynomial([s.scalar_mul(c) for s in self.coeffs])

    def mul_series(self, s: TruncatedSeries) -> "SeriesPolynomial":
        return SeriesPolynomial([c * s for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return SeriesPolynomial([])
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        return SeriesPolynomial([c for c in out if c is not None])

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


def v_min(f: TruncatedSeries):
    return f.v_min()


def phi_P(f: TruncatedSeries, place: Place) -> TruncatedSeries:
    """Coefficientwise place application (requires every coefficient finite)."""
    return f.specialize(place)


def specialize_poly(q: SeriesPolynomial, place: Place) -> SeriesPolynomial:
    return q.map_coeffs(lambda c: c.specialize(place))


def split_neg(f: TruncatedSeries):
    return f.split_neg()


def residue(f: TruncatedSeries) -> Coefficient:
    return f.residue()


def eval_poly(q, f: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of a series polynomial at a series."""
    coeffs = q.coeffs if isinstance(q, SeriesPolynomial) else tuple(q)
    if not coeffs:
        return TruncatedSeries.zero(f.prec)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * f + c
    return acc
