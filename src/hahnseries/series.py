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
from math import factorial, gcd, lcm
from operator import add, sub

from .coeffs import INFINITE, Coefficient, Place, apply_place, as_coefficient
from .errors import (
    NotInValuationRingError,
    PrecisionError,
    PreconditionError,
    RankMismatchError,
)
from .exponents import Exponent, Record, as_exponent

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
        return TruncatedSeries._of(_merge(self.terms, other.terms, prec), prec)

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
        other.prec + self.v_floor()): one _lift, the kernel _mul, one _drop.
        """
        other = self._coerce(other)
        grid, (a, b) = _lift(self, other)
        return _drop(_mul(a, b), grid)

    __rmul__ = __mul__

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse; f * f.inv() = 1 to precision prec - v_min.
        One lift, with the leading coefficient folded into it (see _inv)."""
        grid, (x,) = _lift(self)
        return _drop(_inv(x), grid)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def specialize(self, place: Place) -> "TruncatedSeries":
        """Apply a place to every coefficient; same precision.  Exponents
        and their order are unchanged, so the images are wrapped as they
        are, less those that vanish."""
        out = []
        for e, c in self.terms:
            image = apply_place(c, place)
            if image is INFINITE:
                raise NotInValuationRingError(
                    f"coefficient at t^{e} has a pole under {place}"
                )
            if not image.is_zero():
                out.append((e, image))
        return TruncatedSeries._of(tuple(out), self.prec)

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
    """Horner evaluation of a series polynomial at a series: acc * f + c
    per coefficient, each step with the precision of those operations, on
    one lift (see _horner).  A scalar coefficient counts as a series at
    f's precision."""
    coeffs = q.coeffs if isinstance(q, SeriesPolynomial) else tuple(q)
    if not coeffs:
        return TruncatedSeries.zero(f.prec)
    grid, (*cs, x) = _lift_poly(coeffs, f)
    return _drop(_horner(cs, x), grid)


def first_order(x: TruncatedSeries, lam, q, mu) -> TruncatedSeries:
    """g = F(x) for an infinitesimal x, truncated at x.prec, where F solves
    (1 + lam*X) * F' = q*F + mu with F(0) = 1 - mu, for rationals lam, q
    and mu.

    Let j be the archimedean class of v_min(x).  The derivation
    theta(t^e) = e_j * t^e turns the equation into
    (1 + lam*X) * theta(g) = (q*g + mu) * theta(x), so each coefficient of
    g is one convolution over supp(x) (J. C. P. Miller's recurrence):

        e_j g_e = mu e_j x_e + sum_b (q b_j - lam (e - b)_j) x_b g_(e-b).

    g lives on the monoid that supp(x) generates, cut at prec, taken in
    increasing order.  That set is finite exactly when some integer
    multiple of the valuation reaches the precision; at rank > 1 it may
    not, and the call refuses.  Every e of the set has the zero prefix of
    v_min(x) before j, so e_j >= v_j > 0.  The recurrence runs unchanged
    on index tuples of the grid 1/L (see _Lift): L scales e_j and weights.

    Over Q it runs on integers.  With x_b = X_b/D (see _Lift), c the
    common denominator of lam, q and mu, s = c*D and M the largest e_j of
    the monoid, the loop keeps G_e = N_e g_e for N_e = s^(e_j) c M!, an
    integer: by induction on e, g_e s^(e_j) c e_j! is one.  Then

        e_j G_e = (c mu) e_j X_e s^(e_j - 1) c M!
                  + sum_b ((c q) b_j - (c lam) (e - b)_j) X_b s^(b_j - 1) G_(e-b),

    so the term for b is a small integer weight times Y_b = X_b s^(b_j - 1),
    fixed per b, times G_(e-b).  The sum is divided exactly by e_j, and
    the result is G_e s^(M - e_j) over the one denominator s^M N_0.  When
    q = -lam every weight is a multiple of e_j and M! is replaced by 1.
    Scaling by e_j! instead of M! puts the falling factorial
    (e_j - 1)!/(e_j - b_j)! in every pair's weight; on dense series of 256
    terms that measured 11-17% slower for exp, log and powers, and equal
    at 16 terms.

    The scale s^M stands for the largest denominator the coefficients of g
    can need.  When M*floor(log2(s)) exceeds INT_BITS it outgrows them
    (large or coprime denominators: at 64 terms of x with coefficients
    1/k!, exp on integers took 59 ms against 22 ms on Fractions), and the
    loop runs on the Fractions themselves, as it does on Coefficients for
    a coefficient outside Q; both with s = c = 1 and M! replaced by 1, so
    N_e = 1.
    """
    grid, (xs,) = _lift(x)
    if not xs.prec > (0,) * x.rank:
        raise PreconditionError("argument precision must exceed 0")
    if x.terms and not next(iter(xs.terms)) > (0,) * x.rank:
        raise PreconditionError(f"v_min must be positive, got {x.terms[0][0]}")
    return _drop(_first_order(xs, lam, q, mu), grid)


def _monoid_below(gens, zero, prec):
    """0 and the sums of elements of gens below prec, in increasing order.

    gens are positive index tuples in increasing order, on the grid of zero
    and prec; the set must be finite (the caller checks with _reach_class).
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


def _merge(a, b, prec):
    """The sum of two increasing term tuples below prec, as one increasing
    tuple: a merge, where equal exponents add and a zero sum drops out."""
    a, b = _below(a, prec), _below(b, prec)
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
    return tuple(out) + a[i:] + b[j:]


# ---------------------------------------------------------------------------
# Kernels on lifted series: a public call lifts its series once (_lift), runs
# the kernels on the lifted values and wraps its result once (_drop).


class _Lift:
    """A series as the kernels hold it, on the grid 1/L of one call (every
    exponent a kernel forms is a sum or difference of the inputs', so it
    stays on their grid; see _lift).

    terms maps the index tuples of the support, in increasing order, to
    nonzero values: integer numerators over den when den is an int (of
    either sign: a negative one divides and reduces alike), else
    (den None) the coefficients themselves, Fractions over Q and
    Coefficients outside it.  prec is the precision's index tuple.  A
    kernel puts rational values on integers when their scale fits INT_BITS
    (see _as), and after each product and sum divides den and the
    numerators by their gcd (see _result); past INT_BITS the same kernels
    run on the Fractions.
    """

    __slots__ = ("den", "terms", "prec")

    def __init__(self, den, terms, prec):
        self.den = den
        self.terms = terms
        self.prec = prec


def _indices(e, grid):
    """The integer index tuple of e on the grid 1/grid."""
    return tuple([q.numerator * (grid // q.denominator) for q in e.coords])


def _exponent(e, grid):
    """The Exponent of the index tuple e on the grid 1/grid."""
    return Exponent._of(tuple(Fraction(i, grid) for i in e))


def _lift(*series):
    """The kernels' entry: the least grid 1/L holding every exponent and
    precision of series, and each series as a _Lift on it, its values the
    Fractions of its coefficients if all of series are rational, else the
    Coefficients.  Every exponent and precision a kernel forms from them is
    a sum or difference of theirs, so it lies on the same grid, where index
    tuples add, subtract and compare as the exponents do."""
    exps = [f.prec for f in series] + [e for f in series for e, _ in f.terms]
    grid = lcm(*{q.denominator for e in exps for q in e.coords})
    values = [[c._value() for _, c in f.terms] for f in series]
    plain = all(v is not None for vs in values for v in vs)
    return grid, [
        _Lift(None, {_indices(e, grid): v if plain else c for (e, c), v in zip(f.terms, vs)},
              _indices(f.prec, grid))
        for f, vs in zip(series, values)
    ]


def _lift_poly(coeffs, f):
    """_lift for Horner's rule: the coefficients and f, ranks checked, each
    on integers where it fits (see _ints)."""
    grid, lifted = _lift(*map(f._coerce, coeffs), f)
    return grid, [_ints(x) for x in lifted]


def _v_min(x, grid):
    """The v_min of the series x stands for."""
    return _exponent(next(iter(x.terms)), grid) if x.terms else AtLeast(_exponent(x.prec, grid))


def _drop(x, grid):
    """The kernels' exit: x as a series, each term wrapped once."""
    if x.den is not None:
        d = x.den
        kept = ((e, Coefficient.const(Fraction(k, d))) for e, k in x.terms.items())
    else:
        kept = ((e, Coefficient.const(v) if type(v) is Fraction else v) for e, v in x.terms.items())
    terms = tuple((Exponent._of(tuple(Fraction(i, grid) for i in e)), c) for e, c in kept)
    return TruncatedSeries._of(terms, _exponent(x.prec, grid))


def _den(x):
    """x's denominator: den on integers, the lcm of the denominators of its
    Fractions, or None outside Q."""
    if x.den is not None:
        return x.den
    ds = [v.denominator for v in x.terms.values() if type(v) is Fraction]
    return lcm(*ds) if len(ds) == len(x.terms) else None


def _as(x, d, ints):
    """x on integer numerators over d, its denominator, if ints; else on
    exact values."""
    if ints:
        return x if x.den is not None else _numerators(x, d)
    if x.den is None:
        return x
    return _Lift(None, {e: Fraction(k, x.den) for e, k in x.terms.items()}, x.prec)


def _ints(x):
    """x on integer numerators if it is rational and its denominator fits
    INT_BITS."""
    d = _den(x)
    return _as(x, d, d is not None and d.bit_length() - 1 <= INT_BITS)


def _numerators(x, d):
    """x, on Fractions, as integer numerators over their common denominator d."""
    return _Lift(d, {e: v.numerator * (d // v.denominator) for e, v in x.terms.items()}, x.prec)


def _result(den, out, prec):
    """out, a dict from index tuples, as a _Lift: the nonzero terms in
    increasing order, over den if it is an int.  The gcd of den and the
    numerators is divided out, so the integers stay about the size of the
    denominators they stand for."""
    items = sorted(out.items())
    if den is None:
        return _Lift(None, {e: v for e, v in items
                            if (not v.is_zero() if type(v) is Coefficient else v)}, prec)
    out = {e: k for e, k in items if k}
    g = gcd(den, *out.values())
    if g > 1:
        den //= g
        out = {e: k // g for e, k in out.items()}
    return _Lift(den, out, prec)


def _mul(a, b):
    """a*b, known below prec = min(a.prec + v(b), b.prec + v(a)), v the
    least index or else the precision.

    The lexicographic order is a group order, so e1 + e2 < prec exactly
    when e2 < prec - e1.  Both term lists increase strictly: the first e2
    at or past prec - e1 ends the row, as every later e2 is cut too, and a
    row whose first pair is cut ends the product, as every later e1 is
    larger.  Rational values run as integer numerators over D1*D2.  When
    log2(D1*D2) exceeds INT_BITS the numerators outgrow the coefficients
    they stand for (large coprime denominators), and the loop runs on the
    Fractions themselves.

    At rank 1, two such integer lists of at least KRONECKER_TERMS terms
    each, filling at least 1/DENSITY of their index ranges, are multiplied
    by Kronecker substitution instead (see _kronecker): one big-integer
    product in place of the double loop.  The cut-over is measured on
    whole products (Python 3.11, 2 cores): two dense factors of n terms on
    one grid take 78/76 us by the loop/packed at n = 8, 162/128 us at
    n = 16 and 424/235 us at n = 32; at a quarter of the density, or with
    the cut at n/2, the two meet at n = 16.
    """
    va, vb = next(iter(a.terms), a.prec), next(iter(b.terms), b.prec)
    cut = min(tuple(map(add, a.prec, vb)), tuple(map(add, b.prec, va)))
    da, db = _den(a), _den(b)
    den = da * db if da is not None and db is not None else None
    ints = den is not None and den.bit_length() - 1 <= INT_BITS
    lhs, rhs = list(_as(a, da, ints).terms.items()), list(_as(b, db, ints).terms.items())
    if ints and len(cut) == 1 and _packable(lhs) and _packable(rhs):
        return _result(den, _kronecker(lhs, rhs, cut[0]), cut)
    out = {}
    for e1, c1 in lhs:
        room = tuple(map(sub, cut, e1))
        if not rhs or not rhs[0][0] < room:
            break
        for e2, c2 in rhs:
            if not e2 < room:
                break
            e = tuple(map(add, e1, e2))
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    return _result(den if ints else None, out, cut)


def _add(a, b, prec, sign=1):
    """a + sign*b for sign = 1 or -1, cut at prec: a merge, on integer
    numerators over lcm(D1, D2) while it fits INT_BITS."""
    da, db = _den(a), _den(b)
    den = lcm(da, db) if da is not None and db is not None else None
    ints = den is not None and den.bit_length() - 1 <= INT_BITS
    a, b = _as(a, da, ints), _as(b, db, ints)
    ka, kb = (den // da, sign * den // db) if ints else (1, sign)
    out = {e: v if ka == 1 else v * ka for e, v in a.terms.items() if e < prec}
    for e, v in b.terms.items():
        if not e < prec:
            break
        v = v if kb == 1 else v * kb
        s = out.get(e)
        out[e] = v if s is None else s + v
    return _result(den if ints else None, out, prec)


def _truncate(x, prec):
    """x cut at prec, or at its own precision if that is lower."""
    prec = min(prec, x.prec)
    return _Lift(x.den, {e: v for e, v in x.terms.items() if e < prec}, prec)


def _horner(coeffs, x):
    """Horner's rule on lifted values: acc -> acc*x + c, from the leading
    coefficient down, each sum at the lesser precision of its terms."""
    if not coeffs:
        return _Lift(1, {}, x.prec)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = _mul(acc, x)
        acc = _add(acc, c, min(acc.prec, c.prec))
    return acc


def _inv(x):
    """1/x for a lifted x, known to x.prec - v: its leading coefficient c0
    folded into the lift.

    With v the valuation, u = x/(c0 t^v) - 1 is infinitesimal and
    1/x = t^(-v) g/c0 for g = 1/(1 + u), first_order's solution with
    lam = 1, q = -1 and mu = 0.  On integers, with c0 = A0/D, u has x's
    numerators past the leading one over A0, and 1/x has g's numerators
    times D over g's denominator times A0: no term is scaled by 1/c0 on
    its own.
    """
    if not x.terms:
        raise PreconditionError("cannot invert a series that is zero at precision")
    x = _ints(x)
    items = iter(x.terms.items())
    v, a0 = next(items)
    prec = tuple(map(sub, x.prec, v))
    if x.den is not None:
        u = _result(a0, {tuple(map(sub, e, v)): k for e, k in items}, prec)
    else:
        c = 1 / a0
        u = _Lift(None, {tuple(map(sub, e, v)): k * c for e, k in items}, prec)
    g = _first_order(u, 1, -1, 0)
    prec = tuple(map(sub, prec, v))
    if x.den is not None and g.den is not None:
        out = {tuple(map(sub, e, v)): k * x.den for e, k in g.terms.items()}
        return _result(g.den * a0, out, prec)
    c = 1 / a0 if x.den is None else Fraction(x.den, a0)
    g = _as(g, None, False)
    return _Lift(None, {tuple(map(sub, e, v)): k * c for e, k in g.terms.items()}, prec)


def _reach_class(step, prec):
    """The first nonzero coordinate j of the index tuple step > 0, or None
    when no integer multiple of step reaches prec (see
    exponents.reach_count): n*step is 0 before j, so a positive prec that
    is nonzero before j is out of reach, and any other prec is reached."""
    j = next(i for i, k in enumerate(step) if k)
    return j if not any(prec[:j]) or prec <= (0,) * len(prec) else None


def _first_order(x, lam, q, mu):
    """first_order's recurrence on a lifted infinitesimal x of positive
    precision (see first_order)."""
    j = _reach_class(next(iter(x.terms), x.prec), x.prec)
    if j is None:
        raise PrecisionError("precision unreachable by integer multiples of the valuation")
    support = _monoid_below(list(x.terms), (0,) * len(x.prec), x.prec)
    c = lcm(*(Fraction(k).denominator for k in (lam, q, mu)))
    m = max(e[j] for e in support)
    d = _den(x)
    ints = d is not None and m * ((c * d).bit_length() - 1) <= INT_BITS
    x = _as(x, d, ints)
    if ints:
        scale = [1]
        for _ in range(m):
            scale.append(scale[-1] * c * d)  # scale[k] = s^k
        # q = -lam makes every weight a multiple of e_j: then 1 serves for M!
        one = factorial(m) if q + lam else 1
        n0 = c * one  # N_0, and N_e = s^(e_j) N_0
        lam, q, mu = int(lam * c), int(q * c), int(mu * c)
        ys = [(b, xb * scale[b[j] - 1]) for b, xb in x.terms.items()]
    else:
        c, n0, ys = 1, 1, list(x.terms.items())
        one = Fraction(1) if d is not None else Coefficient.one()
    xe = dict(ys)
    g = {support[0]: one * (c - mu)} if mu != c else {}  # G_0 = (1 - mu) N_0
    for e in support[1:]:
        ej = e[j]
        acc = None
        for b, yb in ys:
            if b > e:
                break
            gd = g.get(tuple(map(sub, e, b)))
            if gd is None:
                continue
            w = q * b[j] - lam * (ej - b[j])
            if w:
                p = yb * w * gd
                acc = p if acc is None else acc + p
        if acc is not None:
            acc = acc // ej if ints else acc * Fraction(1, ej)
        if mu and e in xe:
            p = xe[e] * (mu * n0)
            acc = p if acc is None else acc + p
        if acc is not None and (acc if d is not None else not acc.is_zero()):
            g[e] = acc
    if ints:  # g increases and its values are nonzero
        g = {e: k * scale[m - e[j]] for e, k in g.items()}
    return _Lift(scale[m] * n0 if ints else None, g, x.prec)


# Rational kernels run on integer numerators while the base-2 logarithm of
# their scale, D1*D2 for a product, lcm(D1, D2) for a sum and s^M for
# first_order, is at most INT_BITS.  On dense series of 16 to 128 terms
# with denominators from 1..6 up to 20 digits (Python 3.11), integers were
# faster up to 3315 (products) and 5696 (first_order), and slower from 7738
# and 16112.
INT_BITS = 4096

# Rank-1 integer term lists of at least KRONECKER_TERMS terms, filling at
# least 1/DENSITY of the slots from the first index to the last, are
# multiplied by Kronecker substitution (see _mul).
KRONECKER_TERMS = 16
DENSITY = 4


def _packable(terms):
    return len(terms) >= KRONECKER_TERMS and (
        terms[-1][0][0] - terms[0][0][0] < DENSITY * len(terms)
    )


def _kronecker(lhs, rhs, cut):
    """{(k,): numerator} of the product of two increasing rank-1 lists of
    (index tuple, int) below the index cut, by Kronecker substitution
    (Harvey, J. Symb. Comput. 44, 2009).

    Each list, shifted to start at slot 0 and cut to the m slots that can
    land below cut, is packed into one integer with w bytes per slot.  A
    slot of the product is a signed sum of at most min(n1, n2) products,
    which w bytes hold with the top bit to spare.  Adding half = 256^w / 2
    to every slot makes each one a nonnegative w-byte string, so packing
    writes one slice of a byte buffer per term and subtracts the offset,
    and unpacking adds the offset to the product and reads one slice per
    slot: the offset absorbs the signed borrows between slots.
    """
    a0, b0 = lhs[0][0][0], rhs[0][0][0]
    m = cut - a0 - b0
    lhs = [(a - a0, v) for (a,), v in lhs if a - a0 < m]
    rhs = [(b - b0, v) for (b,), v in rhs if b - b0 < m]
    if not lhs or not rhs:
        return {}
    bits = (max(abs(v) for _, v in lhs).bit_length()
            + max(abs(v) for _, v in rhs).bit_length()
            + min(len(lhs), len(rhs)).bit_length())
    w = bits // 8 + 1  # |slot| < 2^bits <= half
    half = 1 << (8 * w - 1)
    slot = bytes(w - 1) + b"\x80"  # half, little-endian

    def pack(terms):
        n = terms[-1][0] + 1
        buf = bytearray(slot * n)
        for i, v in terms:
            buf[i * w:(i + 1) * w] = (v + half).to_bytes(w, "little")
        return int.from_bytes(buf, "little") - int.from_bytes(slot * n, "little")

    m = min(m, lhs[-1][0] + rhs[-1][0] + 1)
    low = (pack(lhs) * pack(rhs) + int.from_bytes(slot * m, "little")) & ((1 << (8 * w * m)) - 1)
    raw = low.to_bytes(w * m, "little")
    out = {}
    for k in range(m):
        v = int.from_bytes(raw[k * w:(k + 1) * w], "little") - half
        if v:
            out[(a0 + b0 + k,)] = v
    return out
