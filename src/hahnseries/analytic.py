"""Restricted exp/log on infinitesimals, Hensel lifting, Newton-Puiseux
expansion, and rational reconstruction.

exp and log are the truncations of the usual characteristic-zero series
sum(x^i/i!) and sum((-1)^(i+1) x^i / i); they are defined exactly when
finitely many terms reach the precision bound, i.e. when some integer
multiple of the argument's valuation dominates the precision.  In a
lexicographic exponent group of rank > 1 that can fail, and the
operations refuse rather than return silently wrong output.

Hensel lifting iterates the fixed-slope contraction x -> x - Q(x)/Q'(r)
from a residue-simple approximate root; the residual valuation strictly
increases each step.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .coeffs import Coefficient, as_coefficient
from .errors import PrecisionError, PreconditionError
from .exponents import Exponent, as_exponent, reach_count
from .linalg import kernel_vector, rref
from .series import SeriesPolynomial, TruncatedSeries, eval_poly

__all__ = [
    "OneUnit",
    "exp",
    "log",
    "unit_pow",
    "hensel_lift",
    "track_denominators",
    "newton_puiseux",
    "rational_reconstruct",
    "verify_root",
]


class OneUnit:
    """A series 1 + delta with v_min(delta) > 0: a multiplicative 1-unit."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        zero = series.prec.scale(0)
        if not series.prec > zero:
            raise PreconditionError("a 1-unit needs positive precision")
        if not series.terms or series.terms[0][0] != zero:
            raise PreconditionError("residue of a 1-unit must be 1")
        if series.terms[0][1] != Coefficient.one():
            raise PreconditionError("residue of a 1-unit must be 1")
        self.series = series

    def delta(self) -> TruncatedSeries:
        return self.series - TruncatedSeries.one(self.series.prec)

    def weight(self):
        """w(u) = v_min(1 - u)."""
        return self.delta().v_min()

    def __mul__(self, other):
        if isinstance(other, OneUnit):
            other = other.series
        return OneUnit(self.series * other)

    def inv(self) -> "OneUnit":
        return OneUnit(self.series.inv())

    def __truediv__(self, other):
        if isinstance(other, OneUnit):
            other = other.series
        return OneUnit(self.series / other)

    def agrees_with(self, other) -> bool:
        other = other.series if isinstance(other, OneUnit) else other
        return self.series.agrees_with(other)

    def __eq__(self, other):
        if not isinstance(other, OneUnit):
            return NotImplemented
        return self.series == other.series

    def __str__(self):
        return str(self.series)

    def __repr__(self):
        return f"OneUnit({self.series})"


def _check_infinitesimal(eps: TruncatedSeries) -> None:
    zero = eps.prec.scale(0)
    if not eps.prec > zero:
        raise PreconditionError("argument precision must exceed 0")
    if eps.terms and not eps.terms[0][0] > zero:
        raise PreconditionError(
            f"v_min must be positive, got {eps.terms[0][0]}"
        )


def _sum_terms(eps: TruncatedSeries) -> int:
    """Terms needed so the first omitted one has valuation >= prec."""
    n = reach_count(eps.v_floor(), eps.prec)
    if n is None:
        raise PrecisionError(
            "precision unreachable by integer multiples of the valuation"
        )
    return max(n, 1)


def exp(eps: TruncatedSeries) -> OneUnit:
    """exp(eps) = sum(eps^i / i!) truncated at the precision bound."""
    _check_infinitesimal(eps)
    n = _sum_terms(eps)
    acc = TruncatedSeries.one(eps.prec)
    power = TruncatedSeries.one(eps.prec)
    for i in range(1, n):
        power = power * eps
        acc = acc + power.scalar_mul(Fraction(1, factorial(i)))
    return OneUnit(acc)


def log(u: OneUnit) -> TruncatedSeries:
    """log(1 + delta) = sum((-1)^(i+1) delta^i / i), inverse of exp."""
    delta = u.delta()
    n = _sum_terms(delta)
    acc = TruncatedSeries.zero(delta.prec)
    power = TruncatedSeries.one(delta.prec)
    for i in range(1, n):
        power = power * delta
        acc = acc + power.scalar_mul(Fraction((-1) ** (i + 1), i))
    return acc


def unit_pow(u: OneUnit, q) -> OneUnit:
    """u^q for rational q, realized as exp(q * log u)."""
    q = q if isinstance(q, Fraction) else Fraction(q)
    if q == 0:
        return OneUnit(TruncatedSeries.one(u.series.prec))
    return exp(log(u).scalar_mul(q))


def hensel_lift(
    q: SeriesPolynomial,
    r: TruncatedSeries,
    max_steps: int = 10_000,
    with_trace: bool = False,
):
    """Refine r to a root of q, assuming v(q(r)) > 0 and v(q'(r)) = 0.

    Iterates x -> x - q(x)/q'(r) until the residual vanishes at working
    precision.  Returns the root, or (root, residual trace) when
    with_trace is set.
    """
    zero = r.prec.scale(0)
    slope = eval_poly(q.derivative(), r)
    if not slope.terms or slope.terms[0][0] != zero:
        raise PreconditionError(
            f"v_min(Q'(r)) = {slope.v_min()} is not zero"
        )
    res = eval_poly(q, r)
    if res.terms and not res.terms[0][0] > zero:
        raise PreconditionError(
            f"v_min(Q(r)) = {res.terms[0][0]} is not positive"
        )
    if res.terms and reach_count(res.terms[0][0], r.prec) is None:
        raise PrecisionError(
            "precision unreachable from the initial residual valuation"
        )
    slope_inv = slope.inv()
    x = r
    trace = [res.v_min()]
    steps = 0
    while res.terms:
        if steps >= max_steps:
            raise PrecisionError(f"no convergence within {max_steps} steps")
        x = x - res * slope_inv
        new_res = eval_poly(q, x)
        if new_res.terms and not new_res.terms[0][0] > res.terms[0][0]:
            raise PrecisionError("residual valuation failed to increase")
        res = new_res
        trace.append(res.v_min())
        steps += 1
    if with_trace:
        return x, trace
    return x


def _prime_factors(n: int):
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return out


def track_denominators(q: SeriesPolynomial, r: TruncatedSeries):
    """Primes dividing any coefficient denominator of the lifted root.

    Only defined when every coefficient of q and r is a rational
    constant; the output is contained in the primes dividing the
    residue of q'(r) or any input denominator.
    """
    for coeff_series in (*q.coeffs, r):
        for _, c in coeff_series.terms:
            if not c.is_const():
                raise PreconditionError(
                    "unsupported: coefficients must be rational constants"
                )
    root = hensel_lift(q, r)
    primes = set()
    for _, c in root.terms:
        primes |= _prime_factors(c.as_fraction().denominator)
    return primes


def verify_root(q: SeriesPolynomial, f: TruncatedSeries):
    """Valuation of the residual q(f), exact or AtLeast the residual precision."""
    return eval_poly(q, f).v_min()


# ---------------------------------------------------------------------------
# Newton-Puiseux expansion


def _lower_hull(points):
    """Lower convex hull of (i, v) points with i strictly increasing."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep turn strictly convex; drop points above or on the chord
            if (x2 - x1) * (p[1] - y1) <= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _edges(points):
    hull = _lower_hull(points)
    out = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        mu = (v1 - v2).scale(Fraction(1, i2 - i1))
        out.append((mu, i1, i2))
    return out


def _initial_form_roots(psi):
    """Roots with multiplicity of a coefficient-field polynomial of deg <= 2."""
    deg = len(psi) - 1
    while deg >= 0 and psi[deg].is_zero():
        deg -= 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-psi[0] / psi[1], 1)]
    if deg == 2:
        a, b, c = psi[2], psi[1], psi[0]
        disc = b * b - 4 * a * c
        if disc.is_zero():
            return [(-b / (2 * a), 2)]
        root = _coefficient_sqrt(disc)
        if root is None:
            raise PreconditionError(
                f"initial form has no rational root in the transcendentals: "
                f"({psi[2]})*c^2 + ({psi[1]})*c + ({psi[0]})"
            )
        return [((-b + root) / (2 * a), 1), ((-b - root) / (2 * a), 1)]
    raise PreconditionError(
        f"initial form of degree {deg} exceeds the quadratic solver"
    )


def _coefficient_sqrt(c: Coefficient):
    from .polynomials import poly_sqrt

    rn = poly_sqrt(c.num)
    if rn is None:
        return None
    rd = poly_sqrt(c.den)
    if rd is None:
        return None
    return Coefficient(rn, rd)


def _shift_poly(q: SeriesPolynomial, c: Coefficient, mu: Exponent):
    """Coefficients of q(c*t^mu + y)."""
    from math import comb

    coeffs = q.coeffs
    d = len(coeffs) - 1
    out = []
    for j in range(d + 1):
        acc = None
        for i in range(j, d + 1):
            factor = as_coefficient(comb(i, j)) * c ** (i - j)
            term = coeffs[i].shift_scale(factor, mu.scale(i - j))
            acc = term if acc is None else acc + term
        out.append(acc)
    return SeriesPolynomial(out)


def _resultant(a: SeriesPolynomial, b: SeriesPolynomial) -> TruncatedSeries:
    """Sylvester resultant with series entries, by cofactor expansion."""
    m, n = a.degree, b.degree
    size = m + n
    # absent Sylvester entries are exact zeros; give them a precision so
    # large that they never bound the precision of any cofactor product
    span = Fraction(1)
    for cf in (*a.coeffs, *b.coeffs):
        span += abs(cf.prec.coords[0]) + abs(cf.v_floor().coords[0])
    zero = TruncatedSeries.zero(span * size)
    rows = []
    for sh in range(n):
        row = [zero] * size
        for k, cf in enumerate(a.coeffs):
            row[sh + (m - k)] = cf
        rows.append(row)
    for sh in range(m):
        row = [zero] * size
        for k, cf in enumerate(b.coeffs):
            row[sh + (n - k)] = cf
        rows.append(row)

    def det(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        acc = None
        for i in range(k):
            entry = mat[i][0]
            if not entry.terms:
                continue
            minor = [row[1:] for j, row in enumerate(mat) if j != i]
            term = entry * det(minor)
            if i % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc if acc is not None else zero

    return det(rows)


def _check_squarefree(q: SeriesPolynomial) -> None:
    if q.degree <= 1 or q.degree > 6:
        return
    res = _resultant(q, q.derivative())
    if not res.terms:
        raise PreconditionError(
            "polynomial is not squarefree at the working precision"
        )


def newton_puiseux(
    q: SeriesPolynomial,
    prec,
    branch_count=None,
    max_steps: int = 2_000,
):
    """Fractional-exponent series roots of q via the Newton polygon.

    Restricted to rank-1 exponents and to initial forms of degree <= 2
    whose discriminant is a perfect square in the coefficient field.
    """
    prec = as_exponent(prec)
    if prec.rank != 1:
        raise PreconditionError("expansion requires rank-1 exponents")
    if q.degree < 1:
        raise PreconditionError("polynomial must have positive degree")
    _check_squarefree(q)
    budget = [max_steps]

    def expand(poly, mu_lower):
        if budget[0] <= 0:
            raise PrecisionError("expansion step budget exhausted")
        budget[0] -= 1
        coeffs = poly.coeffs
        out = []
        zero_tail = False
        if not coeffs or coeffs[0].is_zero_at_prec():
            out.append({})
            zero_tail = True
        points = [
            (i, cf.terms[0][0]) for i, cf in enumerate(coeffs) if cf.terms
        ]
        values = dict(points)
        for mu, i1, i2 in _edges(points):
            if mu_lower is not None and not mu > mu_lower:
                continue
            if not mu < prec:
                # the root continues below the precision bound
                if not zero_tail:
                    out.append({})
                    zero_tail = True
                continue
            v1 = values[i1]
            psi = []
            for j in range(i1, i2 + 1):
                cf = coeffs[j]
                on_edge = (
                    cf.terms and cf.terms[0][0] == v1 - mu.scale(j - i1)
                )
                psi.append(cf.terms[0][1] if on_edge else Coefficient.zero())
            for c, _mult in _initial_form_roots(psi):
                if c.is_zero():
                    continue
                shifted = _shift_poly(poly, c, mu)
                for tail in expand(shifted, mu):
                    root = dict(tail)
                    root[mu] = c
                    out.append(root)
        return out

    roots = []
    for data in expand(q, None):
        s = TruncatedSeries(list(data.items()), prec)
        if any(s.terms == t.terms for t in roots):
            continue
        roots.append(s)
    roots.sort(key=lambda s: [(e.coords, str(c)) for e, c in s.terms])
    if branch_count is not None:
        roots = roots[:branch_count]
    return roots


# ---------------------------------------------------------------------------
# Rational reconstruction


def rational_reconstruct(f: TruncatedSeries, deg_num: int, deg_den: int):
    """Padé-style solve: polynomials (num, den) in t^(1/n) with
    f*den = num to precision and den monic, or None.

    The grid n is the lcm of the exponent denominators in the support.
    Requires rank 1 and, on the rescaled integer grid,
    prec > deg_num + deg_den + v_min(f).
    """
    if f.rank != 1:
        raise PreconditionError("reconstruction requires rank-1 exponents")
    if not f.terms:
        one = TruncatedSeries.one(f.prec)
        return TruncatedSeries.zero(f.prec), one
    n = lcm(
        f.prec.coords[0].denominator,
        *(e.coords[0].denominator for e, _ in f.terms),
    )
    scale = Fraction(n)
    grid = {int(e.coords[0] * scale): c for e, c in f.terms}
    prec_g = int(f.prec.coords[0] * scale)
    v_g = min(grid)
    if not prec_g > deg_num + deg_den + v_g:
        raise PrecisionError(
            f"need prec > {deg_num + deg_den + v_g} on the 1/{n} grid, "
            f"got {prec_g}"
        )
    # unknowns: num_0..num_degN, den_0..den_degD
    cols = deg_num + 1 + deg_den + 1
    lo = min(v_g, 0)
    rows = []
    for j in range(lo, prec_g):
        row = [Coefficient.zero()] * cols
        if 0 <= j <= deg_num:
            row[j] = Coefficient.const(-1)
        for i in range(deg_den + 1):
            cf = grid.get(j - i)
            if cf is not None:
                row[deg_num + 1 + i] = cf
        rows.append(row)
    sol = kernel_vector(*rref(rows), cols)
    if sol is None:
        return None
    den_coeffs = sol[deg_num + 1 :]
    num_coeffs = sol[: deg_num + 1]
    # normalize the lowest-order nonzero denominator coefficient to 1
    lead = next((c for c in den_coeffs if not c.is_zero()), None)
    if lead is None:
        return None
    num_coeffs = [c / lead for c in num_coeffs]
    den_coeffs = [c / lead for c in den_coeffs]
    out_prec = Fraction(max(deg_num, deg_den) + 1, n)
    num = TruncatedSeries(
        [(Fraction(i, n), c) for i, c in enumerate(num_coeffs)], out_prec
    )
    den = TruncatedSeries(
        [(Fraction(i, n), c) for i, c in enumerate(den_coeffs)], out_prec
    )
    return num, den
