"""Restricted exp/log on infinitesimals, Hensel lifting, Newton-Puiseux
expansion, and rational reconstruction.

exp, log and rational powers of 1-units are the truncations of the
characteristic-zero series sum(x^i/i!), sum((-1)^(i+1) x^i / i) and the
binomial series sum(binom(q, i) x^i).  Each solves a first-order equation
(1 + lam*X) F' = q*F + mu, so series.first_order computes every output
coefficient by one convolution with the argument, from the derivation
theta(t^e) = e_j t^e (Miller's recurrence), without series powers.  They
are defined exactly when finitely many terms reach the precision bound,
i.e. when some integer multiple of the argument's valuation dominates
the precision.  In a lexicographic exponent group of rank > 1
that can fail, and the operations refuse rather than return silently
wrong output.

Hensel lifting runs Newton's iteration x -> x - Q(x)/Q'(x) from a
residue-simple approximate root; a residual of valuation m fixes the
root below 2m, so the residual valuation strictly increases, doubling
each step, until it passes the precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub

from .coeffs import Coefficient
from .errors import PrecisionError, PreconditionError
from .exponents import as_exponent
from .polynomials import poly_sqrt
from .series import (
    SeriesPolynomial,
    TruncatedSeries,
    _add,
    _drop,
    _horner,
    _inv,
    _Lift,
    _lift_poly,
    _mul,
    _reach_class,
    _shift,
    _truncate,
    _v_min,
    _wrap,
    eval_poly,
    first_order,
)

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


def __getattr__(name):
    # Only rational reconstruction eliminates, so linalg is imported when
    # first needed; its names still read through this module, as linalg's
    # current binding (a wrapper installed there, or the original).
    if name in ("kernel_vector", "rref"):
        from . import linalg

        return getattr(linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


HENSEL_STEPS = 10_000  # Newton steps of hensel_lift
PUISEUX_STEPS = 2_000  # nodes of newton_puiseux's tree, one per root term


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


def exp(eps: TruncatedSeries) -> OneUnit:
    """exp(eps), truncated at the precision bound: g' = g, g(0) = 1.

    Coefficient by coefficient, e_j g_e = sum_b b_j eps_b g_(e-b).
    """
    return OneUnit(first_order(eps, 0, 1, 0))


def log(u: OneUnit) -> TruncatedSeries:
    """log(1 + delta), inverse of exp: (1 + X) g' = 1, g(0) = 0.

    Coefficient by coefficient,
    e_j g_e = e_j delta_e - sum_b (e - b)_j delta_b g_(e-b).
    """
    return first_order(u.delta(), 1, 0, 1)


def unit_pow(u: OneUnit, q) -> OneUnit:
    """u^q for u = 1 + delta and rational q: (1 + X) g' = q g, g(0) = 1.

    Coefficient by coefficient (Miller's power recurrence),
    e_j g_e = sum_b (q b_j - (e - b)_j) delta_b g_(e-b).
    """
    q = q if isinstance(q, Fraction) else Fraction(q)
    if q == 0:  # 1 even where the recurrence would refuse (rank > 1)
        return OneUnit(TruncatedSeries.one(u.series.prec))
    return OneUnit(first_order(u.delta(), 1, q, 0))


def hensel_lift(q: SeriesPolynomial, r: TruncatedSeries, with_trace: bool = False):
    """Refine r to a root of q, assuming v(q(r)) > 0 and v(q'(r)) = 0.

    Newton's iteration x -> x - q(x)/q'(x) until the residual vanishes at
    working precision.  A residual of valuation m determines the root
    below cut = min(prec, 2m), so a step divides the residual, cut there,
    by q' evaluated at x below cut - m: over a valuation ring the residual
    valuation doubles, and a root to precision tau takes about
    log2(tau/m) residuals instead of one per term.  The root is known to
    the least residual precision.  Returns the root, or (root, residual
    trace) when with_trace is set.  More than HENSEL_STEPS steps raise
    PrecisionError: a polynomial outside the valuation ring may converge
    without doubling.

    q and r are lifted once, onto the grid of all their exponents and
    precisions: every exponent the iteration forms is a sum or difference
    of those.  The whole loop runs on the lifted values (series._Lift),
    rational ones as integer numerators over a common denominator that
    each product and sum reduces, and the root is wrapped once.  Each
    evaluation has the precision of eval_poly, and each step that of the
    public operations it stands for.
    """
    grid, (*cs, x) = _lift_poly(q.coeffs, r)
    dq = [_Lift(c.den, {e: k * i for e, k in c.terms.items()}, c.prec)
          for i, c in enumerate(cs) if i]
    zero = (0,) * len(x.prec)
    slope = _horner(dq, x)
    if next(iter(slope.terms), None) != zero:
        raise PreconditionError(
            f"v_min(Q'(r)) = {_v_min(slope, grid)} is not zero"
        )
    res = _horner(cs, x)
    if res.terms and not next(iter(res.terms)) > zero:
        raise PreconditionError(
            f"v_min(Q(r)) = {_v_min(res, grid)} is not positive"
        )
    # at rank > 1 the doubling can stall inside one archimedean class
    if res.terms and _reach_class(next(iter(res.terms)), x.prec) is None:
        raise PrecisionError(
            "precision unreachable from the initial residual valuation"
        )
    trace = [_v_min(res, grid)]
    while res.terms:
        if len(trace) > HENSEL_STEPS:
            raise PrecisionError(f"no convergence within {HENSEL_STEPS} steps")
        m = next(iter(res.terms))
        cut = min(res.prec, tuple(map(add, m, m)))
        if len(trace) > 1:
            slope = _horner(dq, _truncate(x, tuple(map(sub, cut, m))))
        step = _mul(_truncate(res, cut), _inv(slope))
        # exact terms: x stays known to the residual's precision, not cut
        x = _add(x, step, min(x.prec, res.prec), -1)
        res = _horner(cs, x)
        if res.terms and not next(iter(res.terms)) > m:
            raise PrecisionError("residual valuation failed to increase")
        trace.append(_v_min(res, grid))
    root = _drop(_truncate(x, res.prec), grid)
    if with_trace:
        return root, trace
    return root


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
    constant.  The output is contained in the primes dividing the
    residue of q'(r) or any input denominator, so only those numbers are
    factored: a root denominator such as p^k with p large is divided by
    the known primes instead of trial-divided up to p.
    """
    inputs = [c for s in (*q.coeffs, r) for _, c in s.terms]
    for c in inputs:
        if not c.is_const():
            raise PreconditionError(
                "unsupported: coefficients must be rational constants"
            )
    root = hensel_lift(q, r)
    residue = eval_poly(q.derivative(), r).residue().as_fraction()
    known = set()
    for n in (residue.numerator, residue.denominator,
              *(c.as_fraction().denominator for c in inputs)):
        known |= _prime_factors(n)
    primes = set()
    for _, c in root.terms:
        den = c.as_fraction().denominator
        for p in known:
            if den % p == 0:
                primes.add(p)
                while den % p == 0:
                    den //= p
        primes |= _prime_factors(den)  # 1 by the containment
    return primes


def verify_root(q: SeriesPolynomial, f: TruncatedSeries):
    """Valuation of the residual q(f), exact or AtLeast the residual precision."""
    return eval_poly(q, f).v_min()


# ---------------------------------------------------------------------------
# Newton-Puiseux expansion


def _initial_form_roots(psi):
    """Distinct roots of psi, of degree <= 2, whose ends (hull vertices) are nonzero."""
    deg = len(psi) - 1
    if deg == 1:
        return [-psi[0] / psi[1]]
    if deg == 2:
        a, b, c = psi[2], psi[1], psi[0]
        disc = b * b - 4 * a * c
        if disc.is_zero():
            return [-b / (2 * a)]
        root = _coefficient_sqrt(disc)
        if root is None:
            raise PreconditionError(
                f"initial form has no rational root in the transcendentals: "
                f"({psi[2]})*c^2 + ({psi[1]})*c + ({psi[0]})"
            )
        return [(-b + root) / (2 * a), (-b - root) / (2 * a)]
    raise PreconditionError(
        f"initial form of degree {deg} exceeds the quadratic solver"
    )


def _coefficient_sqrt(c: Coefficient):
    # the roots of a coprime pair over a monic denominator are again one
    rn = poly_sqrt(c.num)
    if rn is None:
        return None
    rd = poly_sqrt(c.den)
    if rd is None:
        return None
    return Coefficient(rn, rd, _canonical=True)


def newton_puiseux(q: SeriesPolynomial, prec, branch_count=None):
    """Fractional-exponent series roots of q via the Newton polygon, each
    known to the precision that q's coefficients determine.

    Restricted to rank-1 exponents and to initial forms of degree <= 2
    whose discriminant is a perfect square in the coefficient field.

    A branch ends at a root r with its shifted polynomial
    P(z) = q(r + z) = sum P_k z^k, whose coefficients carry the precision
    of series arithmetic.  Let d = v(P_1), a visible term, and
    s = P_0.v_floor() - d.  The branch is certified when
    P_k.v_floor() > d - (k-1)*s for every k >= 2; r is then returned to
    tau = min(prec, P_0.prec - d).  Proof: complete q's hidden tails in
    any way.  Then v(P_0) >= d + s, and every (k, v(P_k)) with k >= 2 lies
    strictly above the line of slope -s through (1, d), so the polygon of
    P starts with an edge from 0 to 1 of slope >= s and its other edges
    have slopes < s: P has exactly one root z with v(z) >= s.  A leaf's
    P_0 is zero at precision or its edge has slope >= prec, so s >= tau
    and r + z agrees with r below tau.  Two branches split on an edge of
    slope mu < s of a polygon they share, which also shows in each
    branch's P, so their discs v(z) >= s are disjoint and their roots
    distinct.  A branch that is not certified is refused: its roots are
    not separated at the working precision, as the polynomial is not
    squarefree or its known coefficients do not determine the roots.
    An expansion of more than PUISEUX_STEPS nodes, one per root term,
    raises PrecisionError.

    q is lifted once (series._lift) onto the grid 1/G, G = g*lcm(1..n), g
    the grid of q's exponents and prec, n = deg q.  The polygon, the
    slopes, the certificate and the Taylor shifts (series._shift) run on
    index tuples and, over Q, integer numerators; only psi's entries and
    the roots are wrapped.  Every slope of a certified branch lies on that
    grid.  Proof: let a node's exponents lie on 1/(g*N) and its kept edges
    end at indices <= m, N*m <= n (at the root N = 1, m = n).  The points
    (j, v_j) on a kept edge from i1 to i2 of slope mu, of denominator b
    over that grid, have b | j - i1, so psi is a polynomial in c^b and a
    root c of multiplicity k has b*k <= i2 - i1 <= m: mu lies on
    1/(g*N*b), N*b <= n.  In the child P(c*t^mu + y) every visible point
    lies on or above the edge's line v + j*mu = w, where the coefficient of
    y^j is Phi^(j)(c)/j!, Phi(y) = sum_j psi_(j-i1) y^j: 0 for j < k, not
    for j = k.  If that term of y^k is visible, it is a vertex on the line,
    every edge of slope > mu ends at an index <= k, and N*b*k <= N*m <= n.
    Otherwise p_i + i*mu <= w for some P_i, i >= k, zero at precision;
    then the child's coefficients of y^0 .. y^i are zero at precision below
    the line, and stay so in its subtree, each later line lying above, so
    all its leaves are refused.  Only there may a slope leave the grid,
    and it is kept as an exact Fraction.
    """
    if branch_count is not None and branch_count < 0:
        raise PreconditionError(f"branch count must be nonnegative, got {branch_count}")
    prec = as_exponent(prec)
    if prec.rank != 1:
        raise PreconditionError("expansion requires rank-1 exponents")
    if q.degree < 1:
        raise PreconditionError("polynomial must have positive degree")
    if q.coeffs[-1].is_zero_at_prec():
        raise PrecisionError("leading coefficient is zero at the working precision")
    grid, (*poly, top) = _lift_poly(
        q.coeffs, TruncatedSeries.zero(prec), lcm(*range(1, q.degree + 1))
    )
    top = top.prec[0]

    def low(x):
        """x's v_floor, as an index."""
        return next(iter(x.terms), x.prec)[0]

    def certify(poly):
        """The root's precision index from its shifted polynomial, or None."""
        p0, p1, *rest = poly
        if not p1.terms:
            return None
        d = low(p1)
        s = low(p0) - d
        for k, pk in enumerate(rest, 2):
            if not low(pk) > d - s * (k - 1):
                return None
        return min(top, p0.prec[0] - d)

    def survey(poly, mu_lower):
        """The node's edges above mu_lower and below prec, as (mu, psi)
        pairs, and whether the node ends a branch.  An edge is kept or not
        by cross-multiplication; only a kept edge's slope is divided out."""
        leaf = not poly[0].terms
        hull = []
        for p in ((i, low(x)) for i, x in enumerate(poly) if x.terms):
            # keep the turn strictly convex: drop points above or on the chord
            while len(hull) >= 2 and (
                (p[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
                <= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
            ):
                hull.pop()
            hull.append(p)
        edges = []
        for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
            rise, run = v1 - v2, i2 - i1
            if mu_lower is not None and not rise > mu_lower * run:
                continue
            if not rise < top * run:
                leaf = True  # the root continues below the precision bound
                continue
            mu = rise // run if rise % run == 0 else Fraction(rise, run)  # see the grid proof
            # the lowest values of the coefficients on the edge, else 0
            psi = [_wrap(x, next(iter(x.terms.values())))
                   if x.terms and low(x) == v1 - mu * (j - i1) else Coefficient.zero()
                   for j, x in enumerate(poly[i1:i2 + 1], i1)]
            edges.append((mu, psi))
        return edges, leaf

    def expand(held, mu_lower, head):
        """Yields the arguments of the node's children in turn; a node that
        ends a branch then adds its (root terms, tau), after its children's.
        held is [the node's polynomial], which the node empties for its
        last child, so a branch does not keep its ancestors' polynomials;
        head is the root terms so far, as a chain (earlier, mu, c)."""
        nonlocal nodes
        nodes += 1
        if nodes > PUISEUX_STEPS:
            raise PrecisionError("expansion step budget exhausted")
        edges, leaf = survey(held[0], mu_lower)
        tau = certify(held[0]) if leaf else None
        for n, (mu, psi) in enumerate(edges, 1):
            cs = _initial_form_roots(psi)
            for k, c in enumerate(cs, 1):
                last = n == len(edges) and k == len(cs)
                yield [_shift(held.pop() if last else held[0], c, mu)], mu, (head, mu, c)
        if leaf:
            data.append((head, tau))

    # depth first on a stack of generators rather than by recursion, as a
    # branch is one node deeper per root term
    data, nodes = [], 0
    stack = [expand([poly], None, None)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(expand(*child))

    # refused only after the polygon, so its refusals come first
    if any(tau is None for _, tau in data):
        raise PreconditionError(
            "roots not separated at the working precision: the polynomial is not"
            " squarefree, or its known coefficients do not determine the roots"
        )
    roots = []
    for head, tau in data:
        terms = []
        while head:
            head, mu, c = head
            terms.append((Fraction(mu, grid), c))
        roots.append(TruncatedSeries(terms, Fraction(tau, grid)))
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
    Requires nonnegative degrees, rank 1 and, on the rescaled integer
    grid, prec > deg_num + deg_den + v_min(f).
    """
    from .linalg import kernel_vector, rref

    if deg_num < 0 or deg_den < 0:
        raise PreconditionError(
            "degree bounds must be nonnegative: "
            f"deg_num = {deg_num}, deg_den = {deg_den}"
        )
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
