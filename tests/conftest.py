"""Shared random generators for the property suites.

Everything is driven by seeded random.Random instances so failures
reproduce; hypothesis covers the small algebraic laws, while the bulk
randomized contracts use these factories directly.
"""

import random
from fractions import Fraction

import pytest

from hahnseries.coeffs import Coefficient
from hahnseries.polynomials import Poly
from hahnseries.series import TruncatedSeries


def rand_fraction(rng, bound=6, dens=(1, 1, 1, 2, 3)):
    num = rng.randint(-bound, bound)
    return Fraction(num, rng.choice(dens))


def rand_poly(rng, variables=(1,), max_deg=2, terms=3, bound=4):
    p = Poly()
    for _ in range(rng.randint(0, terms)):
        mono = []
        for v in variables:
            e = rng.randint(0, max_deg)
            if e:
                mono.append((v, e))
        c = rand_fraction(rng, bound)
        if c:
            p = p + Poly({tuple(sorted(mono)): c})
    return p


def dense(p, var):
    """p as a polynomial in var: its coefficients (polynomials in the other
    variables) indexed by power, with the top entry nonzero; [] for 0."""
    out = []
    for m, c in p.terms.items():
        e = dict(m).get(var, 0)
        out.extend({} for _ in range(e + 1 - len(out)))
        out[e][tuple((v, k) for v, k in m if v != var)] = c
    return [Poly(t) for t in out]


def join(coeffs, var):
    """Inverse of dense: the polynomial sum of coeffs[e] * var^e."""
    x = Poly.variable(var)
    return sum((c * x**e for e, c in enumerate(coeffs)), Poly.zero())


def rand_coeff(rng, variables=(1,), max_deg=2, allow_den=True):
    num = rand_poly(rng, variables, max_deg)
    if num.is_zero():
        num = Poly.const(rng.randint(1, 4))
    if allow_den and rng.random() < 0.4:
        den = rand_poly(rng, variables, max_deg=1)
        if den.is_zero():
            den = Poly.one()
        return Coefficient(num, den)
    return Coefficient(num, Poly.one())


def rand_series(
    rng,
    prec=6,
    terms=4,
    exponents=None,
    variables=(),
    lo=-2,
    hi=5,
    nonzero=False,
):
    data = {}
    for _ in range(rng.randint(1 if nonzero else 0, terms)):
        if exponents is not None:
            e = rng.choice(exponents)
        else:
            e = Fraction(rng.randint(lo * 2, hi * 2), rng.choice((1, 2)))
        if variables and rng.random() < 0.6:
            c = rand_coeff(rng, variables, max_deg=1, allow_den=False)
        else:
            c = Coefficient.const(rand_fraction(rng))
        if not c.is_zero():
            data[e] = c
    s = TruncatedSeries(data, prec)
    if nonzero and not s.terms:
        s = TruncatedSeries({0: 1}, prec)
    return s


def rand_eps(rng, prec=4, terms=3, variables=()):
    """A random infinitesimal: positive exponents only."""
    data = {}
    for _ in range(rng.randint(0, terms)):
        e = Fraction(rng.randint(1, 2 * prec), 2)
        if variables and rng.random() < 0.5:
            c = rand_coeff(rng, variables, max_deg=1, allow_den=False)
        else:
            c = Coefficient.const(rand_fraction(rng))
        if not c.is_zero():
            data[e] = c
    return TruncatedSeries(data, prec)


@pytest.fixture
def rng():
    return random.Random(20240817)
