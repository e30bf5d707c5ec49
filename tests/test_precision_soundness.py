"""Soundness of the attached precision bounds.

Every operation claims its result modulo t^tau.  These tests perturb the
inputs above their own precision bounds (the unknown tails) and check
that the result never changes below the claimed tau: the bound is
correct no matter what the truncation hid.
"""

import random
from fractions import Fraction

from conftest import rand_eps, rand_series
from hahnseries.analytic import OneUnit, exp, hensel_lift, log, unit_pow
from hahnseries.coeffs import Coefficient
from hahnseries.series import SeriesPolynomial, TruncatedSeries, eval_poly

HIGH = 20


def with_tail(rng, f, variables=()):
    """Extend f above its precision bound with random unknown terms."""
    data = dict(f.terms)
    for _ in range(rng.randint(0, 3)):
        e = f.prec + TruncatedSeries.monomial(1, Fraction(rng.randint(0, 6), 2), HIGH).terms[0][0]
        c = rng.randint(-3, 3)
        if c:
            data[e] = data.get(e, Coefficient.zero()) + c
    return TruncatedSeries(data, HIGH)


def agree_below(a, b, bound):
    mine = [(e, c) for e, c in a.terms if e < bound]
    theirs = [(e, c) for e, c in b.terms if e < bound]
    return mine == theirs


def test_mul_precision_sound(rng):
    for _ in range(100):
        f = rand_series(rng, prec=rng.randint(2, 6), lo=-2, hi=6)
        g = rand_series(rng, prec=rng.randint(2, 6), lo=-2, hi=6)
        truncated = f * g
        full = with_tail(rng, f) * with_tail(rng, g)
        assert agree_below(full, truncated, truncated.prec)


def test_add_precision_sound(rng):
    for _ in range(150):
        f = rand_series(rng, prec=rng.randint(2, 6), lo=-2, hi=6)
        g = rand_series(rng, prec=rng.randint(2, 6), lo=-2, hi=6)
        truncated = f - g
        full = with_tail(rng, f) - with_tail(rng, g)
        assert agree_below(full, truncated, truncated.prec)


def test_inv_precision_sound(rng):
    for _ in range(60):
        f = rand_series(rng, prec=rng.randint(3, 6), lo=-2, hi=5, nonzero=True)
        truncated = f.inv()
        full = with_tail(rng, f).inv()
        assert agree_below(full, truncated, truncated.prec)


def test_exp_log_precision_sound(rng):
    from conftest import rand_eps

    for _ in range(50):
        eps = rand_eps(rng, prec=rng.randint(2, 5))
        truncated = exp(eps).series
        tail = with_tail(rng, eps)
        positive = TruncatedSeries(
            [(e, c) for e, c in tail.terms if e > tail.prec.scale(0)], HIGH
        )
        full = exp(positive).series
        assert agree_below(full, truncated, truncated.prec)
        u_small = OneUnit(TruncatedSeries.one(eps.prec) + eps)
        u_big = OneUnit(TruncatedSeries.one(HIGH) + positive)
        assert agree_below(log(u_big), log(u_small), log(u_small).prec)


def test_unit_pow_precision_sound(rng):
    for _ in range(40):
        delta = rand_eps(rng, prec=rng.randint(2, 5))
        tail = with_tail(rng, delta)
        positive = TruncatedSeries(
            [(e, c) for e, c in tail.terms if e > tail.prec.scale(0)], HIGH
        )
        u_small = OneUnit(TruncatedSeries.one(delta.prec) + delta)
        u_big = OneUnit(TruncatedSeries.one(HIGH) + positive)
        q = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        truncated = unit_pow(u_small, q).series
        full = unit_pow(u_big, q).series
        assert agree_below(full, truncated, truncated.prec)


def test_eval_poly_precision_sound(rng):
    for _ in range(40):
        coeffs = [rand_series(rng, prec=rng.randint(3, 6), lo=0, hi=5) for _ in range(3)]
        f = rand_series(rng, prec=rng.randint(3, 6), lo=0, hi=5)
        q = SeriesPolynomial(coeffs)
        if q.is_zero():
            continue
        truncated = eval_poly(q, f)
        q_full = SeriesPolynomial([with_tail(rng, c) for c in coeffs])
        if q_full.degree != q.degree:
            continue
        full = eval_poly(q_full, with_tail(rng, f))
        assert agree_below(full, truncated, truncated.prec)


def test_hensel_precision_sound():
    # lifting from truncated data agrees with lifting from fuller data
    rng = random.Random(99)
    for prec in (5, 7, 9):
        base_full = TruncatedSeries({0: 1, 1: 1, prec: 2, prec + 1: -1}, HIGH)
        base_cut = base_full.truncate(prec)
        q_full = SeriesPolynomial(
            [-base_full, TruncatedSeries.zero(HIGH), TruncatedSeries.one(HIGH)]
        )
        q_cut = SeriesPolynomial(
            [-base_cut, TruncatedSeries.zero(prec), TruncatedSeries.one(prec)]
        )
        root_full = hensel_lift(q_full, TruncatedSeries.one(HIGH))
        root_cut = hensel_lift(q_cut, TruncatedSeries.one(prec))
        assert agree_below(root_full, root_cut, root_cut.prec)
