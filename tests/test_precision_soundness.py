"""Soundness of the attached precision bounds.

Every operation claims its result modulo t^tau.  These tests perturb the
inputs above their own precision bounds (the unknown tails) and check
that the result never changes below the claimed tau: the bound is
correct no matter what the truncation hid.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import rand_coeff, rand_eps, rand_series
from hahnseries.analytic import OneUnit, exp, hensel_lift, log, newton_puiseux, unit_pow
from hahnseries.coeffs import INFINITE, Coefficient, Place, apply_place
from hahnseries.errors import HahnSeriesError, NotInValuationRingError
from hahnseries.exponents import Exponent
from hahnseries.series import SeriesPolynomial, TruncatedSeries, eval_poly
from hahnseries.valuation_spaces import (
    BasisFamily,
    ScalarField,
    build_restricted_exp,
    inclusion_exclusion_approx,
    mult_inclusion_exclusion,
)

HIGH = 20
HIGH2 = (6, 0)
QQ = ScalarField.rationals()
RANK2_SUPPORTS = (
    [(1, -1), (1, 0), (1, 2)],
    [(1, -1), (1, 0), (2, -3)],
    [(1, 0), (1, 1), (2, -1)],
)


def with_tail(rng, f, variables=()):
    """Extend f above its precision bound with random unknown terms, with
    coefficients in Q(a_j for j in variables), else in Z."""
    data = dict(f.terms)
    for _ in range(rng.randint(0, 3)):
        e = f.prec + TruncatedSeries.monomial(1, Fraction(rng.randint(0, 6), 2), HIGH).terms[0][0]
        c = rand_coeff(rng, variables) if variables else rng.randint(-3, 3)
        if c:
            data[e] = data.get(e, Coefficient.zero()) + c
    return TruncatedSeries(data, HIGH)


def with_rank2_tail(rng, f):
    """Extend a rank-2 f above its precision bound, up to HIGH2."""
    data = dict(f.terms)
    p0, p1 = f.prec.coords
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(0, 2)
        e = Exponent((p0 + a, p1 + rng.randint(0 if a == 0 else -3, 3)))
        data[e] = data.get(e, Coefficient.zero()) + rng.choice((-2, -1, 1, 2))
    return TruncatedSeries(data, HIGH2)


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


def test_split_neg_precision_sound(rng):
    for _ in range(150):
        prec = Fraction(rng.randint(-6, 10), 2)
        f = rand_series(rng, prec=prec, lo=-3, hi=5, variables=(1,))
        neg, ring = f.split_neg()
        full_neg, full_ring = with_tail(rng, f).split_neg()
        assert agree_below(full_neg, neg, neg.prec), str(f)
        assert agree_below(full_ring, ring, ring.prec), str(f)
    for _ in range(50):
        prec = Exponent((Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-2, 2))))
        f = TruncatedSeries(
            {(rng.randint(-2, 1), rng.randint(-3, 3)): rng.choice((-1, 1, 2)) for _ in range(4)},
            prec,
        )
        neg, ring = f.split_neg()
        full_neg, full_ring = with_rank2_tail(rng, f).split_neg()
        assert agree_below(full_neg, neg, neg.prec), str(f)
        assert agree_below(full_ring, ring, ring.prec), str(f)


def test_specialize_precision_sound(rng):
    # tails in Q(a1, a2) that are finite at the place, as f is
    checked = 0
    for _ in range(200):
        f = TruncatedSeries(
            {Fraction(rng.randint(-4, 12), 2): rand_coeff(rng, (1, 2)) for _ in range(rng.randint(0, 4))},
            Fraction(rng.randint(-2, 10), 2),
        )
        place = Place(rng.choice((1, 2)), Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        try:
            truncated = f.specialize(place)
        except NotInValuationRingError:
            continue
        full = with_tail(rng, f, (1, 2))
        if any(apply_place(c, place) is INFINITE for _, c in full.terms):
            continue
        assert agree_below(full.specialize(place), truncated, truncated.prec), (str(f), str(place))
        checked += 1
    assert checked >= 100


def _finite_at(f, places):
    return all(apply_place(c, place) is not INFINITE for _, c in f.terms for place in places)


def test_inclexcl_precision_sound(rng):
    # the places of the truncated call are given to the full one; tails in
    # Q(a1, a2) with a pole at one of them are skipped, as f has none
    checked = 0
    for _ in range(150):
        f = TruncatedSeries(
            {Fraction(rng.randint(-2, 10), 2): rand_coeff(rng, (1, 2)) for _ in range(rng.randint(1, 5))},
            Fraction(rng.randint(1, 10), 2),
        )
        try:
            res = inclusion_exclusion_approx(f, [1, 2])
        except HahnSeriesError:
            continue
        full = with_tail(rng, f, (1, 2))
        if not _finite_at(full, res.places):
            continue
        big = inclusion_exclusion_approx(full, [1, 2], places=res.places)
        assert agree_below(big.h, res.h, res.h.prec), str(f)
        for key, g in res.summands.items():
            assert agree_below(big.summands[key], g, g.prec), (str(f), key)
        checked += 1
    assert checked >= 80


def test_mult_inclexcl_precision_sound(rng):
    # 1-units over Q(a1, a2) known to t^P, tails cut at t^(P + 1): the
    # inverses of the full summands stay cheap
    checked = 0
    for _ in range(60):
        prec = rng.choice((2, 3))
        eps = rand_eps(rng, prec=prec, variables=(1, 2))
        u = OneUnit(TruncatedSeries.one(prec) + eps)
        try:
            res = mult_inclusion_exclusion(u, [1, 2])
        except HahnSeriesError:
            continue
        full = with_tail(rng, u.series, (1, 2)).truncate(prec + 1)
        if not _finite_at(full, res.places):
            continue
        big = mult_inclusion_exclusion(OneUnit(full), [1, 2], places=res.places)
        assert agree_below(big.h.series, res.h.series, res.h.series.prec), str(u.series)
        checked += 1
    assert checked >= 40


def test_restricted_exp_apply_precision_sound(rng):
    # hidden tails of the additive members, the units and eps, with eps
    # kept in the span: eps_full = sum(q_i b_i) over the fuller members;
    # members whose value eps's precision hides still move the image
    checked = 0
    for _ in range(60):
        values = sorted(rng.sample([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)],
                                   rng.randint(1, 3)))
        additive, units = [], []
        for v in values:
            lead = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            tail = {v + Fraction(rng.randint(1, 3), 2): Fraction(rng.randint(-2, 2))}
            additive.append(TruncatedSeries({v: lead, **tail}, rng.choice((3, 4))))
            units.append(TruncatedSeries({0: 1, v: lead * rng.choice((1, 2)), v + 1: 1}, rng.choice((3, 4))))
        full_additive = [with_tail(rng, b).truncate(5) for b in additive]
        full_units = [with_tail(rng, u).truncate(5) for u in units]
        qs = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in values]
        eps_full = sum((b.scalar_mul(q) for b, q in zip(full_additive, qs)), TruncatedSeries.zero(5))
        eps = eps_full.truncate(Fraction(rng.randint(2, 8), 2))
        small = build_restricted_exp(BasisFamily(additive, QQ), [OneUnit(u) for u in units])
        big = build_restricted_exp(BasisFamily(full_additive, QQ), [OneUnit(u) for u in full_units])
        truncated = small.apply(eps).series
        assert agree_below(big.apply(eps_full).series, truncated, truncated.prec), (
            [str(b) for b in additive], [str(u) for u in units], str(eps), str(truncated))
        checked += 1
    assert checked == 60


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


def test_rank2_exp_log_inv_precision_sound():
    # reachable rank-2 arguments: every support element is in class 1
    rng = random.Random(5)
    for k in range(30):
        support = RANK2_SUPPORTS[k % 3]
        picked = rng.sample(support, rng.randint(1, len(support)))
        eps = TruncatedSeries(
            {e: Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))) for e in picked},
            (3, 0),
        )
        full = with_rank2_tail(rng, eps)
        truncated = exp(eps).series
        assert agree_below(exp(full).series, truncated, truncated.prec)
        small = log(OneUnit(TruncatedSeries.one(eps.prec) + eps))
        big = log(OneUnit(TruncatedSeries.one(HIGH2) + full))
        assert agree_below(big, small, small.prec)
        c0 = Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 3)))
        f = eps + c0
        truncated = f.inv()
        assert truncated.terms
        assert agree_below((full + c0).inv(), truncated, truncated.prec)


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


def test_hensel_from_an_exact_root_precision_sound():
    # r = 1 + t is a root of y^2 - (1 + t)^2 known to t^prec only: the
    # unknown tails of the constant coefficient move the root at t^prec
    rng = random.Random(7)
    r = TruncatedSeries({0: 1, 1: 1}, HIGH)
    for prec in (2, 3, 5, 8):
        base = TruncatedSeries({0: 1, 1: 2, 2: 1}, prec)
        zero, one = TruncatedSeries.zero(HIGH), TruncatedSeries.one(HIGH)
        root_cut = hensel_lift(SeriesPolynomial([-base, zero, one]), r)
        assert root_cut.prec == Exponent((Fraction(prec),))
        for _ in range(5):
            q_full = SeriesPolynomial([-with_tail(rng, base), zero, one])
            root_full = hensel_lift(q_full, r)
            assert agree_below(root_full, root_cut, root_cut.prec)


def planted_puiseux_input(rng):
    """lead * (y - r_1)...(y - r_n) for 1..3 planted roots with fractional
    exponents, lead 1 or t, each coefficient known to t^P, some lowered
    to O(t^k) with k <= P; and a solve precision P..P+2."""
    prec = rng.randint(3, 6)
    zero = TruncatedSeries.zero(HIGH)
    q = [TruncatedSeries({rng.choice((0, 0, 1)): 1}, HIGH)]  # constant first
    for _ in range(rng.randint(1, 3)):
        r = TruncatedSeries(
            {
                Fraction(rng.randint(0, 6), rng.choice((1, 2))): rng.choice((-3, -2, -1, 1, 2, 3))
                for _ in range(rng.randint(1, 2))
            },
            HIGH,
        )
        q = [(q[i - 1] if i else zero) - (r * q[i] if i < len(q) else zero)
             for i in range(len(q) + 1)]
    coeffs = [
        c.truncate(rng.randint(1, prec) if rng.random() < 0.15 else prec) for c in q
    ]
    return SeriesPolynomial(coeffs), prec + rng.randint(0, 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_puiseux_precision_sound(seed):
    # every accepted root is matched one-to-one, below its stated prec, by
    # the roots of three completions of the input's hidden tails
    rng = random.Random(seed)
    accepted = 0
    for _ in range(200):
        q, prec = planted_puiseux_input(rng)
        try:
            roots = newton_puiseux(q, prec)
        except HahnSeriesError:
            continue
        accepted += 1
        for _ in range(3):
            # every tail term lies below t^(P + 4): the cut keeps the solve cheap
            full = SeriesPolynomial([with_tail(rng, c).truncate(prec + 4) for c in q.coeffs])
            others = newton_puiseux(full, prec)
            assert any(
                all(o.prec >= r.prec and agree_below(o, r, r.prec) for r, o in zip(roots, match))
                for match in permutations(others, len(roots))
            ), (str(q), [str(r) for r in roots], [str(o) for o in others])
    assert accepted >= 100
