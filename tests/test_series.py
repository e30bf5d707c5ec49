from fractions import Fraction

import pytest

from conftest import rand_series
from hahnseries.coeffs import Coefficient, Place
from hahnseries.errors import (
    NotInValuationRingError,
    PrecisionError,
    PreconditionError,
    RankMismatchError,
)
from hahnseries.exponents import Exponent, as_exponent
from hahnseries.series import (
    AtLeast,
    SeriesPolynomial,
    TruncatedSeries,
    eval_poly,
    phi_P,
    residue,
    specialize_poly,
    split_neg,
    v_min,
)

a1 = Coefficient.alpha(1)
a2 = Coefficient.alpha(2)


def ts(data, prec):
    return TruncatedSeries(data, prec)


def test_v_min_examples():
    assert v_min(ts({2: 1, 5: 1}, 10)) == as_exponent(2)
    assert v_min(ts({}, 10)) == AtLeast(as_exponent(10))
    assert v_min(ts({Fraction(-1, 2): 1, 0: 3}, 4)) == as_exponent(Fraction(-1, 2))


def test_construction_invariants():
    s = ts({3: 1, 1: 2, 12: 9}, 10)
    assert [e.coords[0] for e, _ in s.terms] == [1, 3]  # sorted, truncated
    assert ts({1: Fraction(0)}, 5).is_zero_at_prec()


def test_add_mul_examples():
    one = TruncatedSeries.one(5)
    t = TruncatedSeries.monomial(1, 1, 5)
    assert ((one + t) * (one - t)).agrees_with(one - t * t)
    f = TruncatedSeries.monomial(2, Fraction(1, 2), 8)
    g = TruncatedSeries.monomial(3, Fraction(1, 3), 8)
    assert v_min(f * g) == as_exponent(Fraction(5, 6))


def test_add_disjoint_supports_canonicalizes_nothing(monkeypatch):
    import hahnseries.coeffs as coeffs_mod

    left = ts({k: (a1 + k) / (a2 + 1) for k in range(4)}, 6)
    right = ts({Fraction(2 * k + 1, 2): (a2 - k) / (a1 + 2) for k in range(5)}, 5)
    calls = []
    real_gcd = coeffs_mod.poly_gcd

    def counting_gcd(*args):
        calls.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(coeffs_mod, "poly_gcd", counting_gcd)
    total = left + right
    monkeypatch.undo()
    assert calls == []
    assert total == ts({**dict(left.terms), **dict(right.terms)}, 5)


def test_precision_propagation():
    f = ts({0: 1, 1: 1}, 2)
    g = ts({0: 1}, 1)
    assert (f + g).prec == as_exponent(1)
    assert (f * g).prec == as_exponent(1)
    h = ts({2: 1}, 5)
    assert (h * h).prec == as_exponent(7)


def test_inv_geometric_oracle():
    # sum of t^i computed independently of inv
    expected = ts({i: 1 for i in range(5)}, 5)
    one_minus_t = ts({0: 1, 1: -1}, 5)
    assert one_minus_t.inv() == expected
    with pytest.raises(PreconditionError):
        ts({}, 5).inv()


def test_inv_lex_unreachable():
    # the geometric expansion would need infinitely many terms below (1, 0)
    f = TruncatedSeries({(0, 0): 1, (0, 1): 1}, (1, 0))
    with pytest.raises(PrecisionError):
        f.inv()


def test_inv_roundtrip_random(rng):
    for _ in range(200):
        f = rand_series(rng, prec=6, nonzero=True, variables=(1,))
        inv = f.inv()
        prod = f * inv
        one = TruncatedSeries.one(prod.prec)
        assert prod.agrees_with(one)
        # declared precision: prec - v_min
        assert prod.prec == f.prec - f.terms[0][0]


def test_ultrametric(rng):
    for _ in range(500):
        f = rand_series(rng, prec=6)
        g = rand_series(rng, prec=6)
        vf, vg = f.v_floor(), g.v_floor()
        d = f - g
        if d.terms:
            assert d.terms[0][0] >= min(vf, vg)
        if f.terms and g.terms and f.terms[0][0] != g.terms[0][0]:
            assert d.terms and d.terms[0][0] == min(vf, vg)


def test_phi_examples():
    f = ts({i: a1**i for i in range(6)}, 6)
    img = phi_P(f, Place(1, Fraction(2)))
    assert img == ts({i: 2**i for i in range(6)}, 6)
    g = TruncatedSeries.monomial(a2, 1, 6)
    assert phi_P(g, Place(1, Fraction(5))) == g
    bad = TruncatedSeries.monomial(Coefficient.one() / (a1 - 1), 1, 6)
    with pytest.raises(NotInValuationRingError):
        phi_P(bad, Place(1, Fraction(1)))


def test_phi_homomorphism(rng):
    checked = 0
    while checked < 200:
        f = rand_series(rng, prec=5, variables=(1, 2))
        g = rand_series(rng, prec=5, variables=(1, 2))
        place = Place(1, Fraction(rng.randint(-3, 3)))
        try:
            pf, pg = phi_P(f, place), phi_P(g, place)
            ps, pp = phi_P(f + g, place), phi_P(f * g, place)
        except NotInValuationRingError:
            continue
        assert ps.agrees_with(pf + pg) and ps.prec == (pf + pg).prec
        assert pp.agrees_with(pf * pg)
        checked += 1


def test_phi_drops_vanishing_coefficients():
    f = TruncatedSeries.monomial(a1 - 2, 1, 5)
    img = phi_P(f, Place(1, Fraction(2)))
    assert img.is_zero_at_prec() and img.prec == as_exponent(5)


def test_split_neg_examples():
    f = ts({-1: 1, 0: 2, 1: 3}, 5)
    neg, ring = split_neg(f)
    assert neg == ts({-1: 1}, 5)
    assert ring == ts({0: 2, 1: 3}, 5)
    neg, ring = split_neg(ts({2: 5}, 5))
    assert neg.is_zero_at_prec() and ring == ts({2: 5}, 5)
    f = ts({Fraction(-1, 2): 1, Fraction(-1, 3): 1}, 5)
    neg, ring = split_neg(f)
    assert neg == f and ring.is_zero_at_prec()


def test_split_neg_recombination(rng):
    for _ in range(100):
        f = rand_series(rng, prec=4, lo=-3, hi=4, variables=(1,))
        neg, ring = split_neg(f)
        assert (neg + ring) == f
        zero = f.prec.scale(0)
        for e, _ in ring.terms:
            assert e >= zero
        for e, _ in neg.terms:
            assert e < zero


def test_split_neg_low_precision():
    f = ts({-3: 1}, -1)
    neg, ring = split_neg(f)
    assert neg.prec == as_exponent(-1)
    assert ring.prec == as_exponent(0)
    assert (neg + ring).agrees_with(f)


def test_residue_examples():
    assert residue(ts({0: 7, 1: 1}, 5)) == Coefficient.const(7)
    assert residue(ts({2: 1}, 5)) == Coefficient.zero()
    with pytest.raises(NotInValuationRingError):
        residue(ts({-1: 1, 0: 1}, 5))
    with pytest.raises(PrecisionError):
        residue(ts({}, 0))


def test_eval_poly_examples():
    one = TruncatedSeries.one(6)
    # y^2 - 1 at 1
    q = SeriesPolynomial([-one, TruncatedSeries.zero(6), one])
    assert eval_poly(q, one).is_zero_at_prec()
    # y^2 - (1+t) at 1 + t/2 leaves t^2/4
    t = TruncatedSeries.monomial(1, 1, 6)
    q2 = SeriesPolynomial([-(one + t), TruncatedSeries.zero(6), one])
    r = eval_poly(q2, one + t.scalar_mul(Fraction(1, 2)))
    assert r == ts({2: Fraction(1, 4)}, 6)
    # identity
    q3 = SeriesPolynomial([TruncatedSeries.zero(6), one])
    half = TruncatedSeries.monomial(1, Fraction(1, 2), 6)
    assert eval_poly(q3, half).agrees_with(half)


def test_phi_commutes_with_eval(rng):
    checked = 0
    while checked < 100:
        coeffs = [rand_series(rng, prec=5, variables=(1,)) for _ in range(3)]
        q = SeriesPolynomial(coeffs)
        f = rand_series(rng, prec=5, variables=(1,), lo=0)
        place = Place(1, Fraction(rng.randint(-3, 3)))
        if q.is_zero():
            continue
        try:
            lhs = phi_P(eval_poly(q, f), place)
            rhs = eval_poly(specialize_poly(q, place), phi_P(f, place))
        except NotInValuationRingError:
            continue
        assert lhs.agrees_with(rhs)
        checked += 1


def test_rank_mismatch():
    f = ts({1: 1}, 5)
    g = TruncatedSeries({(1, 0): 1}, (3, 0))
    with pytest.raises(RankMismatchError):
        f + g


def test_rank2_series():
    f = TruncatedSeries({(0, 1): 1, (1, -2): 3}, (2, 0))
    assert v_min(f) == Exponent((0, 1))
    g = f * f
    assert v_min(g) == Exponent((0, 2))


def test_str_examples():
    assert str(ts({Fraction(1, 2): Fraction(3, 2), 2: a1}, 5)) == (
        "3/2*t^(1/2) + a1*t^2 + O(t^5)"
    )
    assert str(ts({}, 3)) == "0 + O(t^3)"
    assert str(ts({0: 1, 1: -1}, 4)) == "1 - t + O(t^4)"
