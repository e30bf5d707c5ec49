import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat
from math import factorial, lcm

import pytest

from conftest import rand_coeff, rand_series
from hahnseries import series as series_module
from hahnseries.analytic import OneUnit, exp, log, unit_pow
from hahnseries.coeffs import Coefficient, Place
from hahnseries.errors import (
    HahnSeriesError,
    NotInValuationRingError,
    PrecisionError,
    PreconditionError,
    RankMismatchError,
)
from hahnseries.exponents import Exponent, as_exponent, reach_count
from hahnseries.series import (
    DENSITY,
    INT_BITS,
    KRONECKER_TERMS,
    AtLeast,
    SeriesPolynomial,
    TruncatedSeries,
    _indices,
    _monoid_below,
    _t_power,
    eval_poly,
    first_order,
    phi_P,
    specialize_poly,
)

a1 = Coefficient.alpha(1)
a2 = Coefficient.alpha(2)


def ts(data, prec):
    return TruncatedSeries(data, prec)


def test_v_min_examples():
    assert ts({2: 1, 5: 1}, 10).v_min() == as_exponent(2)
    assert ts({}, 10).v_min() == AtLeast(as_exponent(10))
    assert ts({Fraction(-1, 2): 1, 0: 3}, 4).v_min() == as_exponent(Fraction(-1, 2))


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
    assert (f * g).v_min() == as_exponent(Fraction(5, 6))


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


# The dict-based sum that the merge replaced, kept as an oracle: every term
# goes through the validating constructor, which sorts and cuts at prec.


def _dict_sum(f, g):
    g = f._coerce(g)
    prec = min(f.prec, g.prec)
    merged = dict(f.terms)
    for e, c in g.terms:
        s = merged.get(e)
        merged[e] = c if s is None else s + c
    return TruncatedSeries(merged, prec)


def sum_cases(rng):
    """Seeded summand pairs: overlapping supports, sums that cancel, a prec
    that cuts terms, rank 2, Q(a1) coefficients and scalar operands."""
    rational = lambda r: Fraction(r.randint(-9, 9) or 1, r.randint(1, 6))  # noqa: E731
    symbolic = lambda r: rand_coeff(r, (1,), max_deg=1)  # noqa: E731
    cases = []
    for k in range(300):
        coeff = symbolic if k % 4 == 3 else rational
        kind = k % 5
        if kind == 0:  # overlapping supports on mixed grids
            f, g = (_dense(rng, rng.choice((1, 2, 3)), rng.randint(-3, 2), rng.randint(1, 9),
                           Fraction(rng.randint(2, 16), 2), coeff) for _ in range(2))
        elif kind == 1:  # g cancels some or all of f
            f = _dense(rng, 2, rng.randint(-2, 2), rng.randint(1, 8), 6, coeff)
            g = -f.truncate(Fraction(rng.randint(-2, 12), 2))
            if rng.random() < 0.5:
                g = g + ts({Fraction(rng.randint(-2, 10), 2): coeff(rng)}, 6)
        elif kind == 2:  # one prec cuts the other's terms
            f = _dense(rng, 3, -2, 12, 4, coeff)
            g = _dense(rng, 2, rng.randint(-1, 3), rng.randint(0, 4), Fraction(rng.randint(-2, 6), 3), coeff)
        elif kind == 3:  # rank 2
            f, g = _rank2(rng, coeff), _rank2(rng, coeff)
        else:  # a scalar operand, which the sum puts at exponent 0
            f = _dense(rng, 2, rng.randint(-2, 1), rng.randint(0, 6), Fraction(rng.randint(-1, 8), 2), coeff)
            g = rng.choice((coeff(rng), rng.randint(-2, 2), -f.coefficient(0)))
        cases.append((f, g) if rng.random() < 0.5 or not isinstance(g, TruncatedSeries) else (g, f))
    return cases


def test_add_matches_dict_sum():
    rng = random.Random(2718)
    cancelled = cut = deferred = 0
    for f, g in sum_cases(rng):
        # a scalar on the left, a Coefficient included, defers to the series
        for got, want in ((f + g, _dict_sum(f, g)), (g + f, _dict_sum(f, g)),
                          (f - g, _dict_sum(f, -f._coerce(g))), (g - f, _dict_sum(-f, g))):
            assert got.terms == want.terms and got.prec == want.prec, (str(f), str(g))
        if not isinstance(g, TruncatedSeries):
            assert g * f == f * g
            if f.terms:
                assert g / f == f._coerce(g) / f
            deferred += isinstance(g, Coefficient)
        g = f._coerce(g)
        cancelled += len(f.terms) + len(g.terms) > 0 and not _dict_sum(f, g).terms
        cut += any(not e < f.prec for e, _ in g.terms) or any(not e < g.prec for e, _ in f.terms)
    assert cancelled > 20 and cut > 50 and deferred > 10


def test_truncate_matches_the_constructor():
    rng = random.Random(3141)
    for f, g in sum_cases(rng):
        for h in (f, f._coerce(g)):
            pad = (Fraction(0),) * (h.rank - 1)
            cuts = [as_exponent((Fraction(rng.randint(-6, 18), 3),) + pad), h.prec, h.prec + h.prec]
            cuts += [e for e, _ in h.terms[:2]]  # a cut at a stored exponent drops it
            for p in cuts:
                got, want = h.truncate(p), TruncatedSeries(h.terms, min(p, h.prec))
                assert got.terms == want.terms and got.prec == want.prec


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
    neg, ring = f.split_neg()
    assert neg == ts({-1: 1}, 5)
    assert ring == ts({0: 2, 1: 3}, 5)
    neg, ring = ts({2: 5}, 5).split_neg()
    assert neg.is_zero_at_prec() and ring == ts({2: 5}, 5)
    f = ts({Fraction(-1, 2): 1, Fraction(-1, 3): 1}, 5)
    neg, ring = f.split_neg()
    assert neg == f and ring.is_zero_at_prec()


def test_split_neg_recombination(rng):
    for _ in range(100):
        f = rand_series(rng, prec=4, lo=-3, hi=4, variables=(1,))
        neg, ring = f.split_neg()
        assert (neg + ring) == f
        zero = f.prec.scale(0)
        for e, _ in ring.terms:
            assert e >= zero
        for e, _ in neg.terms:
            assert e < zero


def test_split_neg_low_precision():
    f = ts({-3: 1}, -1)
    neg, ring = f.split_neg()
    assert neg.prec == as_exponent(-1)
    assert ring.prec == as_exponent(0)
    assert (neg + ring).agrees_with(f)


def test_residue_examples():
    assert ts({0: 7, 1: 1}, 5).residue() == Coefficient.const(7)
    assert ts({2: 1}, 5).residue() == Coefficient.zero()
    with pytest.raises(NotInValuationRingError):
        ts({-1: 1, 0: 1}, 5).residue()
    with pytest.raises(PrecisionError):
        ts({}, 0).residue()


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


def test_specialize_matches_the_sorting_constructor(rng):
    # specialize wraps the images as they are: the same series as the
    # sorting, coercing constructor builds from them, vanishing images
    # dropped; (a1 - 1)*t^(1/2) and (a2 - 1)/(a1 + 1)*t^2 vanish at a place
    from hahnseries.coeffs import INFINITE, apply_place

    vanished = 0
    for k in range(300):
        data = {Fraction(rng.randint(-4, 12), 2): rand_coeff(rng, (1, 2)) for _ in range(rng.randint(0, 5))}
        data[Fraction(1, 2)] = a1 - 1
        if k % 2:
            data[Fraction(2)] = (a2 - 1) / (a1 + 1)
        f = TruncatedSeries(data, Fraction(rng.randint(2, 14), 2))
        place = Place(rng.choice((1, 2)), Fraction(rng.choice((1, 1, -1, 2)), rng.choice((1, 1, 2))))
        images = [(e, apply_place(c, place)) for e, c in f.terms]
        if any(image is INFINITE for _, image in images):
            with pytest.raises(NotInValuationRingError):
                f.specialize(place)
            continue
        got = f.specialize(place)
        assert got == TruncatedSeries(images, f.prec), (str(f), place)
        assert all(not c.is_zero() for _, c in got.terms)
        vanished += len(got.terms) < len(f.terms)
    assert vanished >= 30, vanished


def test_rank_mismatch():
    f = ts({1: 1}, 5)
    g = TruncatedSeries({(1, 0): 1}, (3, 0))
    with pytest.raises(RankMismatchError):
        f + g


def test_rank2_series():
    f = TruncatedSeries({(0, 1): 1, (1, -2): 3}, (2, 0))
    assert f.v_min() == Exponent((0, 1))
    g = f * f
    assert g.v_min() == Exponent((0, 2))


def test_str_examples():
    assert str(ts({Fraction(1, 2): Fraction(3, 2), 2: a1}, 5)) == (
        "3/2*t^(1/2) + a1*t^2 + O(t^5)"
    )
    assert str(ts({}, 3)) == "0 + O(t^3)"
    assert str(ts({0: 1, 1: -1}, 4)) == "1 - t + O(t^4)"


# The term printer that rebuilt monomial text by hand, kept as an oracle for
# the one that prints coefficients through Coefficient.__str__.


def oracle_term_str(e, c, first):
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


def oracle_str(f):
    parts = [oracle_term_str(e, c, first=not i) for i, (e, c) in enumerate(f.terms)]
    return " ".join(parts or ["0"]) + f" + O({_t_power(f.prec)})"


def printer_coefficient(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Coefficient.const(rng.choice((1, -1)))
    if kind == 1:
        return Coefficient.const(Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 7))))
    if kind == 2:
        q = Fraction(rng.choice((1, -1, 3, -5)), rng.choice((1, 2)))
        return a1**2 * Coefficient.alpha(3) * q
    if kind == 3:  # a single transcendental, possibly negated
        return Coefficient.alpha(rng.randint(1, 3)) * rng.choice((1, -1))
    # multi-term numerators and rational functions
    return rand_coeff(rng, (1, 2, 3), max_deg=2, allow_den=kind == 5)


def printer_exponent(rng, rank):
    coords = [Fraction(rng.randint(-6, 8), rng.choice((1, 1, 2, 3))) for _ in range(rank)]
    return tuple(0 if rng.random() < 0.2 else c for c in coords)


def test_str_matches_term_printer_oracle():
    rng = random.Random(1307)
    for i in range(2400):
        rank = 1 if i % 3 else 2
        data = {printer_exponent(rng, rank): printer_coefficient(rng)}
        for _ in range(rng.randint(0, 5)):
            data[printer_exponent(rng, rank)] = printer_coefficient(rng)
        prec = (Fraction(rng.randint(-2, 18), 2),) + (Fraction(rng.randint(-2, 2)),) * (rank - 1)
        f = ts(data, prec)
        assert str(f) == oracle_str(f)
        assert str(-f) == oracle_str(-f)


def test_rational_scalar_mul_runs_no_gcd(monkeypatch):
    import hahnseries.coeffs as coeffs_mod

    f = ts({k: Fraction(k + 1, 3 + k) for k in range(16)}, 16)
    cubic = SeriesPolynomial(
        [ts({k: Fraction(d * k - 1, k + 2) for k in range(16)}, 16) for d in range(4)]
    )
    calls = []
    real_gcd = coeffs_mod.poly_gcd

    def counting_gcd(*args):
        calls.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(coeffs_mod, "poly_gcd", counting_gcd)
    scaled = f.scalar_mul(Fraction(2, 3))
    assert calls == []
    derivative = cubic.derivative()
    assert calls == []
    monkeypatch.undo()
    assert scaled == ts({e: c * Fraction(2, 3) for e, c in f.terms}, 16)
    expected = [ts({e: k * i for e, k in c.terms}, 16) for i, c in enumerate(cubic.coeffs)]
    assert derivative == SeriesPolynomial(expected[1:])
    # a symbolic scalar still multiplies through the field
    g = f.scalar_mul(a1 / (a1 + 1))
    assert g == ts({e: c * (a1 / (a1 + 1)) for e, c in f.terms}, 16)


# The truncated power sums that first_order replaced, kept as an oracle:
# sum c_i * x^i by series products, up to the first i with i*v(x) >= prec.


def power_series(x, coeffs):
    zero = x.prec.scale(0)
    if not x.prec > zero:
        raise PreconditionError("argument precision must exceed 0")
    if x.terms and not x.terms[0][0] > zero:
        raise PreconditionError(f"v_min must be positive, got {x.terms[0][0]}")
    n = reach_count(x.v_floor(), x.prec)
    if n is None:
        raise PrecisionError(
            "precision unreachable by integer multiples of the valuation"
        )
    coeffs = iter(coeffs)
    acc = TruncatedSeries.one(x.prec).scalar_mul(next(coeffs))
    power = TruncatedSeries.one(x.prec)
    for _, c in zip(range(1, n), coeffs):
        power = power * x
        acc = acc + power.scalar_mul(c)
    return acc


def exp_coeffs():
    return (Fraction(1, factorial(i)) for i in count())


def log_coeffs():
    return chain([0], (Fraction((-1) ** (i + 1), i) for i in count(1)))


def binomials(q):
    out = accumulate(count(1), lambda c, i: c * (q - i + 1) / i, initial=Fraction(1))
    if q.denominator == 1 and q > 0:
        out = islice(out, int(q) + 1)
    return out


def inv_by_power_sum(f):
    if not f.terms:
        raise PreconditionError("cannot invert a series that is zero at precision")
    v, c0 = f.terms[0]
    c0_inv = Coefficient.one() / c0
    unit = f.shift_scale(c0_inv, -v)
    inv_unit = power_series(TruncatedSeries.one(unit.prec) - unit, repeat(1))
    return inv_unit.shift_scale(c0_inv, -v)


def outcome(fn):
    try:
        out = fn()
    except HahnSeriesError as err:
        return type(err), str(err)
    return out.series if isinstance(out, OneUnit) else out


def _all_rational(f):
    return all(c.is_const() for _, c in f.terms)


POW_EXPONENTS = [Fraction(n, d) for n, d in ((2, 1), (3, 1), (-1, 1), (-6, 1), (1, 3), (-5, 2))]


def oracle_cases(rng):
    """Seeded arguments x for F(x): rank 1 on three grids over Q and Q(a1),
    rank 2 reachable and not, zero, empty and non-infinitesimal ones."""
    cases = []
    for k in range(200):
        den = (1, 2, 3)[k % 3]
        symbolic = k % 4 == 3
        top = 8 if symbolic else 6 * den
        prec = Fraction(rng.randint(1, top), den)
        terms = rng.randint(0, 5 if symbolic else 7)
        data = {}
        for _ in range(terms):
            e = Fraction(rng.randint(1, top), den)
            if symbolic:
                data[e] = rand_coeff(rng, (1,), max_deg=1)
            else:
                data[e] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        cases.append(TruncatedSeries(data, prec))
    reachable = [
        ([(1, -1), (1, 0), (1, 2)], (3, 0)),
        ([(1, -1), (1, 0), (2, -3)], (3, 0)),
        ([(1, 0), (1, 1), (2, -1)], (3, 0)),
        ([(0, 1), (0, 3)], (0, 4)),  # archimedean class 2
        ([(0, Fraction(1, 2)), (0, 2)], (0, Fraction(7, 2))),
    ]
    unreachable = [
        ([(0, 1)], (1, 0)),
        ([(0, 1), (1, 0)], (2, 0)),
        ([(0, 2), (1, -1)], (3, 0)),
        ([(0, 1), (0, 2)], (1, -1)),
    ]
    for supports, weight in ((reachable, 16), (unreachable, 6)):
        for support, prec in supports:
            for _ in range(weight):
                picked = rng.sample(support, rng.randint(1, len(support)))
                data = {e: Fraction(rng.randint(1, 4) * rng.choice((1, -1)), rng.choice((1, 2))) for e in picked}
                cases.append(TruncatedSeries(data, prec))
    cases += [
        TruncatedSeries({}, 3),
        TruncatedSeries({}, (1, 0)),
        TruncatedSeries({1: 0}, Fraction(5, 2)),
        TruncatedSeries({0: 1, 1: 2}, 4),
        TruncatedSeries({-1: 1, 2: 1}, 4),
        TruncatedSeries({Fraction(-1, 2): 3}, 2),
        TruncatedSeries({(0, -1): 1, (1, 0): 1}, (2, 0)),
        TruncatedSeries({}, 0),
        TruncatedSeries({Fraction(-1): 2}, Fraction(-1, 2)),
    ]
    # constant and Q(a1) coefficients in one argument
    for k in range(24):
        den = (1, 2)[k % 2]
        data = {Fraction(rng.randint(1, 3 * den), den): Fraction(rng.randint(1, 5), rng.choice((1, 2)))
                for _ in range(rng.randint(1, 3))}
        data[Fraction(rng.randint(1, 3 * den), den)] = rand_coeff(rng, (1,), max_deg=1)
        cases.append(TruncatedSeries(data, Fraction(rng.randint(2, 4 * den), den)))
    return cases


def test_first_order_matches_power_sums():
    rng = random.Random(1729)
    cases = oracle_cases(rng)
    assert len(cases) >= 300
    refusals = mixed = 0
    for x in cases:
        q = rng.choice(POW_EXPONENTS)
        pairs = [
            (lambda: exp(x), lambda: OneUnit(power_series(x, exp_coeffs()))),
            (lambda: first_order(x, 1, 0, 1), lambda: power_series(x, log_coeffs())),
            (lambda: first_order(x, 1, q, 0), lambda: power_series(x, binomials(q))),
        ]
        if x.prec > x.prec.scale(0):
            u = TruncatedSeries.one(x.prec) + x
            if x.terms and x.terms[0][0] > x.prec.scale(0):
                pairs += [
                    (lambda: log(OneUnit(u)), lambda: power_series(x, log_coeffs())),
                    (lambda: unit_pow(OneUnit(u), q), lambda: power_series(x, binomials(q))),
                ]
            pairs.append((lambda: u.inv(), lambda: inv_by_power_sum(u)))
        pairs.append((lambda: x.inv(), lambda: inv_by_power_sum(x)))
        for kernel, oracle in pairs:
            got, want = outcome(kernel), outcome(oracle)
            assert got == want, (str(x), q)
            refusals += isinstance(want, tuple)
            if isinstance(got, TruncatedSeries):
                assert all(type(c) is Fraction for e, _ in got.terms for c in e.coords)
                mixed += not _all_rational(x) and any(c.is_const() for _, c in x.terms)
    assert refusals > 100
    assert mixed > 40


# The product's full double loop, before it stopped at the cut, kept as an
# oracle: every pair is formed and the pairs at or past prec are dropped.


def _full_product(f, g):
    g = f._coerce(g)
    prec = min(f.prec + g.v_floor(), g.prec + f.v_floor())
    out = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = e1 + e2
            if not e < prec:
                continue
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    return TruncatedSeries(out, prec)


def _dense(rng, den, lo, n, prec, coeff):
    """n consecutive terms on the grid 1/den from lo/den, cut at prec."""
    return TruncatedSeries({Fraction(lo + k, den): coeff(rng) for k in range(n)}, prec)


def _rank2(rng, coeff):
    data = {
        (Fraction(rng.randint(-1, 2)), Fraction(rng.randint(-3, 3), rng.choice((1, 2)))): coeff(rng)
        for _ in range(rng.randint(0, 6))
    }
    return TruncatedSeries(data, (Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2))))


def product_cases(rng):
    """Seeded factor pairs: dense and sparse, negative, zero and fractional
    exponents, mixed grids, zero at precision, rank 2, Q and Q(a1)."""
    rational = lambda r: Fraction(r.randint(-9, 9), r.randint(1, 6))  # noqa: E731
    symbolic = lambda r: rand_coeff(r, (1,), max_deg=1)  # noqa: E731
    cases = []
    for k in range(360):
        coeff = symbolic if k % 5 == 4 else rational
        kind = k % 4
        if kind == 0:  # dense on mixed grids
            pair = []
            for _ in range(2):
                den = rng.choice((1, 2, 3))
                lo = rng.randint(-2 * den, den)
                n = rng.randint(1, 10)
                pair.append(_dense(rng, den, lo, n, Fraction(lo + n + rng.randint(-3, 3), den), coeff))
        elif kind == 1:  # sparse
            pair = [
                rand_series(rng, prec=Fraction(rng.randint(0, 12), rng.choice((1, 2))),
                            terms=rng.randint(1, 6), variables=(1,) if coeff is symbolic else (),
                            lo=-3, hi=6, nonzero=rng.random() < 0.9)
                for _ in range(2)
            ]
        elif kind == 2:  # rank 2
            pair = [_rank2(rng, coeff) for _ in range(2)]
        else:  # one factor zero at precision, or a scalar
            f = rand_series(rng, prec=rng.randint(0, 8), terms=5, lo=-2, hi=6)
            g = rng.choice((TruncatedSeries({}, rng.randint(-2, 6)), coeff(rng), 0))
            pair = [f, g] if rng.random() < 0.5 else [g, f]
            if not isinstance(pair[0], TruncatedSeries):
                pair.reverse()
        cases.append(tuple(pair))
    # the same factors with the two precisions each deciding the cut
    for _ in range(40):
        f = _dense(rng, 2, -1, 8, Fraction(7, 2), rational)
        g = _dense(rng, 3, 1, 8, Fraction(rng.randint(3, 12), 3), rational)
        cases.append((f, g))
    # constant and symbolic coefficients in one factor, beside a Q factor
    # or another mixed one, on either side
    mixed = lambda r: symbolic(r) if r.random() < 0.3 else rational(r)  # noqa: E731
    for k in range(60):
        f = _dense(rng, rng.choice((1, 2)), rng.randint(-2, 1), rng.randint(2, 8), 5, mixed)
        g = _dense(rng, rng.choice((1, 3)), rng.randint(-1, 2), rng.randint(1, 8), 6,
                   rational if k % 3 else mixed)
        cases.append((f, g) if k % 2 else (g, f))
    return cases


def test_product_matches_full_double_loop():
    rng = random.Random(4037)
    cases = product_cases(rng)
    assert len(cases) >= 400
    decided = {"self": 0, "other": 0}
    nonzero = 0
    for f, g in cases:
        got, want = f * g, _full_product(f, g)
        assert got.terms == want.terms and got.prec == want.prec, (str(f), str(g))
        assert all(type(q) is Fraction for e, _ in got.terms for q in e.coords)
        if isinstance(g, TruncatedSeries):
            a, b = f.prec + g.v_floor(), g.prec + f.v_floor()
            decided["self" if a < b else "other"] += a != b
        nonzero += bool(got.terms)
    assert min(decided.values()) > 50
    assert nonzero > 250
    kinds = {(_all_rational(f), _all_rational(g)) for f, g in cases if isinstance(g, TruncatedSeries)}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


# The Fraction kernels that the integer kernels replaced, kept as an
# oracle: every term pair is one Fraction (or Coefficient) product and sum.


def _fraction_lift(prec, *series):
    exps = [prec] + [e for f in series for e, _ in f.terms]
    grid = lcm(*{q.denominator for e in exps for q in e.coords})
    values = [[c._value() for _, c in f.terms] for f in series]
    plain = all(v is not None for vs in values for v in vs)
    lifted = [[(_indices(e, grid), v if plain else c) for (e, c), v in zip(f.terms, vs)]
              for f, vs in zip(series, values)]
    return grid, plain, _indices(prec, grid), lifted


def _fraction_drop(out, grid, plain, prec):
    terms = tuple(
        (Exponent._of(tuple(Fraction(k, grid) for k in e)),
         Coefficient.const(c) if plain else c)
        for e, c in sorted(out.items())
        if (c if plain else not c.is_zero())
    )
    return TruncatedSeries._of(terms, prec)


def _fraction_product(f, g):
    g = f._coerce(g)
    prec = min(f.prec + g.v_floor(), g.prec + f.v_floor())
    grid, plain, cut, (lhs, rhs) = _fraction_lift(prec, f, g)
    out = {}
    for a, c1 in lhs:
        room = tuple(map(operator.sub, cut, a))
        if not rhs or not rhs[0][0] < room:
            break
        for b, c2 in rhs:
            if not b < room:
                break
            e = tuple(map(operator.add, a, b))
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    return _fraction_drop(out, grid, plain, prec)


def _fraction_first_order(x, lam, q, mu):
    zero = x.prec.scale(0)
    if not x.prec > zero:
        raise PreconditionError("argument precision must exceed 0")
    if x.terms and not x.terms[0][0] > zero:
        raise PreconditionError(f"v_min must be positive, got {x.terms[0][0]}")
    if reach_count(x.v_floor(), x.prec) is None:
        raise PrecisionError(
            "precision unreachable by integer multiples of the valuation"
        )
    grid, plain, cut, (xs,) = _fraction_lift(x.prec, x)
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
            gd = g.get(tuple(map(operator.sub, e, b)))
            if gd is None:
                continue
            w = q * b[j] - lam * (ej - b[j])
            if w:
                p = xb * gd * w
                acc = p if acc is None else acc + p
        if acc is not None and (acc if plain else not acc.is_zero()):
            g[e] = acc * Fraction(1, ej)
    return _fraction_drop(g, grid, plain, x.prec)


K = KRONECKER_TERMS
BIG = 10**61  # numerators and denominators of 60+ digits


def _coefficients(rng, kind):
    """A coefficient maker: small, all negative, 60+ digit numerators (all
    negative too), equal and near the packing bound, denominators too far
    apart for the integer form (see INT_BITS), or in Q(a1)."""
    return {
        "small": lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)),
        "negative": lambda: -Fraction(rng.randint(1, 9), rng.randint(1, 6)),
        "big": lambda: Fraction(rng.choice((-1, 1)) * rng.randint(BIG, 10 * BIG), rng.randint(1, 6)),
        "big negative": lambda: -Fraction(rng.randint(BIG, 10 * BIG), rng.choice((1, 7, 1001))),
        "extreme": lambda: Fraction(2**200 - 1),
        "coprime": lambda: Fraction(rng.randint(1, 9), rng.randint(BIG, 10 * BIG)),
        "symbolic": lambda: rand_coeff(rng, (1,), max_deg=1),
    }[kind]


def _run(rng, n, den, lo, step, coeff, prec=None):
    """n terms on the grid 1/den from lo/den, step grid points apart on
    average (1: dense), cut at prec (default: past the last term)."""
    idx = sorted(rng.sample(range(n * step), n)) if step > 1 else range(n)
    top = lo + n * step if prec is None else prec
    return TruncatedSeries({Fraction(lo + i, den): coeff() for i in idx}, Fraction(top, den))


def kernel_product_cases(rng):
    """Factor pairs around the Kronecker cut-over: K - 1, K and K + 1 terms;
    negative, zero and fractional exponents; one grid and mixed grids;
    dense, sparse at the density limit and past it; every coefficient
    kind; cuts inside the product; slots that cancel to zero."""
    cases = product_cases(rng)
    kinds = ("small", "negative", "big", "big negative", "extreme", "coprime", "symbolic")
    for n in (K - 1, K, K + 1):
        for kind in kinds:
            coeff = _coefficients(rng, kind)
            for den_f, den_g in ((1, 1), (2, 2), (3, 3), (2, 3), (1, 2)):
                lo_f, lo_g = rng.choice((-3 * den_f, 0, 1)), rng.choice((-1, 0, den_g))
                f = _run(rng, n, den_f, lo_f, 1, coeff)
                g = _run(rng, n + rng.randint(0, 2), den_g, lo_g, 1, coeff)
                cases.append((f, g))
                # a cut inside the product: the second factor's precision set low
                cases.append((f, _run(rng, n, den_g, lo_g, 1, coeff, prec=lo_g + rng.randint(1, n))))
            for step in (DENSITY - 1, DENSITY, DENSITY + 1):
                cases.append((_run(rng, n, 2, -1, step, coeff), _run(rng, n, 2, 1, step, coeff)))
    for n in (K - 1, K, K + 1, 3 * K):
        ones = TruncatedSeries({k: 1 for k in range(n)}, n)
        cases.append((ones, TruncatedSeries({0: 1, 1: -1}, n)))  # 1 - t^n: zero slots
        cases.append((ones, TruncatedSeries({k: (-1) ** k for k in range(n)}, n)))
        cases.append((ones, ones.scalar_mul(-1)))
        # every slot of the packed product at its bound: 200 + 199 bits of
        # factors fill the slot width exactly, and n products add to that
        wide = ones.scalar_mul(2**200 - 1)
        cases.append((wide, ones.scalar_mul(2**199 - 1)))
        cases.append((wide.scalar_mul(-1), ones.scalar_mul(2**199 - 1)))
    return cases


def _spy(monkeypatch, name):
    """Calls to the series module's function name, recorded as it runs."""
    calls, real = [], getattr(series_module, name)
    monkeypatch.setattr(series_module, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("int_bits", [0, INT_BITS])
def test_integer_product_matches_the_fraction_kernel(monkeypatch, int_bits):
    """With INT_BITS at 0 every rational product with a denominator runs on
    Fractions; at its value most run on integers, and the coprime cases
    outgrow it."""
    monkeypatch.setattr(series_module, "INT_BITS", int_bits)
    rng = random.Random(8117)
    cases = kernel_product_cases(rng)
    assert len(cases) >= 700
    packed, scaled = _spy(monkeypatch, "_kronecker"), _spy(monkeypatch, "_numerators")
    paths = Counter()
    for f, g in cases:
        before = len(scaled)
        got, want = f * g, _fraction_product(f, g)
        assert got.terms == want.terms and got.prec == want.prec, (str(f), str(g))
        if _all_rational(f) and _all_rational(f._coerce(g)):
            paths["integers" if len(scaled) > before else "fractions"] += 1
    if int_bits:
        assert len(packed) > 60 and paths["integers"] > 400 and paths["fractions"] > 20
        # the cut-over: dense rational factors of K terms take the packed product
        for n, used in ((K - 1, False), (K, True), (K + 1, True)):
            f = _run(rng, n, 2, 1, 1, _coefficients(rng, "big negative"))
            packed.clear()
            assert (f * f).terms == _fraction_product(f, f).terms
            assert bool(packed) is used, n
        f = _run(rng, K + 1, 1, 0, 1, _coefficients(rng, "symbolic"))
        packed.clear()
        assert (f * f).terms == _fraction_product(f, f).terms and not packed
    else:
        assert paths["fractions"] > 400, paths  # only D1 = D2 = 1 stays on integers


KERNEL_EQUATIONS = [
    (0, 1, 0),  # exp
    (1, 0, 1),  # log
    (1, -1, 0),  # 1/(1 + x)
    (1, Fraction(-5, 3), 0),  # (1 + x)^(-5/3)
    (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)),  # rational lam and mu
    (2, 3, -1),
]


def kernel_first_order_cases(rng):
    """Infinitesimals: the first_order oracle's cases, then long dense and
    sparse ones with K - 1 to 3K terms, big and all-negative numerators,
    fractional exponents, rank 2 and Q(a1) values."""
    cases = oracle_cases(rng)
    for n in (K - 1, K, K + 1, 3 * K):
        for kind in ("small", "negative", "big", "big negative", "coprime", "symbolic"):
            if n > K + 1 and kind in ("coprime", "symbolic"):
                continue
            coeff = _coefficients(rng, kind)
            den = rng.choice((1, 2, 3))
            cases.append(_run(rng, n, den, 1, 1, coeff))
            cases.append(_run(rng, n // 2, den, 2, 3, coeff, prec=2 + n))
    for _ in range(20):
        coeff = _coefficients(rng, rng.choice(("big", "big negative", "coprime", "symbolic")))
        data = {(Fraction(rng.randint(0, 1)), Fraction(rng.randint(-2, 3), rng.choice((1, 2)))): coeff()
                for _ in range(rng.randint(1, 5))}
        cases.append(TruncatedSeries({e: c for e, c in data.items() if e > (0, 0)}, (2, 0)))
    return cases


@pytest.mark.parametrize("int_bits", [0, INT_BITS])
def test_integer_first_order_matches_the_fraction_kernel(monkeypatch, int_bits):
    monkeypatch.setattr(series_module, "INT_BITS", int_bits)
    rng = random.Random(6221)
    cases = kernel_first_order_cases(rng)
    assert len(cases) >= 350
    scaled = _spy(monkeypatch, "_numerators")
    paths = Counter()
    for x in cases:
        for lam, q, mu in KERNEL_EQUATIONS:
            before = len(scaled)
            got = outcome(lambda: first_order(x, lam, q, mu))
            want = outcome(lambda: _fraction_first_order(x, lam, q, mu))
            assert got == want, (str(x), lam, q, mu)
            if isinstance(got, TruncatedSeries):
                rational = _all_rational(x)
                paths["integers" if len(scaled) > before else "fractions" if rational else "field"] += 1
        if x.terms and x.prec > x.prec.scale(0):
            u = x.shift_scale(1, -x.terms[0][0]).scalar_mul(Fraction(-3, 7))
            assert outcome(u.inv) == outcome(lambda: _fraction_inv(u)), str(u)
    assert sum(paths.values()) > 1200 and paths["field"] > 100, paths
    if int_bits:
        assert paths["integers"] > 1500 and paths["fractions"] > 25, paths
    else:
        assert paths["fractions"] > 1000, paths  # only s = c*D = 1 stays on integers


def _fraction_inv(f):
    v, c0 = f.terms[0]
    c0_inv = Coefficient.one() / c0
    unit = f.shift_scale(c0_inv, -v)
    return _fraction_first_order(unit - 1, 1, -1, 0).shift_scale(c0_inv, -v)


# The public-operation forms that the lifted kernels replaced, kept as
# oracles: Horner's rule over series products and sums, and the inverse
# that scales by 1/c0 with shift_scale before and after first_order.


def _public_eval_poly(q, f):
    coeffs = q.coeffs
    if not coeffs:
        return TruncatedSeries.zero(f.prec)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * f + c
    return acc


def _shift_scale_inv(f):
    if not f.terms:
        raise PreconditionError("cannot invert a series that is zero at precision")
    v, c0 = f.terms[0]
    c0_inv = Coefficient.one() / c0
    unit = f.shift_scale(c0_inv, -v)
    return first_order(unit - 1, 1, -1, 0).shift_scale(c0_inv, -v)


def _same(got, want):
    """Equal outcomes, and a series on Fraction exponents, as the public
    operations build them (coefficients are canonical, so equal ones are
    built alike)."""
    if isinstance(got, TruncatedSeries):
        exps = [got.prec] + [e for e, _ in got.terms]
        return got == want and all(type(q) is Fraction for e in exps for q in e.coords)
    return got == want


RATIONAL = lambda r: Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 6))  # noqa: E731
SYMBOLIC = lambda r: rand_coeff(r, (1,), max_deg=1)  # noqa: E731


def inverse_cases(rng):
    """Series to invert over Q (small, big and coprime values, the leading
    numerator negative in half of them) and Q(a1); dense, sparse and
    monomials on three grids; rank 2, reachable and not."""
    cases = []
    for n in (1, 2, 4, K - 1, K + 1):
        for kind in ("small", "negative", "big", "big negative", "coprime", "symbolic"):
            if kind == "symbolic" and n > 4:
                continue
            coeff = _coefficients(rng, kind)
            for den in (1, 2, 3):
                f = _run(rng, n, den, rng.randint(-3, 2), rng.choice((1, 2)), coeff)
                cases += [f, f.scalar_mul(-1)]
    for k in range(80):
        f = _rank2(rng, SYMBOLIC if k % 4 == 3 else RATIONAL)
        if f.terms:
            cases += [f, f.scalar_mul(-1)]
    return cases


@pytest.mark.parametrize("int_bits", [0, INT_BITS])
def test_inv_matches_the_shift_scale_form(monkeypatch, int_bits):
    monkeypatch.setattr(series_module, "INT_BITS", int_bits)
    rng = random.Random(3307)
    kinds = Counter()
    for f in inverse_cases(rng):
        got, want = outcome(f.inv), outcome(lambda: _shift_scale_inv(f))
        assert _same(got, want), str(f)
        rational = _all_rational(f)
        kinds["Q" if rational else "Q(a1)"] += 1
        kinds["negative c0"] += rational and f.terms[0][1].as_fraction() < 0
        kinds["rank 2"] += f.rank == 2
        kinds["refused"] += isinstance(got, tuple)
    assert kinds["Q"] > 150 and kinds["Q(a1)"] > 30 and kinds["negative c0"] > 80, kinds
    assert kinds["rank 2"] > 100 and kinds["refused"] > 5, kinds


def horner_cases(rng):
    """(q, f) with q of degree 0 to 4: coefficients of unequal precisions
    and valuations, over Q and Q(a1), rank 1 and 2, f zero at precision
    or not; then dense ones around the Kronecker cut-over."""
    cases = []
    for k in range(300):
        symbolic = k % 5 == 4
        if k % 3 == 2:
            coeff = SYMBOLIC if symbolic else RATIONAL
            make = lambda: _rank2(rng, coeff)  # noqa: E731
        else:
            make = lambda: rand_series(  # noqa: E731
                rng, prec=Fraction(rng.randint(0, 12), rng.choice((1, 2))), terms=rng.randint(0, 6),
                variables=(1,) if symbolic else (), lo=-2, hi=6)
        cases.append((SeriesPolynomial([make() for _ in range(rng.randint(0, 4) + 1)]), make()))
    for n in (4, K, K + 1):
        for kind in ("small", "big", "coprime"):
            coeff = _coefficients(rng, kind)
            den = rng.choice((1, 2))
            coeffs = [_run(rng, n, den, rng.randint(0, 2), 1, coeff) for _ in range(3)]
            cases.append((SeriesPolynomial(coeffs), _run(rng, n, den, 0, 1, coeff)))
    return cases


@pytest.mark.parametrize("int_bits", [0, INT_BITS])
def test_eval_poly_matches_horner_over_public_operations(monkeypatch, int_bits):
    monkeypatch.setattr(series_module, "INT_BITS", int_bits)
    rng = random.Random(9413)
    kinds = Counter()
    for q, f in horner_cases(rng):
        got, want = outcome(lambda: eval_poly(q, f)), outcome(lambda: _public_eval_poly(q, f))
        assert _same(got, want), (str(q), str(f))
        precs = {c.prec for c in q.coeffs}
        kinds["unequal precisions"] += len(precs) > 1
        kinds["Q(a1)"] += not all(_all_rational(c) for c in (*q.coeffs, f))
        kinds["rank 2"] += f.rank == 2
        kinds["nonzero"] += bool(got.terms)
    assert kinds["unequal precisions"] > 150 and kinds["Q(a1)"] > 30, kinds
    assert kinds["rank 2"] > 80 and kinds["nonzero"] > 150, kinds
