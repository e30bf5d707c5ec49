import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense, rand_coeff, rand_fraction, rand_poly
from hahnseries.coeffs import (
    INFINITE,
    Coefficient,
    Place,
    apply_place,
    default_candidates,
    finite_place_for,
)
from hahnseries.polynomials import Poly, poly_gcd

a1 = Coefficient.alpha(1)
a2 = Coefficient.alpha(2)
a3 = Coefficient.alpha(3)
one = Coefficient.one()


def test_cancellation_examples():
    assert a1 / a1 == one
    assert (a1**2 - 1) / (a1 - 1) == a1 + 1
    # cleared by hand: 1/(1-x) + 1/(1+x) = 2/(1-x^2)
    lhs = one / (1 - a1) + one / (1 + a1)
    rhs = Coefficient.const(2) / (1 - a1**2)
    assert lhs == rhs


def test_canonical_form_unique(rng):
    for _ in range(150):
        a = rand_coeff(rng, (1, 2))
        b = rand_coeff(rng, (1, 2))
        # build the same element along two different routes
        lhs = (a + b) * (a - b)
        rhs = a * a - b * b
        assert lhs == rhs
        assert lhs.num == rhs.num and lhs.den == rhs.den


def test_scale_matches_product_with_constant(rng):
    for _ in range(200):
        c = rand_coeff(rng, (1, 2))
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
        scaled = c.scale(q)
        assert scaled == c * Coefficient.const(q)
        assert scaled.den.leading_coeff() == 1
    zero = rand_coeff(rng, (1, 2)).scale(0)
    assert zero == Coefficient.zero()
    assert zero.den == Coefficient.one().den


def test_zero_and_division():
    assert (a1 - a1).is_zero()
    with pytest.raises(ZeroDivisionError):
        one / (a1 - a1)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
linear_coeffs = st.builds(
    lambda p, q, r: Coefficient.const(p) + a1 * q + a2 * r,
    small_fracs,
    small_fracs,
    small_fracs,
)


@given(linear_coeffs, linear_coeffs, linear_coeffs)
def test_field_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) * z == x * z + y * z
    if not z.is_zero():
        assert (x / z) * z == x


def test_apply_place_examples():
    assert apply_place(a1**2 + a2, Place(1, Fraction(3))) == 9 + a2
    assert apply_place(one / (a1 - 2), Place(1, Fraction(2))) is INFINITE
    # kernel elements divide out before substitution
    c = (a1**2 - 4) / (a1 - 2)
    assert apply_place(c, Place(1, Fraction(2))) == Coefficient.const(4)


def test_apply_place_homomorphism(rng):
    checked = 0
    while checked < 500:
        a = rand_coeff(rng, (1, 2))
        b = rand_coeff(rng, (1, 2))
        q = Fraction(rng.randint(-4, 4))
        place = Place(1, q)
        fa, fb = apply_place(a, place), apply_place(b, place)
        fs, fp = apply_place(a + b, place), apply_place(a * b, place)
        if INFINITE in (fa, fb):
            continue
        assert fs == fa + fb
        assert fp == fa * fb
        checked += 1


def test_apply_place_keeps_elements_without_the_variable(rng, monkeypatch):
    import hahnseries.coeffs as coeffs_mod

    substituted = []
    real_subs = Poly.subs_var
    monkeypatch.setattr(Poly, "subs_var", lambda p, *a: substituted.append(p) or real_subs(p, *a))
    planted = 0
    for k in range(200):
        c = rand_coeff(rng, (2, 3)) if k % 4 else Coefficient.const(rand_fraction(rng))
        place = Place(1, Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
        # the image of an element without a1 is the element, and nothing is substituted
        assert apply_place(c, place) == c
        assert coeffs_mod._finite_den(c, place) == c.den
        assert substituted == []
        # a pole planted at a1 = q is still found
        if not c.is_zero():
            pole = c / (a1 - place.q)
            assert apply_place(pole, place) is INFINITE
            assert coeffs_mod._finite_den(pole, place) is None
            assert apply_place(c * (a1 - place.q + 1), place) == c
            planted += 1
            substituted.clear()
    assert planted > 150


def test_pole_set_is_finite(rng):
    for _ in range(60):
        c = rand_coeff(rng, (1,), allow_den=True)
        deg = len(dense(c.den, 1)) - 1
        poles = sum(
            1
            for q in range(-20, 21)
            if apply_place(c, Place(1, Fraction(q))) is INFINITE
        )
        assert poles <= deg


def test_variables_of_examples():
    assert ((a1 + a2) - a2).variables() == {1}
    assert Coefficient.const(Fraction(5, 7)).variables() == set()
    assert (a1 * a3 / a3).variables() == {1}


def test_default_candidates():
    it = default_candidates()
    assert [next(it) for _ in range(5)] == [0, 1, -1, 2, -2]


def test_finite_place_for_examples():
    # q=0 skipped by the nonzero rule, q=1 is a pole, then -1 is finite
    p = finite_place_for([one / (a1 - 1)], 1)
    assert (p.var, p.q) == (1, Fraction(-1))
    p = finite_place_for([a1], 1)
    assert (p.var, p.q) == (1, Fraction(1))
    p = finite_place_for([], 1)
    assert (p.var, p.q) == (1, Fraction(1))


def test_finite_place_custom_candidates():
    p = finite_place_for([one / (a1 - 1)], 1, candidates=[0, 1, 5, 7])
    assert p.q == Fraction(5)
    from hahnseries.errors import PreconditionError

    with pytest.raises(PreconditionError):
        finite_place_for([one / (a1 - 1)], 1, candidates=[0, 1])


def test_place_scan_canonicalizes_nothing(monkeypatch):
    import hahnseries.coeffs as coeffs_mod
    import hahnseries.polynomials as poly_mod

    # poles at a1 = 1, -1, 2, -2: the scan must reach 3
    cs = [
        one / (a1 - 1),
        (a1 + a2) / (a1**2 - 4),
        a3 / (a1 * a2 + 3),
        (a2 - a3) / (a1 + 1),
    ]
    calls = []
    real_init, real_gcd = Coefficient.__init__, poly_mod.poly_gcd

    def counting_init(self, *args, **kwargs):
        calls.append("Coefficient.__init__")
        real_init(self, *args, **kwargs)

    def counting_gcd(p, q):
        calls.append("poly_gcd")
        return real_gcd(p, q)

    monkeypatch.setattr(Coefficient, "__init__", counting_init)
    monkeypatch.setattr(coeffs_mod, "poly_gcd", counting_gcd)
    monkeypatch.setattr(poly_mod, "poly_gcd", counting_gcd)
    place = finite_place_for(cs, 1)
    assert calls == []
    monkeypatch.undo()
    assert place == Place(1, Fraction(3))
    assert all(apply_place(c, place) is not INFINITE for c in cs)


def test_powers_and_inverse():
    assert a1**3 / a1 == a1**2
    assert a1 ** (-2) == one / a1**2
    assert (a1 / a2) ** 2 == a1**2 / a2**2


def test_powers_match_repeated_products(rng, monkeypatch):
    import hahnseries.coeffs as coeffs_mod
    import hahnseries.polynomials as poly_mod

    xs = [rand_coeff(rng, (1, 2)) for _ in range(200)]
    for i, x in enumerate(xs):
        n = i % 8 - 3
        want = one
        for _ in range(abs(n)):
            want = want * x
        if n < 0:
            want = one / want
        assert x**n == want, (x, n)
    assert Coefficient.zero() ** 3 == Coefficient.zero()
    # n >= 0 keeps the canonical form without a gcd
    calls = []
    real_gcd = poly_mod.poly_gcd

    def counting_gcd(p, q):
        calls.append((p, q))
        return real_gcd(p, q)

    monkeypatch.setattr(coeffs_mod, "poly_gcd", counting_gcd)
    monkeypatch.setattr(poly_mod, "poly_gcd", counting_gcd)
    for x in xs[:50]:
        for n in range(5):
            x**n
    assert calls == []


def test_place_variable_index():
    from hahnseries.errors import PreconditionError

    for var in (0, -2):
        with pytest.raises(PreconditionError, match="start at 1"):
            Place(var, Fraction(1))


def test_str_roundtrippable_forms():
    assert str(one / (a1 - 1)) == "1/(a1 - 1)"
    assert str((a1 + 1) / a2) == "(a1 + 1)/(a2)"
    assert str(Coefficient.const(Fraction(-3, 2))) == "-3/2"


def test_span_rows_canonicalize_nothing(monkeypatch):
    # the rows of a dependence system have denominator 1: already canonical
    import hahnseries.coeffs as coeffs_mod
    from hahnseries.linalg import _expand_columns

    cs = [a1 * a2 + one, a2 / (a1 + 1), (a1 - a2) / (a1**2 + 3), a1]
    expected = [
        [Coefficient(entry.num, entry.den) for entry in row]
        for row in _expand_columns(cs, {1})
    ]
    calls = []
    real_gcd = coeffs_mod.poly_gcd

    def counting_gcd(p, q):
        calls.append((p, q))
        return real_gcd(p, q)

    monkeypatch.setattr(coeffs_mod, "poly_gcd", counting_gcd)
    rows = _expand_columns(cs, {1})
    assert calls == []
    monkeypatch.undo()
    assert len(rows) == 2  # the monomials 1 and a2
    assert [[(str(e.num), str(e.den)) for e in row] for row in rows] == [
        [(str(e.num), str(e.den)) for e in row] for row in expected
    ]


# -- the Q fast path ----------------------------------------------------------------

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _general_path(op, a, b):
    """Each operation from scratch: a polynomial product and a
    canonicalization with the gcd of the whole result."""
    if op == "+":
        return Coefficient(a.num * b.den + b.num * a.den, a.den * b.den)
    if op == "-":
        return Coefficient(a.num * b.den - b.num * a.den, a.den * b.den)
    if op == "*":
        return Coefficient(a.num * b.num, a.den * b.den)
    return Coefficient(a.num * b.den, a.den * b.num)


def _form(c):
    return c.num.terms, c.den.terms


BIG = [Fraction(10**30 + 7, 3), Fraction(-(2**70), 10**12 + 39), Fraction(1, 3**40)]


def _constant_pairs(rng):
    """Seeded constant pairs: small and large rationals, zero, negatives and
    pairs whose sum or difference cancels to 0."""
    values = [Fraction(0), Fraction(1), Fraction(-1)] + BIG
    pairs = []
    for _ in range(300):
        a, b = (
            rng.choice(values) if rng.random() < 0.25 else rand_fraction(rng, bound=9)
            for _ in range(2)
        )
        pairs.append((a, b))
    for q in values + [rand_fraction(rng, bound=9) for _ in range(20)]:
        pairs += [(q, q), (q, -q)]
    return [(Coefficient.const(a), Coefficient.const(b)) for a, b in pairs]


def test_q_fast_path_matches_general_path(rng):
    cancelled = 0
    for a, b in _constant_pairs(rng):
        for op, fn in OPS.items():
            if op == "/" and b.is_zero():
                continue
            got = fn(a, b)
            assert _form(got) == _form(_general_path(op, a, b)), (a, op, b)
            assert all(type(q) is Fraction for q in got.num.terms.values())
            if got.is_zero():
                cancelled += 1
                assert got.num == Poly() and got.den == Poly.one()
        # plain rationals coerce onto the same path, from either side
        q = b.as_fraction()
        assert a + q == q + a == a + b and a * q == q * a == a * b
        assert a - q == a - b and q - a == b - a
    assert cancelled > 100


def test_mixed_pairs_take_the_general_path(rng):
    for _ in range(150):
        q = Coefficient.const(rand_fraction(rng, bound=9))
        x = rand_coeff(rng, (1, 2))
        if x.is_const():
            continue
        for a, b in ((q, x), (x, q)):
            for op, fn in OPS.items():
                if op == "/" and b.is_zero():
                    continue
                assert _form(fn(a, b)) == _form(_general_path(op, a, b)), (a, op, b)


def test_constant_powers_match_repeated_products(rng):
    values = [Fraction(0), Fraction(-1)] + BIG + [rand_fraction(rng) for _ in range(30)]
    for q in values:
        c = Coefficient.const(q)
        for n in range(-3, 4):
            if n < 0 and not q:
                continue
            want = one
            for _ in range(abs(n)):
                want = _general_path("*", want, c)
            if n < 0:
                want = _general_path("/", one, want)
            assert _form(c**n) == _form(want), (q, n)


def test_division_by_zero_constant_keeps_its_message():
    for a in (Coefficient.const(3), Coefficient.zero(), a1 / (a2 + 1)):
        for zero in (Coefficient.zero(), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError, match="^division by zero coefficient$"):
                a / zero
    with pytest.raises(ZeroDivisionError, match="^division by zero coefficient$"):
        Coefficient.zero() ** -2
    with pytest.raises(ZeroDivisionError, match="^division by zero coefficient$"):
        1 / Coefficient.zero()


def test_q_series_run_no_polynomial_arithmetic(rng, monkeypatch):
    import hahnseries.coeffs as coeffs_mod
    import hahnseries.linalg as linalg_mod
    import hahnseries.polynomials as poly_mod
    from hahnseries.analytic import OneUnit, exp, hensel_lift, log, unit_pow
    from hahnseries.series import SeriesPolynomial, TruncatedSeries

    n = 16

    def dense_q(lo):
        return TruncatedSeries(
            {Fraction(lo + k, 2): Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 6))
             for k in range(n)},
            Fraction(lo + n, 2),
        )

    eps = dense_q(1)
    u = OneUnit(TruncatedSeries.one(eps.prec) + eps)
    s = TruncatedSeries.one(eps.prec).scalar_mul(2) + eps
    # q = (y - s)(y - 3): r = 2 lifts to s
    three = TruncatedSeries.one(eps.prec).scalar_mul(3)
    q = SeriesPolynomial([s * three, -(s + three), TruncatedSeries.one(eps.prec)])
    r = TruncatedSeries.one(eps.prec).scalar_mul(2)

    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    gcd, div, mul = poly_mod.poly_gcd, poly_mod.divexact, Poly.__mul__
    for mod in (coeffs_mod, poly_mod):
        monkeypatch.setattr(mod, "poly_gcd", counting("poly_gcd", gcd))
    for mod in (coeffs_mod, linalg_mod, poly_mod):
        monkeypatch.setattr(mod, "divexact", counting("divexact", div))
    monkeypatch.setattr(Poly, "__mul__", counting("Poly.__mul__", mul))
    results = {
        "exp": exp(eps).series,
        "inv": u.series.inv(),
        "log": log(u),
        "unit_pow": unit_pow(u, Fraction(-2, 3)).series,
        "hensel_lift": hensel_lift(q, r),
    }
    assert calls == Counter()
    monkeypatch.undo()
    assert all(len(f.terms) >= n for f in results.values())
    assert (results["inv"] * u.series).agrees_with(TruncatedSeries.one(eps.prec))
    assert exp(results["log"]).agrees_with(u)
    assert results["hensel_lift"] == s


# -- Henrici's formulas ------------------------------------------------------------


def _henrici_pairs(rng):
    """Seeded symbolic pairs over Q(a1, a2, a3), each of one planted shape:
    a factor shared by the denominators, a factor across a numerator and
    the other denominator, equal denominators, a sum that cancels to 0,
    and mixed constant/symbolic pairs."""

    def poly(max_deg=1):
        p = Poly()
        while p.is_zero():
            p = rand_poly(rng, (1, 2, 3), max_deg=max_deg, terms=3)
        return p

    pairs = []
    for k in range(300):
        shape = k % 5
        h = poly()
        if shape == 0:
            x, y = Coefficient(poly(2), h * poly()), Coefficient(poly(2), h * poly())
        elif shape == 1:
            x, y = Coefficient(h * poly(), poly()), Coefficient(poly(), h * poly())
        elif shape == 2:
            x = Coefficient(poly(2), h * poly())
            y = Coefficient(poly(2) * h + x.num, x.den)  # x.den unless it cancels
        elif shape == 3:
            x = Coefficient(poly(2), h * poly())
            y = (-x, x, Coefficient(h * poly() - x.num, x.den))[k // 5 % 3]
        else:
            x = Coefficient.const(rand_fraction(rng, bound=9))
            y = Coefficient(poly(2), poly())
            if k % 2:
                x, y = y, x
        pairs.append((x, y))
    return pairs


def test_henrici_matches_general_path(rng):
    seen = Counter()
    for a, b in _henrici_pairs(rng):
        if a.den == b.den:
            seen["equal dens"] += 1
        elif not poly_gcd(a.den, b.den).is_const():
            seen["shared den factor"] += 1
        if not poly_gcd(a.num, b.den).is_const() or not poly_gcd(b.num, a.den).is_const():
            seen["cross factor"] += 1
        if not b.is_zero() and b.num.leading_coeff() != 1:
            seen["non-monic divisor"] += 1
        if a.is_const() != b.is_const():
            seen["mixed"] += 1
        for op, fn in OPS.items():
            if op == "/" and b.is_zero():
                continue
            got, want = fn(a, b), _general_path(op, a, b)
            assert _form(got) == _form(want), (a, op, b)
            assert str(got) == str(want)
            if got.is_zero():
                seen["zero " + op] += 1
                assert got.num == Poly() and got.den == Poly.one()
    planted = ("equal dens", "shared den factor", "cross factor", "non-monic divisor",
               "mixed", "zero +", "zero -")
    assert min(seen[k] for k in planted) >= 20, seen


# -- a sympy oracle for the field operations -------------------------------------------


def _sympy_of(sympy, gens, c):
    def poly(p):
        expr = sympy.Integer(0)
        for m, q in p.terms.items():
            term = sympy.Rational(q.numerator, q.denominator)
            for v, e in m:
                term *= gens[v - 1] ** e
            expr += term
        return expr

    return poly(c.num) / poly(c.den)


def _assert_matches_cancel(sympy, gens, got, expr):
    """got is the reduced form of expr: it equals sympy.cancel(expr) up to a
    rational factor shared by numerator and denominator, and is monic."""
    want_num, want_den = sympy.fraction(sympy.cancel(expr))
    num = _sympy_of(sympy, gens, Coefficient(got.num, Poly.one(), _canonical=True))
    den = _sympy_of(sympy, gens, Coefficient(got.den, Poly.one(), _canonical=True))
    if want_num == 0:
        assert got.num == Poly() and got.den == Poly.one()
        return
    ratio = sympy.cancel(num / want_num)
    assert ratio.is_Rational and ratio != 0, (got, expr)
    assert sympy.expand(den - ratio * want_den) == 0, (got, expr)
    assert got.den.leading_coeff() == 1


def test_arithmetic_matches_sympy_cancel(rng):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("a1:4")
    for k in range(90):
        if k % 3 == 0:
            a, b = (Coefficient.const(rand_fraction(rng, bound=9)) for _ in range(2))
        elif k % 3 == 1:
            a, b = Coefficient.const(rand_fraction(rng, bound=9)), rand_coeff(rng, (1, 2, 3))
        else:
            a, b = rand_coeff(rng, (1, 2, 3)), rand_coeff(rng, (1, 2, 3))
        sa, sb = _sympy_of(sympy, gens, a), _sympy_of(sympy, gens, b)
        for op, fn in OPS.items():
            if op == "/" and b.is_zero():
                continue
            _assert_matches_cancel(sympy, gens, fn(a, b), fn(sa, sb))
        for n in range(-3, 4):
            if n < 0 and a.is_zero():
                continue
            _assert_matches_cancel(sympy, gens, a**n, sa**n)
