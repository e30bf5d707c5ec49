from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnseries.modular as M
from hahnseries.polynomials import (
    Poly,
    _join,
    dense,
    divexact,
    grlex_key,
    poly_gcd,
    poly_lcm,
    poly_sqrt,
)

a1 = Poly.variable(1)
a2 = Poly.variable(2)
a3 = Poly.variable(3)
one = Poly.one()


def test_basic_arithmetic():
    p = (a1 + one) * (a1 - one)
    assert p == a1 * a1 - one
    assert (a1 + a2) ** 2 == a1 * a1 + a1 * a2.scale(2) + a2 * a2
    assert (a1 - a1).is_zero()


def test_grlex_leading():
    p = a1 * a1 + a1 * a2 + a2
    assert p.leading_mono() == ((1, 2),)
    q = a1 * a2 * a2 + a1 * a1 * a2
    assert q.leading_mono() == ((1, 2), (2, 1))


def test_gcd_univariate():
    assert poly_gcd(a1 * a1 - one, a1 - one) == a1 - one
    assert poly_gcd(a1.scale(2), a1.scale(3)) == a1
    assert poly_gcd(Poly.const(4), a1) == one


def test_gcd_multivariate():
    p = (a1 + a2) * (a1 - a2)
    q = (a1 + a2) * a1
    assert poly_gcd(p, q) == a1 + a2
    r = (a1 * a2 + one) * (a2 + a3)
    s = (a1 * a2 + one) * a3
    assert poly_gcd(r, s) == a1 * a2 + one


def test_dense_view():
    p = a1 * a1 * a1 * a2 + a2 + Poly.const(3)
    assert dense(p, 1) == [a2 + Poly.const(3), Poly(), Poly(), a2]
    assert dense(p, 2) == [Poly.const(3), a1 * a1 * a1 + one]
    assert dense(p, 3) == [p]
    assert dense(Poly.zero(), 1) == []
    for var in (1, 2, 3):
        assert _join(dense(p, var), var) == p


def test_gcd_degree_gaps():
    # main variable a1 skips a degree, and both cofactors are divisible by a1
    g = a1 * a1 * a2 + one
    p = g * a1 * (a2 + a3)
    q = g * a1 * a1 * (a2 - one)
    assert poly_gcd(p, q) == g * a1
    assert poly_gcd(q, p) == g * a1
    # nonconstant content a2 + 1 and zero slots in the dense view
    c = a2 + one
    f = a1 * a1 + a2
    p = c * a1 * a1 * f
    q = c * (a2 - one) * f * (a1 - Poly.const(2))
    assert poly_gcd(p, q) == c * f
    # the gcd is the content alone, with or without a PRS run
    assert poly_gcd(c * a1, c * (a1 + one)) == c
    assert poly_gcd(c * (a1 * a1 * a1 + a2), a2 * a2 - one) == c
    assert poly_gcd(c * a1 * a1 * a1 * a3, c * c * a1 * a2) == (c * a1).monic()


def test_gcd_random_products(rng):
    from conftest import rand_poly

    for _ in range(60):
        g = rand_poly(rng, (1, 2), max_deg=1, terms=2)
        if g.is_zero():
            g = a1 + one
        p = g * rand_poly(rng, (1, 2), max_deg=1, terms=2)
        q = g * rand_poly(rng, (1, 2), max_deg=1, terms=2)
        d = poly_gcd(p, q)
        if p.is_zero() or q.is_zero():
            continue
        assert divexact(p, d) is not None
        assert divexact(q, d) is not None
        assert divexact(d, g.monic()) is not None


def test_divexact():
    assert divexact(a1 * a1 - one, a1 - one) == a1 + one
    assert divexact(a1 * a2, a1) == a2
    assert divexact(a1 * a2 + one, a1) is None


def test_divexact_by_one_returns_the_dividend():
    p = a1 * a2 + a3.scale(3)
    assert divexact(p, one) is p
    assert divexact(p, Poly.const(1)) is p
    halved = divexact(p, Poly.const(2))
    assert halved is not p and halved == p.scale(Fraction(1, 2))


def _leading_term_divexact(p, q):
    """Exact division by grlex leading terms, as the library did before
    long division on the dense view; the oracle for divexact."""
    if q.is_const():
        return p.scale(1 / q.const_value())
    lm_q = q.leading_mono()
    lc_q = q.terms[lm_q]
    out = {}
    r = p
    while not r.is_zero():
        lm_r = r.leading_mono()
        rest = dict(lm_r)
        if any(rest.get(v, 0) < e for v, e in lm_q):
            return None
        for v, e in lm_q:
            rest[v] -= e
        m = tuple((v, e) for v, e in sorted(rest.items()) if e)
        c = r.terms[lm_r] / lc_q
        out[m] = c
        r = r - q * Poly({m: c})
    return Poly(out)


def test_divexact_matches_leading_term_division(rng):
    from conftest import rand_poly

    seen = set()
    for i in range(2400):
        nv = rng.randint(1, 3)
        variables = tuple(range(1, nv + 1))
        q = rand_poly(rng, variables, max_deg=2, terms=3)
        if q.is_zero() or q.is_const():
            q = q + Poly.variable(rng.randint(1, nv))
        case = i % 6
        if case == 0:  # planted product
            p = q * rand_poly(rng, variables, max_deg=2, terms=3)
        elif case == 1:  # usually not divisible
            p = rand_poly(rng, variables, max_deg=3, terms=5)
        elif case == 2:  # p free of q's least variable
            least = min(q.variables())
            p = rand_poly(rng, tuple(v for v in (1, 2, 3) if v != least), 2, 3)
        elif case == 3:  # quotient whose exponents skip degrees
            p = q * _gappy_poly(rng, nv)
        elif case == 4:  # the top entries divide, a lower one does not
            var = min(q.variables())
            low = rand_poly(rng, variables, max_deg=2, terms=2)
            low = _join(dense(low, var)[: len(dense(q, var)) - 1], var)
            p = q * _gappy_poly(rng, nv) + (low if not low.is_zero() else one)
        else:  # quotient in a variable below q's least
            q = q.subs_var(1, Fraction(rng.randint(1, 3))) if nv > 1 else q
            if q.is_const():
                q = a2 + one
            p = q * rand_poly(rng, (1, 2, 3), max_deg=2, terms=3)
        got = divexact(p, q)
        want = _leading_term_divexact(p, q)
        assert got == want, (p, q)
        if case in (2, 4) and not p.is_zero():
            assert got is None
        seen.add((case, got is None))
    assert {(c, False) for c in (0, 3, 5)} | {(c, True) for c in (1, 2, 4)} <= seen


def _dense_view_divexact(p, q):
    """Long division on Poly dense views at every size, as the library did
    before it divided integer parts; the oracle for divexact."""
    if p.is_zero():
        return Poly()
    if q.is_const():
        return p.scale(1 / q.const_value())
    var = min(q.variables())
    a, b = dense(p, var), dense(q, var)
    db, lb = len(b) - 1, b[-1]
    quotient = []
    while len(a) > db:
        c = _dense_view_divexact(a.pop(), lb)
        if c is None:
            return None
        quotient.append(c)
        off = len(a) - db
        for i in range(db):
            a[off + i] = a[off + i] - c * b[i]
    if any(not c.is_zero() for c in a):
        return None
    return _join(quotient[::-1], var)


def test_univariate_divexact_matches_dense_view_division(rng, monkeypatch):
    from conftest import rand_poly

    import hahnseries.polynomials as P

    views = []
    monkeypatch.setattr(P, "dense", lambda *a: views.append(a) or dense(*a))
    seen = set()
    for i in range(2000):
        var = rng.randint(1, 3)
        q = rand_poly(rng, (var,), max_deg=rng.randint(1, 3), terms=3)
        if q.is_const():
            q = q + Poly.variable(var)
        case = i % 4
        if case == 0:  # planted product
            p = q * rand_poly(rng, (var,), max_deg=3, terms=4)
        elif case == 1:  # usually not divisible
            p = rand_poly(rng, (var,), max_deg=4, terms=4)
        elif case == 2:  # a planted product plus a low remainder
            p = q * rand_poly(rng, (var,), max_deg=2, terms=3)
            p = p + Poly.const(rng.randint(1, 3))
        else:  # quotient with degree gaps
            g = _gappy_poly(rng, 1)
            p = q * Poly({tuple((var, e) for _, e in m): c for m, c in g.terms.items()})
        got = divexact(p, q)
        assert got == _dense_view_divexact(p, q), (p, q)
        seen.add((case, got is None))
    monkeypatch.undo()
    assert views == []
    assert {(0, False), (1, True), (2, True), (3, False)} <= seen


def test_divexact_uses_no_leading_terms(monkeypatch):
    calls = []
    real = Poly.leading_mono

    def counting(self):
        calls.append(self)
        return real(self)

    q = a1.scale(3) * a2 + a2 * a3 - Poly.const(2)
    cases = [
        (q * (a1 * a1 * a3 + a2), q),
        (q * (a1 + a2) + a3, q),
        (a2 * a3 + one, a1 + one),
        (q * q * q, q * q),
    ]
    monkeypatch.setattr(Poly, "leading_mono", counting)
    results = [divexact(p, d) for p, d in cases]
    monkeypatch.undo()
    assert calls == []
    assert results == [a1 * a1 * a3 + a2, None, None, q]


def test_lcm():
    assert poly_lcm(a1, a2) == a1 * a2
    l = poly_lcm(a1 * (a1 + one), (a1 + one) * a2)
    assert l == (a1 * (a1 + one) * a2).monic()


def test_subs_var():
    p = a1 * a1 + a2
    assert p.subs_var(1, Fraction(3)) == Poly.const(9) + a2
    assert p.subs_var(2, Fraction(-1)) == a1 * a1 - one
    p = a1 * a1 * a1 * a2 + a1 + Poly.const(2)
    assert p.subs_var(1, Fraction(2)) == a2.scale(8) + Poly.const(4)
    assert p.subs_var(1, Fraction(0)) == Poly.const(2)
    assert p.subs_var(3, Fraction(5)) == p


def test_sqrt():
    assert poly_sqrt((a1 + a2) ** 2) == a1 + a2
    assert poly_sqrt(a1 * a1.scale(4)) == a1.scale(2)
    assert poly_sqrt(Poly.const(Fraction(9, 4))) == Poly.const(Fraction(3, 2))
    assert poly_sqrt(Poly.const(2)) is None
    assert poly_sqrt(a1) is None
    assert poly_sqrt(a1 * a2) is None
    assert poly_sqrt((a1 * a2 - one) ** 2) == a1 * a2 - one
    assert poly_sqrt(-((a1 + one) ** 2)) is None
    r = a1 * a1 * a2 + one
    assert poly_sqrt(r * r) == r
    assert poly_sqrt((a1 * a1 * a1 - a2) ** 2) == a1 * a1 * a1 - a2
    assert poly_sqrt(r * r + a1) is None


def test_sqrt_random(rng):
    from conftest import rand_poly

    for _ in range(40):
        p = rand_poly(rng, (1, 2), max_deg=2, terms=3)
        if p.is_zero():
            continue
        sq = p * p
        root = poly_sqrt(sq)
        assert root is not None
        assert root * root == sq


def test_str_forms():
    assert str(a1 * a1 - one) == "a1^2 - 1"
    assert str(Poly.zero()) == "0"
    assert str(a1.scale(Fraction(-3, 2)) + a2) == "-3/2*a1 + a2"


def _sympy_poly(sympy, p, gens):
    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= gens[v - 1] ** e
        expr += term
    return sympy.Poly(expr, *gens, domain="QQ")


def _gappy_poly(rng, nv, terms=3):
    """Random nonzero polynomial whose exponents skip a degree (0, 1, 3)."""
    p = Poly()
    while p.is_zero():
        for _ in range(rng.randint(1, terms)):
            powers = [(v, rng.choice((0, 0, 1, 3))) for v in range(1, nv + 1)]
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            p = p + Poly({tuple((v, e) for v, e in powers if e): c})
    return p


def test_sympy_oracle(rng):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("a1:4")
    seen = set()
    for _ in range(120):
        nv = rng.randint(1, 3)
        g, x, y = (_gappy_poly(rng, nv) for _ in range(3))
        p, q = g * x, g * y
        sp = _sympy_poly(sympy, p, gens)
        d = poly_gcd(p, q)
        sd = _sympy_poly(sympy, d, gens)
        ref = sympy.gcd(sp, _sympy_poly(sympy, q, gens))
        # each divides the other: equal up to a nonzero rational
        assert sd.rem(ref).is_zero and ref.rem(sd).is_zero
        assert d.leading_coeff() == 1
        seen.add("gcd" if d.is_const() else "nontrivial gcd")
        for f in (x, y):
            quo, rem = sympy.div(sp, _sympy_poly(sympy, f, gens))
            got = divexact(p, f)
            assert (got is None) == (not rem.is_zero)
            assert got is None or _sympy_poly(sympy, got, gens) == quo
            seen.add("quotient" if got is not None else "no quotient")
        for s in (p * p, p * p + g):
            root = poly_sqrt(s)
            ss = _sympy_poly(sympy, s, gens)
            seen.add("root" if root is not None else "no root")
            if root is not None:
                assert _sympy_poly(sympy, root, gens) ** 2 == ss
                continue
            content, factors = sympy.factor_list(ss)
            square = content >= 0 and sympy.sqrt(content).is_rational
            assert not (square and all(k % 2 == 0 for _, k in factors))
        var = rng.randint(1, nv)
        val = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        got = _sympy_poly(sympy, p.subs_var(var, val), gens)
        at = sympy.Rational(val.numerator, val.denominator)
        want = sympy.Poly(sp.as_expr().subs(gens[var - 1], at), *gens, domain="QQ")
        assert got == want
    assert len(seen) == 6


# -- the coprimality certificate -------------------------------------------------


def _from_sympy(sp, nv):
    return Poly(
        {
            tuple((v + 1, e) for v, e in enumerate(m[:nv]) if e): Fraction(int(c.p), int(c.q))
            for m, c in sp.terms()
        }
    )


def test_certificate_agrees_with_sympy_gcd(rng):
    sympy = pytest.importorskip("sympy")
    from conftest import rand_poly

    import hahnseries.polynomials as P

    gens = sympy.symbols("a1:4")

    def nonconstant(max_deg):
        p = one
        while p.is_const():
            p = rand_poly(rng, (1, 2, 3), max_deg=max_deg, terms=3)
        return p

    kinds = Counter()
    for k in range(800):
        # 600 planted gcds h*f, h*g, then 200 random pairs
        h = nonconstant(1) if k < 600 else one
        p, q = h * nonconstant(2), h * nonconstant(2)
        want = sympy.gcd(_sympy_poly(sympy, p, gens), _sympy_poly(sympy, q, gens))
        got = poly_gcd(p, q)
        assert got == _from_sympy(want, 3).monic(), (p, q)
        # sound on every pair, and it settles every coprime one here
        assert P._coprime(p, q) == (got == one), (p, q)
        kinds["trivial" if got == one else "nontrivial"] += 1
    assert kinds["trivial"] > 80 and kinds["nontrivial"] > 600


def test_certificate_falls_back_when_leading_coefficients_vanish(monkeypatch):
    import hahnseries.polynomials as P

    # lc in a1 of both is a2 - c, which vanishes at a2's point mod M.P
    c = Poly.const(M.point(2))
    p = (a2 - c) * a1 + one
    q = (a2 - c) * a1 * a1 + a2
    assert not P._coprime(p, q)
    calls = []
    real = P._heu_gcd
    monkeypatch.setattr(P, "_heu_gcd", lambda f, g: calls.append(1) or real(f, g))
    assert poly_gcd(p, q) == one
    assert calls
    # h's leading coefficients in a1 and in a2 both vanish, so its images
    # are the constant 1, and the images of p and q are coprime
    c1 = Poly.const(M.point(1))
    h = (a1 - c1) * (a2 - c) + one
    p, q = h * (a1 + a2), h * (a1 - a2 + Poly.const(3))
    assert not P._coprime(p, q)
    assert poly_gcd(p, q) == h


def test_certificate_falls_back_when_images_share_a_root():
    import hahnseries.polynomials as P

    # coprime, but a2 at its point makes both images a1 - c
    c = Poly.const(M.point(2))
    p, q = a1 - a2, a1 - c
    assert not P._coprime(p, q)
    assert poly_gcd(p, q) == one
    # images share a root in a1, not in a2: still undecided, still 1
    p, q = (a1 - a2) * (a2 + one), (a1 - c) * a2
    assert not P._coprime(p, q)
    assert poly_gcd(p, q) == one


def test_certificate_skips_leading_coefficients_divisible_by_the_prime():
    import hahnseries.polynomials as P

    # integer parts have no denominators; the undecided case left is both
    # leading coefficients in a1 vanishing mod M.P, here as multiples of it
    big = a1.scale(M.P)
    p, q = big + one, big * a1 + a1 + Poly.const(2)
    assert not P._coprime(p, q)
    assert poly_gcd(p, q) == one
    h = big + one
    p, q = h * (a1 + Poly.const(2)), h * (a1 - Poly.const(3))
    assert not P._coprime(p, q)
    assert poly_gcd(p, q) == h.monic() == a1 + Poly.const(Fraction(1, M.P))
    assert poly_gcd(a1 * a2, a3 + one) == one  # no shared variable


# -- nontrivial gcds: the heuristic gcd and its fallback ---------------------------


def _mono(*powers):
    return tuple((v, e) for v, e in enumerate(powers, start=1) if e)


# two 4-term polynomials whose gcd is the monomial a1*a2^2*a3^2; the primitive
# PRS alone took half a minute on them
REPRODUCER = (
    Poly({_mono(5, 4, 5): Fraction(-2, 9), _mono(6, 2, 4): Fraction(8, 3),
          _mono(6, 3, 2): Fraction(4, 3), _mono(3, 2, 2): Fraction(-2, 3)}),
    Poly({_mono(4, 3, 3): Fraction(2, 3), _mono(1, 4, 5): Fraction(-2, 3),
          _mono(4, 2, 2): Fraction(8, 3), _mono(2, 2, 4): Fraction(-5, 3)}),
)

PLANTED = ("dense", "monomial", "linear")


def _planted(rng, nv, kind):
    """A pair h*x, h*y of polynomials in a1..a_nv with a nonconstant
    common factor h: a dense one of 1-3 terms (cofactors of 2-4 terms),
    monomial contents around a small shared factor, or shared linear
    factors a_j - c, the shapes of inclusion-exclusion's denominators."""
    from conftest import rand_fraction, rand_poly

    variables = tuple(range(1, nv + 1))

    def nonconstant(max_deg, terms):
        p = one
        while p.is_const():
            p = rand_poly(rng, variables, max_deg=max_deg, terms=terms)
        return p

    def mono():
        return Poly({_mono(*(rng.randint(0, 2) for _ in variables)): Fraction(1)})

    def linear():
        return Poly.variable(rng.choice(variables)) - Poly.const(rand_fraction(rng, 3))

    if kind == "dense":
        h = nonconstant(2, 3)
        return h * nonconstant(3, 4), h * nonconstant(3, 4)
    if kind == "monomial":
        h = one
        while h.is_const():
            h = mono() * (nonconstant(1, 2) if rng.random() < 0.5 else one)
        return h * mono() * nonconstant(2, 4), h * mono() * nonconstant(2, 4)
    h = linear() * (linear() if rng.random() < 0.5 else one)
    return h * linear() * linear(), h * linear() * nonconstant(1, 2)


def planted_gcds(seed, pairs=600, nv=3):
    """poly_gcd on seeded planted pairs in nv <= 3 variables, then on the
    REPRODUCER, each against sympy's gcd.  Returns the counts of the kinds,
    the slowest gcd's seconds and how often the PRS fallback ran."""
    import random
    import time

    import sympy

    import hahnseries.polynomials as P

    gens = sympy.symbols("a1:4")
    rng = random.Random(seed)
    cases = [(PLANTED[k % 3], *_planted(rng, nv, PLANTED[k % 3])) for k in range(pairs)]
    cases.append(("reproducer", *REPRODUCER))
    kinds, slowest, fallbacks = Counter(), 0.0, []
    real = P._prs_gcd
    P._prs_gcd = lambda *a: fallbacks.append(a) or real(*a)
    try:
        for kind, p, q in cases:
            start = time.perf_counter()
            got = poly_gcd(p, q)
            slowest = max(slowest, time.perf_counter() - start)
            want = sympy.gcd(_sympy_poly(sympy, p, gens), _sympy_poly(sympy, q, gens))
            assert got == _from_sympy(want, 3).monic(), (seed, kind, p, q)
            kinds[kind] += 1
    finally:
        P._prs_gcd = real
    return kinds, slowest, len(fallbacks)


@pytest.mark.parametrize("seed", [1, 2])
def test_planted_gcds_agree_with_sympy(seed):
    pytest.importorskip("sympy")
    for nv in (2, 3):
        kinds, _, fallbacks = planted_gcds(seed, pairs=150, nv=nv)
        assert set(kinds) == {*PLANTED, "reproducer"}
        assert fallbacks == 0, (seed, nv)


def test_reproducer_needs_no_fallback(monkeypatch):
    import hahnseries.polynomials as P

    def fail(*args):
        raise AssertionError("the PRS fallback ran")

    monkeypatch.setattr(P, "_prs_gcd", fail)
    assert poly_gcd(*REPRODUCER) == Poly({_mono(1, 2, 2): Fraction(1)})
    # monomial contents alone: one input is a monomial once its own is out
    p = a1 * a1 * a2 * (a1 + a2 + one)
    assert poly_gcd(p, a1 * a2 * a2 * a2.scale(3)) == a1 * a2
    assert poly_gcd(p * (a3 - one), a2 * (a3 - one) * (a1 - a2)) == a2 * (a3 - one)


def test_prs_fallback_agrees_with_sympy(rng, monkeypatch):
    sympy = pytest.importorskip("sympy")
    import hahnseries.polynomials as P

    gens = sympy.symbols("a1:4")
    fallbacks = []
    real = P._prs_gcd
    monkeypatch.setattr(P, "HEU_TRIES", 0)  # the heuristic gives up at once
    monkeypatch.setattr(P, "_prs_gcd", lambda *a: fallbacks.append(a) or real(*a))
    for k in range(45):
        p, q = _planted(rng, 2 + k % 2, PLANTED[k % 3])
        want = sympy.gcd(_sympy_poly(sympy, p, gens), _sympy_poly(sympy, q, gens))
        assert poly_gcd(p, q) == _from_sympy(want, 3).monic(), (p, q)
    assert len(fallbacks) >= 30


def test_heuristic_accepts_only_certified_candidates(monkeypatch):
    import hahnseries.polynomials as P

    # every image's gcd taken as 1: the candidate 1 divides both inputs,
    # and only the certificate on the cofactors refuses it
    real = P._heu
    monkeypatch.setattr(P, "_heu", lambda f, g, certify=False: real(f, g, True) if certify else {(): 1})
    h = a1 + a2.scale(2)
    p, q = h * (a1 - a3), h * (a2 + a3 + one)
    assert poly_gcd(p, q) == h


def test_integer_divexact_matches_dense_view_division(rng, monkeypatch):
    from conftest import rand_poly

    import hahnseries.polynomials as P

    cases, seen = [], set()
    for i in range(1200):
        nv = rng.randint(2, 3)
        variables = tuple(range(1, nv + 1))
        q = rand_poly(rng, variables, max_deg=2, terms=3)
        if len(q.variables()) < 2:
            q = q + Poly.variable(1) * Poly.variable(nv)
        case = i % 5
        if case == 0:  # planted product
            p = q * rand_poly(rng, variables, max_deg=2, terms=3)
        elif case == 1:  # usually not divisible
            p = rand_poly(rng, variables, max_deg=3, terms=5)
        elif case == 2:  # a planted product plus a remainder of lower degree
            p = q * rand_poly(rng, variables, max_deg=2, terms=3) + Poly.const(rng.randint(1, 3))
        elif case == 3:  # quotient with degree gaps
            p = q * _gappy_poly(rng, nv)
        else:  # divisor free of the dividend's least variable
            q = q.subs_var(1, Fraction(rng.randint(1, 3)))
            if q.is_const():
                q = a2 + a3
            p = q * rand_poly(rng, (1, 2, 3), max_deg=2, terms=3)
        cases.append((p, q, _dense_view_divexact(p, q)))
    wraps = []
    monkeypatch.setattr(P, "dense", lambda *a: pytest.fail("a dense view was built"))
    real = P.from_ints
    monkeypatch.setattr(P, "from_ints", lambda *a: wraps.append(a) or real(*a))
    for i, (p, q, want) in enumerate(cases):
        del wraps[:]
        got = divexact(p, q)
        assert got == want, (p, q)
        # the quotient is wrapped once, and no entry is
        assert len(wraps) == (got is not None and not p.is_zero()), (p, q)
        seen.add((i % 5, got is None))
    assert {(0, False), (1, True), (2, True), (3, False), (4, False)} <= seen


# -- the canonical form against plain dicts of Fractions ---------------------------


monomials = st.tuples(*[st.integers(0, 2)] * 3).map(
    lambda es: tuple((v, e) for v, e in zip((1, 2, 3), es) if e)
)
fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
term_dicts = st.dictionaries(monomials, fractions, max_size=5)


def _clean(d):
    return {m: q for m, q in d.items() if q}


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for m, q in b.items():
        out[m] = out.get(m, 0) + sign * q
    return _clean(out)


def _ref_mul(a, b):
    out = Counter()
    for m1, q1 in a.items():
        for m2, q2 in b.items():
            out[tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))] += q1 * q2
    return _clean(out)


def _ref_subs(a, var, q):
    out = Counter()
    for m, c in a.items():
        powers = dict(m)
        e = powers.pop(var, 0)
        out[tuple(sorted(powers.items()))] += c * q**e
    return _clean(out)


def _canonical(p):
    """p is (0, {}) or a nonzero Fraction content times a primitive integer
    part whose value at its least monomial is positive."""
    assert type(p.c) is Fraction
    if not p.z:
        assert p.c == 0
        return p
    assert p.c != 0 and all(type(v) is int and v for v in p.z.values())
    assert gcd(*p.z.values()) == 1 and p.z[min(p.z)] > 0
    return p


def _same(x, y):
    assert x.c == y.c and x.z == y.z and hash(x) == hash(y)


@given(term_dicts, term_dicts, fractions)
def test_ring_operations_match_fraction_dicts(a, b, q):
    p, r = Poly(a), Poly(b)
    a, b = _clean(a), _clean(b)
    assert _canonical(p).terms == a
    assert _canonical(p + r).terms == _ref_sum(a, b)
    assert _canonical(p - r).terms == _ref_sum(a, b, -1)
    assert _canonical(p * r).terms == _ref_mul(a, b)
    assert _canonical(-p).terms == {m: -c for m, c in a.items()}
    assert _canonical(p.scale(q)).terms == _clean({m: c * q for m, c in a.items()})
    if a:
        lc = a[max(a, key=grlex_key)]
        assert _canonical(p.monic()).terms == {m: c / lc for m, c in a.items()}
    for var in (1, 2, 3):
        assert _canonical(p.subs_var(var, q)).terms == _ref_subs(a, var, q)


@given(term_dicts, term_dicts)
def test_exact_division_of_planted_products(a, b):
    p, r = Poly(a), Poly(b)
    if r.is_zero():
        return
    prod = p * r
    _same(_canonical(divexact(prod, r)), p)
    if not r.is_const():
        # r divides prod + 1 only if it divides 1
        assert divexact(prod + Poly.one(), r) is None


@given(term_dicts)
def test_dense_view_round_trip(a):
    p = Poly(a)
    a = _clean(a)
    for var in (1, 2, 3):
        view = dense(p, var)
        for e, entry in enumerate(view):
            want = {
                tuple((v, k) for v, k in m if v != var): c
                for m, c in a.items()
                if dict(m).get(var, 0) == e
            }
            assert _canonical(entry).terms == want
        assert not view or not view[-1].is_zero()
        _same(_canonical(_join(view, var)), p)


@given(term_dicts, term_dicts, term_dicts)
def test_equal_values_have_one_form(a, b, c):
    p, r, s = Poly(a), Poly(b), Poly(c)
    _same((p + r) * s, p * s + r * s)
    _same(p - r, -(r - p))
    _same(p * r, r * p)
    built = Poly.zero()
    for m, q in a.items():
        built = built + Poly({m: q})
    _same(built, p)
    _same(p.scale(3).scale(Fraction(1, 3)), p)
    for q in (0, 1, Fraction(-2, 3)):
        _same(_canonical(Poly.const(q)), Poly({(): q}))
        assert Poly.const(q).z == ({(): 1} if q else {})
