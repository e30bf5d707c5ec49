from fractions import Fraction
from math import factorial

import pytest

from conftest import rand_eps
from hahnseries.coeffs import Coefficient
from hahnseries.errors import PrecisionError, PreconditionError
from hahnseries.exponents import as_exponent
from hahnseries.series import (
    AtLeast,
    SeriesPolynomial,
    TruncatedSeries,
    eval_poly,
)
from hahnseries.analytic import (
    OneUnit,
    exp,
    hensel_lift,
    log,
    newton_puiseux,
    rational_reconstruct,
    track_denominators,
    unit_pow,
    verify_root,
)

a1 = Coefficient.alpha(1)
a2 = Coefficient.alpha(2)


def ts(data, prec):
    return TruncatedSeries(data, prec)


def one(prec):
    return TruncatedSeries.one(prec)


def t_mono(prec, e=1, c=1):
    return TruncatedSeries.monomial(c, e, prec)


# -- oracles ------------------------------------------------------------------


def binomial_coeff(q: Fraction, i: int) -> Fraction:
    """binomial(q, i) = q(q-1)...(q-i+1)/i!"""
    num = Fraction(1)
    for k in range(i):
        num *= q - k
    return num / factorial(i)


def catalan(n: int) -> int:
    """c_0 = 1, c_{n+1} = sum c_i c_{n-i}."""
    cs = [1]
    for m in range(n):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs[n]


# -- exp / log ----------------------------------------------------------------


def test_exp_formula_example():
    u = exp(t_mono(4))
    assert u.series == ts({0: 1, 1: 1, 2: Fraction(1, 2), 3: Fraction(1, 6)}, 4)
    assert exp(ts({}, 5)).series == one(5)


def test_exp_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        exp(ts({0: 1}, 5))
    with pytest.raises(PreconditionError):
        exp(ts({-1: 1}, 5))
    # lex rank 2: no integer multiple of (0,1) reaches (1,0)
    eps = TruncatedSeries({(0, 1): 1}, (1, 0))
    with pytest.raises(PrecisionError):
        exp(eps)


def test_log_formula_example():
    r = log(OneUnit(one(4) + t_mono(4)))
    assert r == ts({1: 1, 2: Fraction(-1, 2), 3: Fraction(1, 3)}, 4)
    assert log(OneUnit(one(4))).is_zero_at_prec()


def test_log_exp_composition_oracle():
    eps = ts({1: 1, 2: 2}, 12)
    assert log(exp(eps)) == eps


def test_exp_homomorphism(rng):
    for _ in range(200):
        a = rand_eps(rng, prec=4)
        b = rand_eps(rng, prec=4)
        lhs = exp(a + b).series
        rhs = (exp(a) * exp(b)).series
        assert lhs.agrees_with(rhs)


def test_w_compatibility(rng):
    for _ in range(200):
        eps = rand_eps(rng, prec=5, variables=(1,))
        u = exp(eps)
        delta = u.series - one(u.series.prec)
        assert delta.v_min() == eps.v_min()
        if eps.terms:
            assert log(u).v_min() == eps.v_min()


def test_log_exp_inverse_pair(rng):
    for _ in range(100):
        eps = rand_eps(rng, prec=4, variables=(1,))
        assert log(exp(eps)).agrees_with(eps)
        u = OneUnit(one(4) + rand_eps(rng, prec=4))
        assert exp(log(u)).agrees_with(u.series)


# -- unit_pow -----------------------------------------------------------------


def test_unit_pow_binomial_oracle():
    u = OneUnit(one(3) + t_mono(3))
    expected = ts({i: binomial_coeff(Fraction(1, 2), i) for i in range(3)}, 3)
    assert unit_pow(u, Fraction(1, 2)).series == expected


def test_unit_pow_examples():
    u = OneUnit(one(5) + t_mono(5))
    assert unit_pow(u, 0).series == one(5)
    cube_root = unit_pow(u, Fraction(1, 3))
    assert unit_pow(cube_root, 3).agrees_with(u)
    # integer power matches repeated multiplication
    sq = unit_pow(u, 2)
    assert sq.agrees_with(u.series * u.series)


def test_unit_pow_bilinearity(rng):
    for _ in range(50):
        u = OneUnit(one(4) + rand_eps(rng, prec=4))
        p = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        q = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        assert unit_pow(u, p + q).agrees_with(unit_pow(u, p) * unit_pow(u, q))
        assert unit_pow(unit_pow(u, p), q).agrees_with(unit_pow(u, p * q))


def test_unit_pow_weight_invariance(rng):
    # char-0 analogue of the obstruction: w(u^q) = w(u) for q != 0
    for _ in range(100):
        eps = rand_eps(rng, prec=5)
        if not eps.terms:
            continue
        u = exp(eps)
        for q in (1, 2, 3, -1, 5, Fraction(1, 2), Fraction(-2, 3)):
            assert unit_pow(u, q).weight() == u.weight()


# -- hensel -------------------------------------------------------------------


def sqrt_one_plus_t(prec: int) -> TruncatedSeries:
    return ts({i: binomial_coeff(Fraction(1, 2), i) for i in range(prec)}, prec)


def y2_minus_one_plus_t(prec: int) -> SeriesPolynomial:
    return SeriesPolynomial(
        [-(one(prec) + t_mono(prec)), TruncatedSeries.zero(prec), one(prec)]
    )


def test_hensel_binomial_oracle():
    root = hensel_lift(y2_minus_one_plus_t(6), one(6))
    assert root == sqrt_one_plus_t(6)


def test_hensel_linear():
    q = SeriesPolynomial([-t_mono(6), one(6)])
    assert hensel_lift(q, ts({}, 6)) == t_mono(6)


def test_hensel_precondition_errors():
    q = y2_minus_one_plus_t(6)
    # r = t: v_min(Q'(r)) = v_min(2t) = 1, not 0
    with pytest.raises(PreconditionError, match="Q'"):
        hensel_lift(q, t_mono(6))
    # r = 3: Q'(3) = 6 is fine but Q(3) = 8 - t is a unit
    with pytest.raises(PreconditionError, match="Q\\(r\\)"):
        hensel_lift(q, one(6).scalar_mul(3))


def test_hensel_residual_strictly_increases():
    _, trace = hensel_lift(y2_minus_one_plus_t(9), one(9), with_trace=True)
    exact = [v for v in trace if not isinstance(v, AtLeast)]
    assert all(b > a for a, b in zip(exact, exact[1:]))
    assert isinstance(trace[-1], AtLeast)


def test_track_denominators_examples():
    assert track_denominators(y2_minus_one_plus_t(8), one(8)) == {2}
    q = SeriesPolynomial([-t_mono(6).scalar_mul(Fraction(1, 3)), one(6)])
    assert track_denominators(q, ts({}, 6)) == {3}
    with pytest.raises(PreconditionError):
        bad = SeriesPolynomial([-t_mono(6).scalar_mul(a1), one(6)])
        track_denominators(bad, ts({}, 6))


def test_track_denominators_containment():
    # denominators stay inside {primes of c and of the inputs}, c = residue Q'(r)
    q = y2_minus_one_plus_t(10)
    r = one(10)
    c = eval_poly(q.derivative(), r).residue().as_fraction()
    allowed = {2} | set()
    assert c == 2
    assert track_denominators(q, r) <= allowed


# -- newton_puiseux -----------------------------------------------------------


def test_puiseux_square_root_of_t():
    q = SeriesPolynomial([-t_mono(8), TruncatedSeries.zero(8), one(8)])
    roots = newton_puiseux(q, 6)
    assert len(roots) == 2
    half = as_exponent(Fraction(1, 2))
    assert sorted(str(r) for r in roots) == [
        "-t^(1/2) + O(t^6)",
        "t^(1/2) + O(t^6)",
    ]
    for r in roots:
        v = verify_root(q, r)
        assert isinstance(v, AtLeast)


def test_puiseux_catalan_oracle():
    q = SeriesPolynomial([t_mono(8), -one(8), one(8)])
    roots = newton_puiseux(q, 7)
    branch = next(r for r in roots if r.terms and r.terms[0][0] > as_exponent(0))
    for n in range(1, 7):
        assert branch.coefficient(n).as_fraction() == catalan(n - 1)


def test_puiseux_cross_check_hensel():
    q = y2_minus_one_plus_t(8)
    roots = newton_puiseux(q, 8)
    hensel = hensel_lift(q, one(8))
    assert any(r.agrees_with(hensel) for r in roots)


def test_puiseux_roots_distinct_and_verified():
    # (y^2 - t^3)(y - 1 - t): branches +-t^(3/2) and 1 + t
    t = t_mono(8)
    u = one(8) + t
    q = SeriesPolynomial(
        [t_mono(8, 3) * u, -t_mono(8, 3), -u, one(8)]
    )
    roots = newton_puiseux(q, 5)
    assert len(roots) == 3
    assert len(roots) == len({tuple(str(term) for term in r.terms) for r in roots})
    for r in roots:
        v = verify_root(q, r)
        bound = v.bound if isinstance(v, AtLeast) else v
        assert bound >= as_exponent(4)


def test_puiseux_ramification_bound():
    q = SeriesPolynomial([-t_mono(8), TruncatedSeries.zero(8), one(8)])
    for r in newton_puiseux(q, 6):
        for e, _ in r.terms:
            assert e.coords[0].denominator <= 2  # <= deg(Q)!


def test_puiseux_irrational_initial_form():
    # y^2 - 2: initial root needs sqrt(2)
    q = SeriesPolynomial([-one(6).scalar_mul(2), TruncatedSeries.zero(6), one(6)])
    with pytest.raises(PreconditionError, match="rational root"):
        newton_puiseux(q, 4)


def test_puiseux_rational_alpha_roots():
    # y^2 - a1^2*(1+t): branches start at +-a1
    base = (one(6) + t_mono(6)).scalar_mul(a1 * a1)
    q = SeriesPolynomial([-base, TruncatedSeries.zero(6), one(6)])
    roots = newton_puiseux(q, 5)
    leads = sorted(str(r.leading_coeff()) for r in roots)
    assert leads == ["-a1", "a1"]


def test_puiseux_non_squarefree():
    t = t_mono(8)
    # (y - t)^2
    q = SeriesPolynomial([t * t, -t.scalar_mul(2), one(8)])
    with pytest.raises(PreconditionError, match="squarefree"):
        newton_puiseux(q, 5)


def test_puiseux_recovers_constructed_factorizations(rng):
    recovered = 0
    while recovered < 60:
        def rand_root():
            data = {}
            for _ in range(rng.randint(1, 3)):
                e = Fraction(rng.randint(0, 6), rng.choice((1, 2)))
                c = rng.randint(-3, 3)
                if c:
                    data[e] = c
            return ts(data, 9)

        r1, r2 = rand_root(), rand_root()
        if not (r1 - r2).terms:
            continue
        q = SeriesPolynomial([r1 * r2, -(r1 + r2), one(9)])
        roots = newton_puiseux(q, 7)
        assert len(roots) == 2
        for expected in (r1, r2):
            assert any(r.agrees_with(expected.truncate(7)) for r in roots)
        recovered += 1


def test_puiseux_cubic_with_distinct_valuations():
    # (y - 1)(y - t)(y - t^2): every polygon edge has length 1
    r = [one(9), t_mono(9), t_mono(9, 2)]
    q = SeriesPolynomial(
        [
            -(r[0] * r[1] * r[2]),
            r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
            -(r[0] + r[1] + r[2]),
            one(9),
        ]
    )
    roots = newton_puiseux(q, 6)
    assert len(roots) == 3
    for expected in r:
        assert any(rt.agrees_with(expected.truncate(6)) for rt in roots)


def test_puiseux_branch_count_and_multiplicity_split():
    # (y - t)^2 - t^3 ramifies: t +- t^(3/2)
    t = t_mono(10)
    q = SeriesPolynomial([t * t - t_mono(10, 3), -t.scalar_mul(2), one(10)])
    roots = newton_puiseux(q, 4)
    assert len(roots) == 2
    strs = sorted(str(r) for r in roots)
    assert strs == ["t + t^(3/2) + O(t^4)", "t - t^(3/2) + O(t^4)"] or strs == [
        "t - t^(3/2) + O(t^4)",
        "t + t^(3/2) + O(t^4)",
    ]
    only_one = newton_puiseux(q, 4, branch_count=1)
    assert len(only_one) == 1


# -- rational reconstruction ----------------------------------------------------


def expand_fraction(num_terms, den_terms, prec):
    """Series expansion of num/den computed via series division."""
    num = ts(num_terms, prec)
    den = ts(den_terms, prec)
    return num * den.inv()


def test_ratrec_geometric():
    f = ts({i: 1 for i in range(20)}, 20)
    num, den = rational_reconstruct(f, 0, 1)
    assert num == ts({0: 1}, 2)
    assert den == ts({0: 1, 1: -1}, 2)


def test_ratrec_monomial():
    num, den = rational_reconstruct(ts({2: 1}, 10), 2, 0)
    assert num == ts({2: 1}, 3) and den == ts({0: 1}, 3)


def test_ratrec_algebraic_gives_none():
    f = hensel_lift(y2_minus_one_plus_t(12), one(12))
    assert rational_reconstruct(f, 2, 2) is None


def test_ratrec_exp_heuristic_probe():
    # heuristic only: at finite degree bounds the exponential of an
    # algebraic infinitesimal never reconstructs as a rational function
    u = exp(t_mono(12))
    assert rational_reconstruct(u.series, 3, 3) is None
    sqrt_branch = hensel_lift(y2_minus_one_plus_t(12), one(12))
    eps = sqrt_branch - one(12)  # algebraic, v_min = 1
    assert rational_reconstruct(exp(eps).series, 3, 3) is None


def _coprime(num_terms, den_terms):
    from hahnseries.polynomials import Poly, poly_gcd

    def to_poly(terms):
        p = Poly()
        for i, v in terms.items():
            if v:
                p = p + Poly({((1, i),) if i else (): Fraction(v)})
        return p

    g = poly_gcd(to_poly(num_terms), to_poly(den_terms))
    return g.is_const()


def test_ratrec_roundtrip_random(rng):
    recovered = 0
    while recovered < 40:
        num_terms = {i: rng.randint(-3, 3) for i in range(rng.randint(1, 4))}
        den_terms = {0: 1}
        for i in range(1, rng.randint(1, 4)):
            den_terms[i] = rng.randint(-3, 3)
        if all(v == 0 for v in num_terms.values()):
            num_terms[0] = 1
        if not _coprime(num_terms, den_terms):
            continue
        dn = max(i for i, v in num_terms.items() if v != 0)
        dd = max(i for i, v in den_terms.items() if v != 0)
        f = expand_fraction(num_terms, den_terms, 14)
        result = rational_reconstruct(f, dn, dd)
        assert result is not None
        num, den = result
        got_num = {e.coords[0]: c.as_fraction() for e, c in num.terms}
        got_den = {e.coords[0]: c.as_fraction() for e, c in den.terms}
        assert got_num == {
            Fraction(i): Fraction(v) for i, v in num_terms.items() if v
        }
        assert got_den == {
            Fraction(i): Fraction(v) for i, v in den_terms.items() if v
        }
        recovered += 1


def test_ratrec_fractional_grid():
    # rational in s = t^(1/2): 1/(1 - s)
    f = ts({Fraction(i, 2): 1 for i in range(16)}, 8)
    num, den = rational_reconstruct(f, 0, 1)
    assert den == ts({0: 1, Fraction(1, 2): -1}, Fraction(1, 1))


def test_ratrec_subfield_contract():
    # coefficients in Q(a1); result coefficients stay in Q(a1)
    f = expand_fraction({0: a1, 1: 1}, {0: 1, 1: -a1}, 12)
    num, den = rational_reconstruct(f, 1, 1)
    for _, c in list(num.terms) + list(den.terms):
        assert c.variables() <= {1}


def test_ratrec_insufficient_precision():
    f = ts({i: 1 for i in range(4)}, 4)
    with pytest.raises(PrecisionError):
        rational_reconstruct(f, 2, 2)


def test_ratrec_zero_series():
    num, den = rational_reconstruct(ts({}, 5), 1, 1)
    assert num.is_zero_at_prec() and den.agrees_with(one(5))


# -- verify_root ----------------------------------------------------------------


def test_verify_root_examples():
    q = SeriesPolynomial([-t_mono(10), TruncatedSeries.zero(10), one(10)])
    half_root = t_mono(10, Fraction(1, 2))
    assert isinstance(verify_root(q, half_root), AtLeast)
    perturbed = half_root + t_mono(10, 5)
    assert verify_root(q, perturbed) == as_exponent(Fraction(11, 2))
    q2 = SeriesPolynomial([-one(10), one(10)])
    assert verify_root(q2, ts({}, 10)) == as_exponent(0)
