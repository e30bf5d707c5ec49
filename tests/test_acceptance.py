"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact equality unless a runtime bound is
stated, and runtime bounds are asserted with time.perf_counter.
"""

import random
import time
from fractions import Fraction
from math import factorial

from conftest import rand_coeff, rand_eps, rand_series
from hahnseries.analytic import (
    OneUnit,
    exp,
    hensel_lift,
    log,
    newton_puiseux,
    rational_reconstruct,
    track_denominators,
)
from hahnseries.coeffs import Coefficient, Place
from hahnseries.errors import NotInValuationRingError
from hahnseries.exponents import as_exponent
from hahnseries.series import (
    AtLeast,
    SeriesPolynomial,
    TruncatedSeries,
    eval_poly,
    phi_P,
    specialize_poly,
)
from hahnseries.valuation_spaces import (
    BasisFamily,
    ScalarField,
    build_restricted_exp,
    chain_basis_build,
    extend_basis,
    inclusion_exclusion_approx,
    is_valuation_independent,
    mult_inclusion_exclusion,
    skeleton_of,
    tensor_basis,
)

QQ = ScalarField.rationals()
a1, a2, a3 = Coefficient.alpha(1), Coefficient.alpha(2), Coefficient.alpha(3)


def ts(data, prec):
    return TruncatedSeries(data, prec)


def one(prec):
    return TruncatedSeries.one(prec)


def t_mono(prec, e=1, c=1):
    return TruncatedSeries.monomial(c, e, prec)


def binomial_coeff(q, i):
    num = Fraction(1)
    for k in range(i):
        num *= q - k
    return num / factorial(i)


def report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_exp_log_formulas():
    start = time.perf_counter()
    u = exp(t_mono(20))
    assert u.series == ts({i: Fraction(1, factorial(i)) for i in range(20)}, 20)
    l = log(OneUnit(one(20) + t_mono(20)))
    assert l == ts(
        {i: Fraction((-1) ** (i + 1), i) for i in range(1, 20)}, 20
    )
    rng = random.Random(101)
    for _ in range(100):
        eps = rand_eps(rng, prec=5, variables=(1,))
        assert log(exp(eps)) == eps
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "exp/log formulas")


def test_criterion_2_w_compatibility():
    rng = random.Random(202)
    for _ in range(500):
        eps = rand_eps(rng, prec=4, variables=(1,))
        delta = exp(eps).series - one(4)
        if eps.terms:
            assert delta.terms and delta.terms[0][0] == eps.terms[0][0]
        else:
            assert not delta.terms
    report(2, "w-compatibility of exp")


def test_criterion_3_hensel_contraction():
    prec = 13
    q = SeriesPolynomial(
        [-(one(prec) + t_mono(prec)), TruncatedSeries.zero(prec), one(prec)]
    )
    root, trace = hensel_lift(q, one(prec), with_trace=True)
    for i in range(13):
        assert root.coefficient(i) == binomial_coeff(Fraction(1, 2), i)
    exact = [v for v in trace if not isinstance(v, AtLeast)]
    assert all(b > a for a, b in zip(exact, exact[1:]))
    assert track_denominators(q, one(prec)) <= {2}
    report(3, "Hensel contraction")


def test_criterion_4_newton_puiseux():
    start = time.perf_counter()
    prec = 12
    q = SeriesPolynomial([t_mono(prec + 1), -one(prec + 1), one(prec + 1)])
    roots = newton_puiseux(q, prec)
    branch = next(r for r in roots if r.terms and r.terms[0][0] > as_exponent(0))
    catalan = [1]
    for m in range(10):
        catalan.append(sum(catalan[i] * catalan[m - i] for i in range(m + 1)))
    for n in range(1, 7):
        assert branch.coefficient(n).as_fraction() == catalan[n - 1]
    q2 = SeriesPolynomial([-t_mono(prec + 1), TruncatedSeries.zero(prec + 1), one(prec + 1)])
    half_roots = newton_puiseux(q2, prec)
    assert sorted(str(r.terms[0][0]) for r in half_roots) == ["1/2", "1/2"]
    assert {str(r.leading_coeff()) for r in half_roots} == {"1", "-1"}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(4, "Newton-Puiseux")


def _random_poly_pair(rng, variables, max_deg):
    """Random coprime (num, den) term dicts with den(0) = 1."""
    from hahnseries.polynomials import Poly, poly_gcd

    while True:
        dn = rng.randint(0, max_deg)
        dd = rng.randint(0, max_deg)
        num = {}
        for i in range(dn + 1):
            if variables and rng.random() < 0.4:
                num[i] = rand_coeff(rng, variables, max_deg=1, allow_den=False)
            else:
                num[i] = Coefficient.const(rng.randint(-3, 3))
        den = {0: Coefficient.one()}
        for i in range(1, dd + 1):
            if variables and rng.random() < 0.4:
                den[i] = rand_coeff(rng, variables, max_deg=1, allow_den=False)
            else:
                den[i] = Coefficient.const(rng.randint(-3, 3))
        num = {i: c for i, c in num.items() if not c.is_zero()}
        den = {i: c for i, c in den.items() if not c.is_zero()}
        if not num:
            continue

        def to_poly(terms):
            p = Poly()
            for i, c in terms.items():
                p = p + c.num * Poly({((9, i),) if i else (): Fraction(1)})
            return p

        if poly_gcd(to_poly(num), to_poly(den)).is_const():
            return num, den


def test_criterion_5_rational_reconstruction():
    rng = random.Random(505)
    for variables, count, max_deg in ((
        (), 60, 4), ((1,), 40, 3)):
        for _ in range(count):
            num_terms, den_terms = _random_poly_pair(rng, variables, max_deg)
            dn = max(num_terms)
            dd = max(den_terms)
            prec = dn + dd + 4
            f = ts(num_terms, prec) * ts(den_terms, prec).inv()
            result = rational_reconstruct(f, dn, dd)
            assert result is not None
            num, den = result
            assert {e.coords[0]: c for e, c in num.terms} == {
                Fraction(i): c for i, c in num_terms.items()
            }
            assert {e.coords[0]: c for e, c in den.terms} == {
                Fraction(i): c for i, c in den_terms.items()
            }
            # subfield contract: rational inputs give rational outputs
            if not variables:
                for _, c in list(num.terms) + list(den.terms):
                    assert c.variables() == set()
    report(5, "rational reconstruction round trip")


def test_criterion_6_phi_homomorphism_and_commutation():
    rng = random.Random(606)
    checked = 0
    while checked < 500:
        f = rand_series(rng, prec=5, variables=(1, 2))
        g = rand_series(rng, prec=5, variables=(1, 2))
        place = Place(rng.choice((1, 2)), Fraction(rng.randint(-4, 4)))
        try:
            pf, pg = phi_P(f, place), phi_P(g, place)
            assert phi_P(f * g, place).agrees_with(pf * pg)
            assert phi_P(f + g, place).agrees_with(pf + pg)
        except NotInValuationRingError:
            continue
        checked += 1
    checked = 0
    while checked < 100:
        coeffs = [rand_series(rng, prec=5, variables=(1,), lo=0) for _ in range(3)]
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
    # the specialized Hensel root satisfies the specialized polynomial
    prec = 8
    base = one(prec) + t_mono(prec, c=a1)
    q = SeriesPolynomial([-base, TruncatedSeries.zero(prec), one(prec)])
    root = hensel_lift(q, one(prec))
    place = Place(1, Fraction(2))
    specialized_root = phi_P(root, place)
    residual = eval_poly(specialize_poly(q, place), specialized_root)
    assert residual.is_zero_at_prec()
    report(6, "place homomorphism and commutation")


def _span_sample(rng, prec, missing_sets):
    total = None
    for vs in missing_sets:
        piece = rand_series(rng, prec=prec, variables=vs, lo=0, hi=prec - 1)
        total = piece if total is None else total + piece
    return total


def test_criterion_7_inclusion_exclusion():
    start = time.perf_counter()
    rng = random.Random(707)
    for variables in ([1, 2], [1, 2, 3]):
        listed = set(variables)
        prec = 10
        mixed = Coefficient.one()
        for v in variables:
            mixed = mixed * Coefficient.alpha(v)
        terms = {
            1: mixed,  # in no proper subfield
            2: Coefficient.alpha(variables[0]) + 1,
            3: Coefficient.alpha(variables[-1]) * 2,
            4: mixed * mixed + Coefficient.alpha(variables[0]),
            5: Coefficient.const(Fraction(3, 2)),
        }
        f = ts(terms, prec)
        res = inclusion_exclusion_approx(f, variables)
        # every nonzero-sigma summand misses the variable of its least set bit
        for key, s in res.summands.items():
            var = variables[key.index("1")]
            for _, c in s.terms:
                assert var not in c.variables()
        # coefficient-level identity at every stored exponent whose
        # coefficient misses some listed variable
        for e, c in f.terms:
            if not listed <= c.variables():
                assert res.h.coefficient(e) == c
        # optimality against sampled span elements
        best = (f - res.h).v_floor()
        missing_sets = [tuple(listed - {v}) for v in variables]
        for _ in range(200):
            b = _span_sample(rng, prec, missing_sets)
            assert (f - b).v_floor() <= best
        # structured worst case: agree with h, then perturb at the front
        worst = res.h + t_mono(prec, best.coords[0], c=Coefficient.alpha(variables[0]))
        assert (f - worst).v_floor() <= best
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(7, "inclusion-exclusion optimal approximation")


def test_criterion_8_multiplicative_conjugation():
    rng = random.Random(808)
    for _ in range(50):
        eps = rand_eps(rng, prec=5, variables=(1, 2))
        u = exp(eps)
        res = mult_inclusion_exclusion(u, [1, 2])
        add = inclusion_exclusion_approx(log(u), [1, 2], places=res.places)
        assert res.h.series.agrees_with(exp(add.h).series)
    report(8, "multiplicative conjugation")


def test_criterion_9_basis_machinery():
    rng = random.Random(909)
    # agreement with the randomized defining equation on 500 instances
    for _ in range(500):
        k = rng.randint(2, 4)
        family = [
            rand_series(rng, prec=5, nonzero=True, variables=(1,), lo=0, hi=3)
            for _ in range(k)
        ]
        if rng.random() < 0.5:
            noise = ts({4: rng.randint(1, 3)}, 5)
            family[-1] = family[0].scalar_mul(rng.randint(1, 3)) + noise
        result = is_valuation_independent(family, QQ)
        if result.independent:
            for _ in range(10):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in family]
                if all(c == 0 for c in coeffs):
                    continue
                combo = None
                for s, c in zip(family, coeffs):
                    piece = s.scalar_mul(c)
                    combo = piece if combo is None else combo + piece
                expected = min(
                    s.terms[0][0] for s, c in zip(family, coeffs) if c != 0
                )
                assert combo.terms and combo.terms[0][0] == expected
        else:
            floor = min(
                s.terms[0][0]
                for s, c in zip(family, result.witness)
                if not c.is_zero()
            )
            combo = None
            for s, c in zip(family, result.witness):
                piece = s.scalar_mul(c)
                combo = piece if combo is None else combo + piece
            assert combo.v_floor() > floor
    # extend_basis output always independent
    basis = BasisFamily([], QQ)
    for _ in range(60):
        basis = extend_basis(
            basis, rand_series(rng, prec=6, nonzero=True, variables=(1,), lo=0, hi=5)
        )
        assert is_valuation_independent(basis.entries, QQ).independent
    # chain over {} < {1} < {1, 2}: nested and union independent
    stages = chain_basis_build(
        [
            [t_mono(6), ts({0: 1, 2: 1}, 6)],
            [t_mono(6, c=a1), ts({1: a1, 3: 1}, 6)],
            [t_mono(6, c=a1 * a2), t_mono(6, 2, c=a2)],
        ],
        [set(), {1}, {1, 2}],
    )
    for prev, cur in zip(stages, stages[1:]):
        assert set(prev.entries) <= set(cur.entries)
    assert is_valuation_independent(stages[-1].entries, QQ).independent
    report(9, "basis machinery")


def test_criterion_10_applications():
    rng = random.Random(1010)
    # tensor independence on 100 instances
    for _ in range(100):
        shift = rng.randint(-2, 2)
        entries = [t_mono(6), ts({2: 1, 3: rng.randint(-2, 2)}, 6)]
        basis = BasisFamily(entries, ScalarField.with_vars({1}))
        coeffs = [Coefficient.one(), a1 + shift]
        result = tensor_basis(basis, coeffs, QQ)
        assert is_valuation_independent(result.entries, QQ).independent
    # skeleton equality drives the restricted exponential
    additive = BasisFamily([t_mono(8), t_mono(8, 2, c=3)], QQ)
    units = [exp(t_mono(8)), exp(t_mono(8, 2))]
    assert skeleton_of(additive.entries, QQ).values() == skeleton_of(
        [u.delta() for u in units], QQ
    ).values()
    mapping = build_restricted_exp(additive, units)
    for _ in range(100):
        e1 = t_mono(8).scalar_mul(rng.randint(-3, 3)) + t_mono(8, 2).scalar_mul(
            rng.randint(-3, 3)
        )
        e2 = t_mono(8).scalar_mul(rng.randint(-3, 3))
        assert mapping.check_homomorphism(e1, e2)
        assert mapping.check_w_compat(e1)
    # split_neg recombines exactly
    for _ in range(100):
        f = rand_series(rng, prec=5, lo=-3, hi=4, variables=(1,))
        neg, ring = f.split_neg()
        assert neg + ring == f
        zero = f.prec.scale(0)
        assert all(e < zero for e, _ in neg.terms)
        assert all(e >= zero for e, _ in ring.terms)
    report(10, "applications")


def test_criterion_11_cli():
    from test_cli import CASES, GOLDEN, run_cli
    from hahnseries.parsing import parse_expression

    # golden files for every subcommand
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        assert code == 0
        assert out == (GOLDEN / f"{name}.txt").read_text()
    # 1000 fuzzed parse/print round trips
    rng = random.Random(1111)
    for i in range(1000):
        kind = i % 3
        if kind == 0:
            value = rand_series(rng, prec=8, variables=(1, 2), lo=-3, hi=7)
        elif kind == 1:
            value = rand_coeff(rng, (1, 2))
        else:
            coeffs = [
                rand_series(rng, prec=6, variables=(1,), lo=0, hi=5)
                for _ in range(rng.randint(1, 3))
            ]
            value = SeriesPolynomial(coeffs)
            if value.is_zero():
                continue
        printed = str(value)
        assert parse_expression(printed, default_prec=8) == value
    # deterministic output for a fixed seed
    argv = ["--seed", "5", "--prec", "8", "inclexcl", "a1*a2*t + a1*t^2", "--vars", "1,2"]
    assert run_cli(argv) == run_cli(argv)
    report(11, "command-line interface")
