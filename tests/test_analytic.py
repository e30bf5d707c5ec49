import os
import random
from collections import Counter
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import pytest

import hahnseries.analytic as analytic
from conftest import rand_coeff, rand_eps, rand_fraction, rand_series
from test_series import _public_eval_poly
from hahnseries.coeffs import Coefficient
from hahnseries.errors import PrecisionError, PreconditionError
from hahnseries.exponents import Exponent, as_exponent, reach_count
from hahnseries import series as series_module
from hahnseries.series import (
    INT_BITS,
    AtLeast,
    SeriesPolynomial,
    TruncatedSeries,
    eval_poly,
)
from hahnseries.analytic import (
    OneUnit,
    _shift_poly,
    exp,
    hensel_lift,
    log,
    newton_puiseux,
    rational_reconstruct,
    track_denominators,
    unit_pow,
    verify_root,
)
from hahnseries.parsing import parse_expression

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


def test_unit_pow_matches_exp_log_composition(rng):
    # exp(q * log u) is an independent route to u^q: two other series
    exponents = [Fraction(n, d) for n, d in ((-3, 2), (-1, 1), (-1, 3), (1, 2), (2, 1), (5, 3))]
    for k in range(50):
        variables = (1,) if k % 2 else ()
        u = OneUnit(one(4) + rand_eps(rng, prec=4, variables=variables))
        q = rng.choice(exponents)
        assert unit_pow(u, q).series == exp(log(u).scalar_mul(q)).series
    # rank 2, reachable: (1, 0) reaches the precision (3, 0) in three steps
    u = OneUnit(TruncatedSeries({(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, -1): -1}, (3, 0)))
    for q in exponents:
        assert unit_pow(u, q).series == exp(log(u).scalar_mul(q)).series
    # rank 2, unreachable: no multiple of (0, 1) reaches (1, 0)
    u = OneUnit(TruncatedSeries({(0, 0): 1, (0, 1): 1}, (1, 0)))
    with pytest.raises(PrecisionError):
        unit_pow(u, Fraction(1, 2))
    with pytest.raises(PrecisionError):
        exp(log(u).scalar_mul(Fraction(1, 2)))


def test_unit_pow_examples():
    u = OneUnit(one(5) + t_mono(5))
    assert unit_pow(u, 0).series == one(5)
    cube_root = unit_pow(u, Fraction(1, 3))
    assert unit_pow(cube_root, 3).agrees_with(u)
    # integer power matches repeated multiplication
    sq = unit_pow(u, 2)
    assert sq.agrees_with(u.series * u.series)


def test_analytic_functions_take_no_series_products(monkeypatch):
    # first_order builds each coefficient by one convolution: no series powers
    data = {
        Fraction(k, 2): Fraction((-1) ** k * (k % 7 + 1), k % 3 + 1)
        for k in range(1, 23)
    }
    u = OneUnit(ts({0: 1, **data}, 12))
    assert len(u.series.terms) == 23
    calls = []
    real_mul = TruncatedSeries.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    square = unit_pow(u, 2)
    cube = unit_pow(u, 3)
    unit_pow(u, Fraction(-1, 3))
    exp(u.delta())
    log(u)
    u.series.inv()
    monkeypatch.undo()
    assert calls == []
    assert square.series == u.series * u.series
    assert cube.series == u.series * u.series * u.series


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


def _linear_hensel_lift(q, r, max_steps=10_000, with_trace=False):
    """The fixed-slope lift x -> x - q(x)/q'(r) the library ran before
    Newton's iteration: one residual per term.  The oracle for
    hensel_lift."""
    zero = r.prec.scale(0)
    slope = eval_poly(q.derivative(), r)
    if not slope.terms or slope.terms[0][0] != zero:
        raise PreconditionError(
            f"v_min(Q'(r)) = {slope.v_min()} is not zero"
        )
    res = eval_poly(q, r)
    if res.terms and not res.terms[0][0] > zero:
        raise PreconditionError(
            f"v_min(Q(r)) = {res.terms[0][0]} is not positive"
        )
    if res.terms and reach_count(res.terms[0][0], r.prec) is None:
        raise PrecisionError(
            "precision unreachable from the initial residual valuation"
        )
    slope_inv = slope.inv()
    x = r
    trace = [res.v_min()]
    steps = 0
    while res.terms:
        if steps >= max_steps:
            raise PrecisionError(f"no convergence within {max_steps} steps")
        x = x - res * slope_inv
        new_res = eval_poly(q, x)
        if new_res.terms and not new_res.terms[0][0] > res.terms[0][0]:
            raise PrecisionError("residual valuation failed to increase")
        res = new_res
        trace.append(res.v_min())
        steps += 1
    if with_trace:
        return x, trace
    return x


RANK2_HENSEL_SUPPORTS = (
    [(1, -1), (1, 0), (1, 2), (2, -3)],
    [(1, 0), (1, 1), (2, -1)],
    [(1, -2), (1, 3)],
)


def _grid_series(rng, grid, prec, field):
    """Dense series on the 1/grid steps from 0 below prec."""
    data = {}
    k = 0
    while Fraction(k, grid) < prec:
        data[Fraction(k, grid)] = field(rng)
        k += 1
    return ts(data, prec)


def _hensel_case(rng, i):
    """(q, r) for the linear-lift oracle; case i % 8 picks the shape.

    The constant coefficient is shifted so that q(r0) = 0 mod t, hence
    most cases lift and the rest refuse (a non-unit Q'(r), an
    unreachable precision); every tenth q has r itself as a root.
    """
    case = i % 8
    field = lambda r: Coefficient.const(rand_fraction(r, 4))
    if case == 7:  # Q(a1): few terms, symbolic coefficients
        field = lambda r: (
            rand_coeff(r, (1,), max_deg=1, allow_den=r.random() < 0.3)
            if r.random() < 0.5
            else Coefficient.const(rand_fraction(r, 4))
        )
    degree = rng.choice((2, 3)) if case < 4 else rng.randint(1, 3)
    r0 = Coefficient.const(rand_fraction(rng, 3))
    if case == 6:  # rank 2: residuals of class (1, .) reach (3, 0)
        prec = Exponent((Fraction(3), Fraction(0)))
        support = rng.choice(RANK2_HENSEL_SUPPORTS)
        if rng.random() < 0.2:  # class (0, .) never reaches (1, 0)
            prec, support = Exponent((Fraction(1), Fraction(0))), [(0, 1)]

        def rank2():
            data = {(0, 0): field(rng)}
            for e in rng.sample(support, rng.randint(1, len(support))):
                data[e] = field(rng)
            return TruncatedSeries(data, prec)

        coeffs = [rank2() for _ in range(degree + 1)]
        r = TruncatedSeries({(0, 0): r0}, prec)
    else:
        grid = rng.randint(1, 3)
        n = rng.randint(4, rng.choice((8, 16))) if case < 6 else rng.randint(4, 5)
        prec = Fraction(n, grid)
        shifts = {4: (-2, -1), 5: (1, 2)}.get(case, (-1, 0, 0, 1))
        coeffs = []
        for _ in range(degree + 1):
            p = max(prec + Fraction(rng.choice(shifts), grid), Fraction(1, grid))
            coeffs.append(_grid_series(rng, grid, p, field))
        r_data = {0: r0}
        for k in range(1, rng.randint(1, 3)):
            r_data[Fraction(k, grid)] = field(rng)
        r = ts(r_data, prec)
    zero = prec.scale(0) if isinstance(prec, Exponent) else 0
    value = sum(
        (c.coefficient(zero) * r0**k for k, c in enumerate(coeffs)),
        Coefficient.zero(),
    )
    coeffs[0] = coeffs[0] - value
    if i % 10 == 9:  # r is a root at working precision
        coeffs[0] = coeffs[0] - eval_poly(SeriesPolynomial(coeffs), r)
    return SeriesPolynomial(coeffs), r


def _lift_outcome(lift, q, r):
    try:
        root = lift(q, r)
    except (PrecisionError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)
    return root.terms, root.prec


def test_hensel_matches_the_linear_lift():
    rng = random.Random(1978)
    seen = set()
    roots = 0
    for i in range(320):
        q, r = _hensel_case(rng, i)
        want = _lift_outcome(_linear_hensel_lift, q, r)
        res = eval_poly(q, r)
        if not res.terms and want[0] != "PreconditionError":
            # r is a root at working precision: it comes back at the
            # residual's precision, and no slope is inverted (the linear
            # lift inverted it first and kept r.prec)
            want = r.truncate(res.prec).terms, min(r.prec, res.prec)
            roots += 1
        assert _lift_outcome(hensel_lift, q, r) == want, (i, str(q), str(r))
        seen.add((i % 8, isinstance(want[0], str)))
    lifted = {case for case, refused in seen if not refused}
    assert lifted >= set(range(8))
    assert {case for case, refused in seen if refused} >= {6}
    assert roots >= 20


def test_hensel_stalled_residual_matches_the_linear_lift():
    # t^-1 (y - 1)^2 + (y - 1) + t has no root 1 + O(t) in Q((t)):
    # the residual of 1 - t is again t
    q = SeriesPolynomial([ts({-1: 1, 0: -1, 1: 1}, 6), ts({-1: -2, 0: 1}, 6),
                          ts({-1: 1}, 6)])
    want = ("PrecisionError", "residual valuation failed to increase")
    assert _lift_outcome(_linear_hensel_lift, q, one(6)) == want
    assert _lift_outcome(hensel_lift, q, one(6)) == want


def test_hensel_root_keeps_the_residual_precision():
    # q(1) = 0 to O(t^2) only: 1 is not known to be a root beyond that
    q = SeriesPolynomial([-ts({0: 1}, 2), one(5)])
    assert hensel_lift(q, one(5)) == one(2)
    assert hensel_lift(q, one(5), with_trace=True)[1] == [AtLeast(as_exponent(2))]


def test_hensel_root_needs_no_slope_inverse():
    # q(1) = 0 exactly, and 1/q'(1) = 1/(2 - 2t^(0,1)) does not reach (1, 0)
    prec = (1, 0)
    s = TruncatedSeries({(0, 1): 1}, prec)
    r = TruncatedSeries.one(prec)
    q = SeriesPolynomial([r.scalar_mul(-3), r.scalar_mul(4) + s.scalar_mul(2),
                          -r - s.scalar_mul(2)])
    with pytest.raises(PrecisionError):
        eval_poly(q.derivative(), r).inv()
    assert hensel_lift(q, r) == r


def test_hensel_corrections_merge_into_the_start():
    # q = y^2 - (1 + t)^2: each start's t^1 or t^3 term is wrong, and the
    # Newton correction lands on it, moving it (3t -> t) or cancelling it
    q = SeriesPolynomial([-(ts({0: 1, 1: 1}, 8) * ts({0: 1, 1: 1}, 8)), ts({}, 8), one(8)])
    for start in ({0: 1, 1: 3}, {0: 1, 1: 1, 3: 5}, {0: 1, 1: 3, 2: -1, 3: 5}):
        r = ts(start, 8)
        root = hensel_lift(q, r)
        assert root == ts({0: 1, 1: 1}, 8), start
        assert root.terms == TruncatedSeries(root.terms, root.prec).terms
        assert _lift_outcome(hensel_lift, q, r) == _lift_outcome(_linear_hensel_lift, q, r)


def _dense_quadratic(n):
    # (y - s)(y + 2) with s = 1 + 2t + 3t^2 + ... dense to t^n
    s = ts({k: k + 1 for k in range(n)}, n)
    two = one(n).scalar_mul(2)
    return SeriesPolynomial([-(s * two), two - s, one(n)]), one(n), s


def test_hensel_takes_log_many_residuals():
    q, r, s = _dense_quadratic(16)
    root, trace = hensel_lift(q, r, with_trace=True)
    assert root == s
    assert len(trace) <= 6
    assert len(_linear_hensel_lift(q, r, with_trace=True)[1]) == 16
    exact = [v for v in trace if not isinstance(v, AtLeast)]
    assert all(b > a for a, b in zip(exact, exact[1:]))
    assert isinstance(trace[-1], AtLeast)


def test_hensel_step_budget(monkeypatch):
    assert analytic.HENSEL_STEPS == 10_000
    q, r, _ = _dense_quadratic(16)
    monkeypatch.setattr(analytic, "HENSEL_STEPS", 1)
    with pytest.raises(PrecisionError, match="no convergence within 1 steps"):
        hensel_lift(q, r)


def _public_hensel_lift(q, r, with_trace=False):
    """Newton's iteration on public series operations, as hensel_lift ran
    before it lifted once per call: the oracle for the lifted loop."""
    zero = r.prec.scale(0)
    dq = q.derivative()
    slope = _public_eval_poly(dq, r)
    if not slope.terms or slope.terms[0][0] != zero:
        raise PreconditionError(f"v_min(Q'(r)) = {slope.v_min()} is not zero")
    res = _public_eval_poly(q, r)
    if res.terms and not res.terms[0][0] > zero:
        raise PreconditionError(f"v_min(Q(r)) = {res.terms[0][0]} is not positive")
    if res.terms and reach_count(res.terms[0][0], r.prec) is None:
        raise PrecisionError("precision unreachable from the initial residual valuation")
    x, trace = r, [res.v_min()]
    while res.terms:
        if len(trace) > analytic.HENSEL_STEPS:
            raise PrecisionError(f"no convergence within {analytic.HENSEL_STEPS} steps")
        m = res.terms[0][0]
        cut = min(res.prec, m + m)
        if len(trace) > 1:
            slope = _public_eval_poly(dq, x.truncate(cut - m))
        step = res.truncate(cut) * slope.inv()
        # x - step, known to the residual's precision rather than step's
        known = min(x.prec, res.prec)
        terms = dict(x.truncate(known).terms)
        for e, c in step.terms:
            terms[e] = terms.get(e, Coefficient.zero()) - c
        x = TruncatedSeries(terms, known)
        new_res = _public_eval_poly(q, x)
        if new_res.terms and not new_res.terms[0][0] > m:
            raise PrecisionError("residual valuation failed to increase")
        res = new_res
        trace.append(res.v_min())
    x = x.truncate(res.prec)
    return (x, trace) if with_trace else x


@pytest.mark.parametrize("int_bits", [0, INT_BITS])
def test_hensel_matches_newton_on_public_operations(monkeypatch, int_bits):
    """Every residual, slope inverse and correction on one lift gives the
    root, the trace and the refusals of the same iteration run on public
    series operations (with eval_poly as Horner's rule over them): over Q
    and Q(a1), rank 1 and 2, coefficients of unequal precisions, starts
    that are already roots, with INT_BITS at 0 and at its value."""
    monkeypatch.setattr(series_module, "INT_BITS", int_bits)
    def outcome(lift, q, r):
        try:
            return lift(q, r, with_trace=True)
        except (PrecisionError, PreconditionError) as exc:
            return type(exc).__name__, str(exc)

    rng = random.Random(1025)
    kinds = Counter()
    for i in range(320):
        q, r = _hensel_case(rng, i)
        got, want = outcome(hensel_lift, q, r), outcome(_public_hensel_lift, q, r)
        assert got == want, (i, str(q), str(r))
        if isinstance(got[0], str):
            kinds["refused"] += 1
            continue
        root, trace = got
        assert all(type(c) is Fraction for e, _ in root.terms for c in e.coords)
        kinds["rank 2" if r.rank == 2 else "rank 1"] += 1
        kinds["Q(a1)" if i % 8 == 7 else "Q"] += 1
        kinds["root at start"] += len(trace) == 1
        kinds["unequal precisions"] += len({c.prec for c in q.coeffs}) > 1
    assert kinds["refused"] > 10 and kinds["rank 2"] > 20 and kinds["Q(a1)"] > 20, kinds
    assert kinds["root at start"] > 20 and kinds["unequal precisions"] > 100, kinds


def test_one_hensel_lift_wraps_one_series(monkeypatch):
    """The Newton loop runs on lifted values: the root is the only series
    built, by one _drop, however many steps it takes."""
    drops = []
    for module in (series_module, analytic):
        real = module._drop
        monkeypatch.setattr(module, "_drop", lambda *a, real=real: drops.append(a) or real(*a))
    for n in (4, 16, 64):
        q, r, s = _dense_quadratic(n)
        drops.clear()
        root, trace = hensel_lift(q, r, with_trace=True)
        assert root == s and len(trace) > 2
        assert len(drops) == 1, n


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


def test_track_denominators_large_prime_in_bounded_time(monkeypatch):
    # the root's denominators carry p^k: only the input denominators and the
    # residue of Q'(r) are factored, never p^k itself
    import hahnseries.analytic as analytic

    p = 100000007
    q = SeriesPolynomial([-(one(4) + t_mono(4).scalar_mul(Fraction(1, p))), ts({}, 4), one(4)])
    factored = []
    real = analytic._prime_factors

    def recording(n):
        factored.append(n)
        return real(n)

    monkeypatch.setattr(analytic, "_prime_factors", recording)
    start = time.perf_counter()
    assert track_denominators(q, one(4)) == {2, p}
    assert time.perf_counter() - start < 0.5
    assert max(factored) == p  # every cofactor of a root denominator is 1


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


def test_puiseux_polygon_refusals_come_before_the_separation_refusal():
    t = t_mono(6)
    y = one(6)
    # (y^3 - t)*(y - 1) = y^4 - y^3 - t*y + t
    q = SeriesPolynomial([t, -t, TruncatedSeries.zero(6), -y, y])
    with pytest.raises(PreconditionError, match="degree 3 exceeds the quadratic solver"):
        newton_puiseux(q, 4)
    # the double root t is reached first, yet the cubic's refusal wins
    q = parse_expression("(y - t)^2*(y^3 - 2)", default_prec=6)
    with pytest.raises(PreconditionError, match="degree 3 exceeds the quadratic solver"):
        newton_puiseux(q, 6)


@pytest.mark.parametrize(
    "text, parse_prec, prec, expected",
    [
        # the constant coefficient is known to t^6 only
        ("y + t + 1/2*t^4", 6, 7, ["-t - 1/2*t^4 + O(t^6)"]),
        ("(y - t)*(y - t - t^2)", 4, 4, ["t + O(t^3)", "t + t^2 + O(t^3)"]),
        ("y^2 - t", 5, 5, ["-t^(1/2) + O(t^(9/2))", "t^(1/2) + O(t^(9/2))"]),
        # t*r^2 with v(r) = -1 is known to t^3
        ("t*y^2 - y + 1", 5, 5,
         ["1 + t + 2*t^2 + 5*t^3 + 14*t^4 + O(t^5)", "t^(-1) - 1 - t - 2*t^2 + O(t^3)"]),
        ("(y - 1)*(y - 1 - t^3)", 7, 7, ["1 + O(t^4)", "1 + t^3 + O(t^4)"]),
    ],
)
def test_puiseux_roots_carry_the_precision_their_coefficients_determine(
    text, parse_prec, prec, expected
):
    roots = newton_puiseux(parse_expression(text, default_prec=parse_prec), prec)
    assert sorted(str(r) for r in roots) == expected


@pytest.mark.parametrize(
    "text",
    [
        # a tail of 1/4*t^6 on the constant merges the roots 1 and 1 + t^3
        "(y - 1)*(y - 1 - t^3)",
        # the completion y^2 + t^2*y - t^4 has the roots t^2*(-1 +- sqrt(5))/2
        "y^2 + O(t^2)*y - t^4",
    ],
)
def test_puiseux_refuses_roots_it_cannot_separate(text):
    with pytest.raises(PreconditionError, match="^roots not separated at the working precision: "
                       "the polynomial is not squarefree, or its known coefficients do not "
                       "determine the roots$"):
        newton_puiseux(parse_expression(text, default_prec=6), 6)


def test_puiseux_answers_degree_9_and_10():
    nine = "(y - t)*(y - 2*t)*(y - t^2)*(y - 1)*(y - 2)*(y - 2*t^2)*(y - t^3)*(y - 2*t^3)*(y - t^4)"
    ten = "(y-1)*(y-2)*(y-t)*(y-2*t)*(y-t^2)*(y-2*t^2)*(y-t^3)*(y-2*t^3)*(y-t^4)*(y-2*t^4)"
    for text, degree in ((nine, 9), (ten, 10)):
        start = time.perf_counter()
        roots = newton_puiseux(parse_expression(text, default_prec=6), 6)
        assert time.perf_counter() - start < 1.0
        assert len(roots) == degree
        assert all(r.prec == as_exponent(6) and len(r.terms) == 1 for r in roots)


def test_puiseux_refuses_a_leading_coefficient_zero_at_precision():
    # the completion t^2*y^2 + y + 1 has a root of valuation -2 besides -1
    q = parse_expression("O(t^2)*y^2 + y + 1", default_prec=5)
    assert q.degree == 2
    with pytest.raises(PrecisionError, match="leading coefficient"):
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
    # cubics with root valuations 0, 1 and 2: every initial form is linear
    for _ in range(12):
        planted = []
        for v in range(3):
            data = {v: rng.choice((-3, -2, -1, 1, 2, 3))}
            for _ in range(rng.randint(0, 2)):
                data[Fraction(2 * v + rng.randint(1, 8), 2)] = rng.randint(-3, 3)
            planted.append(ts(data, 9))
        r1, r2, r3 = planted
        q = SeriesPolynomial(
            [-(r1 * r2 * r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 + r2 + r3), one(9)]
        )
        roots = newton_puiseux(q, 7)
        assert len(roots) == 3
        assert all(roots[i] != roots[j] for i in range(3) for j in range(i))
        for expected in planted:
            assert any(r.agrees_with(expected.truncate(7)) for r in roots)


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
    assert newton_puiseux(q, 4, branch_count=0) == []
    with pytest.raises(PreconditionError, match="branch count must be nonnegative, got -1"):
        newton_puiseux(q, 4, branch_count=-1)


def test_puiseux_memory_does_not_keep_the_ancestors_polynomials():
    """Each node of a branch lets go of its shifted polynomial before its
    last child descends, so at prec 600 the one deep branch of y^2 - y + t
    stays far under the ~100 MB that keeping every ancestor's takes."""
    code = (
        "import resource, sys\n"
        "from hahnseries.cli import main\n"
        "assert main(['--prec', '600', 'puiseux', 'y^2 - y + t']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    # a spawned process starts with its parent's peak resident size in
    # ru_maxrss, so the child is started from a small interpreter
    child = [sys.executable, "-c", code]
    outer = f"import subprocess, sys; sys.exit(subprocess.run({child!r}).returncode)"
    done = subprocess.run(
        [sys.executable, "-c", outer],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    peak_kb = int(done.stderr.split()[-1])
    if sys.platform == "darwin":
        peak_kb //= 1024  # ru_maxrss is in bytes there
    assert peak_kb < 60 * 1024, peak_kb


def binomial_shift(q, c, mu):
    """Coefficients of q(c*t^mu + y) by the binomial expansion:
    the coefficient of y^j is sum over i >= j of binom(i, j) c^(i-j)
    t^((i-j) mu) q_i."""
    coeffs = q.coeffs
    d = len(coeffs) - 1
    out = []
    for j in range(d + 1):
        acc = None
        for i in range(j, d + 1):
            factor = Coefficient.const(comb(i, j)) * c ** (i - j)
            term = coeffs[i].shift_scale(factor, mu.scale(i - j))
            acc = term if acc is None else acc + term
        out.append(acc)
    return SeriesPolynomial(out)


def test_shift_poly_matches_binomial_expansion(rng):
    shifts = (
        Coefficient.const(2),
        Coefficient.const(Fraction(-1, 3)),
        a1,
        Coefficient.one() / (1 + a1),
    )
    slopes = [
        as_exponent(m)
        for m in (1, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2), -2)
    ]
    for k in range(100):
        variables = (1,) if k % 2 else ()
        deg = 1 + k % 5
        coeffs = [
            rand_series(
                rng,
                prec=rng.choice((3, Fraction(7, 2), 5, 6)),
                variables=variables,
                nonzero=i == deg,
            )
            for i in range(deg + 1)
        ]
        q = SeriesPolynomial(coeffs)
        c, mu = rng.choice(shifts), rng.choice(slopes)
        assert _shift_poly(q, c, mu).coeffs == binomial_shift(q, c, mu).coeffs


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


@pytest.mark.parametrize("deg_num, deg_den", [(0, -3), (-1, 1), (-2, -2)])
def test_ratrec_rejects_negative_degrees(deg_num, deg_den):
    for f in (ts({i: 1 for i in range(5)}, 5), ts({}, 5)):
        with pytest.raises(PreconditionError, match="nonnegative"):
            rational_reconstruct(f, deg_num, deg_den)


def test_ratrec_zero_series():
    num, den = rational_reconstruct(ts({}, 5), 1, 1)
    assert num.is_zero_at_prec() and den.agrees_with(one(5))


def test_ratrec_rejects_rank_2():
    with pytest.raises(PreconditionError, match="rank-1"):
        rational_reconstruct(ts({(0, 1): 1}, (3, 0)), 0, 1)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_puiseux_stack_depth_does_not_grow_with_the_precision():
    # a branch is one node deeper per root term: the prec-100 roots of
    # y^2 - y + t have about 100 terms each, and are found within a limit
    # of 60 frames above the caller's
    q = parse_expression("y^2 - y + t", default_prec=100)
    want = newton_puiseux(q, 100)
    assert [len(r.terms) for r in want] == [100, 99]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        got = newton_puiseux(q, 100)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_puiseux_refusals(monkeypatch):
    assert analytic.PUISEUX_STEPS == 2_000
    y2_minus_t = SeriesPolynomial([ts({1: -1}, 5), ts({}, 5), one(5)])
    monkeypatch.setattr(analytic, "PUISEUX_STEPS", 3)
    assert len(newton_puiseux(y2_minus_t, 5)) == 2
    monkeypatch.setattr(analytic, "PUISEUX_STEPS", 2)
    with pytest.raises(PrecisionError, match="budget"):
        newton_puiseux(y2_minus_t, 5)
    with pytest.raises(PreconditionError, match="positive degree"):
        newton_puiseux(SeriesPolynomial([one(5)]), 5)
    rank2 = [ts({(1, 0): -1}, (5, 0)), ts({}, (5, 0)), one((5, 0))]
    with pytest.raises(PreconditionError, match="rank-1"):
        newton_puiseux(SeriesPolynomial(rank2), (5, 0))


def test_one_unit_inverse_quotient_and_equality():
    u = OneUnit(one(5) + t_mono(5))
    v = OneUnit(one(5) + t_mono(5, 2))
    assert str(u.inv()) == "1 - t + t^2 - t^3 + t^4 + O(t^5)"
    assert (u * v) / v == u
    assert (u * v) / v.series == u
    assert u != v
    assert u != u.series  # a OneUnit equals only a OneUnit


# -- verify_root ----------------------------------------------------------------


def test_verify_root_examples():
    q = SeriesPolynomial([-t_mono(10), TruncatedSeries.zero(10), one(10)])
    half_root = t_mono(10, Fraction(1, 2))
    assert isinstance(verify_root(q, half_root), AtLeast)
    perturbed = half_root + t_mono(10, 5)
    assert verify_root(q, perturbed) == as_exponent(Fraction(11, 2))
    q2 = SeriesPolynomial([-one(10), one(10)])
    assert verify_root(q2, ts({}, 10)) == as_exponent(0)
