from fractions import Fraction

import pytest

from conftest import rand_coeff, rand_eps, rand_fraction, rand_series
from hahnseries.analytic import OneUnit, exp, log
from hahnseries.coeffs import Coefficient, Place
from hahnseries.errors import (
    DependenceError,
    HahnSeriesError,
    PrecisionError,
    PreconditionError,
    SkeletonMismatchError,
)
from hahnseries.exponents import as_exponent
from hahnseries.linalg import in_span, null_combination
from hahnseries.series import TruncatedSeries
from hahnseries.valuation_spaces import (
    BasisFamily,
    RestrictedExpMap,
    ScalarField,
    Skeleton,
    SkeletonClass,
    InclusionExclusionResult,
    _greedy_reduce,
    _stage_images,
    _unit_product,
    build_restricted_exp,
    chain_basis_build,
    extend_basis,
    inclusion_exclusion_approx,
    is_valuation_independent,
    mult_inclusion_exclusion,
    optimal_approx,
    skeleton_of,
    tensor_basis,
)

QQ = ScalarField.rationals()
a1 = Coefficient.alpha(1)
a2 = Coefficient.alpha(2)
a3 = Coefficient.alpha(3)


def ts(data, prec):
    return TruncatedSeries(data, prec)


def one(prec):
    return TruncatedSeries.one(prec)


def t_mono(prec, e=1, c=1):
    return TruncatedSeries.monomial(c, e, prec)


# -- independence ---------------------------------------------------------------


def test_independence_examples():
    assert is_valuation_independent([one(5), t_mono(5)], QQ).independent
    result = is_valuation_independent([t_mono(5), t_mono(5, c=2)], QQ)
    assert not result.independent
    assert result.value == as_exponent(1)
    # witness cancels the leading terms
    w = result.witness
    combo = t_mono(5).scalar_mul(w[0]) + t_mono(5, c=2).scalar_mul(w[1])
    assert combo.v_floor() > as_exponent(1)


def test_independence_vandermonde_family():
    # (1 - x t)^{-1} for x = 1, 2, 3: linearly independent as power series
    # but valuation dependent (common value 0, common leading coefficient 1)
    family = [(one(5) - t_mono(5, c=x)).inv() for x in (1, 2, 3)]
    result = is_valuation_independent(family, QQ)
    assert not result.independent
    nonzero = [w for w in result.witness if not w.is_zero()]
    assert len(nonzero) == 2
    combo = None
    for s, w in zip(family, result.witness):
        piece = s.scalar_mul(w)
        combo = piece if combo is None else combo + piece
    assert combo.v_floor() > as_exponent(0)


def test_independence_zero_vector_rejected():
    with pytest.raises(PreconditionError):
        is_valuation_independent([ts({}, 5)], QQ)


def test_independence_scalar_field_matters():
    family = [t_mono(5), t_mono(5, c=a1)]
    assert is_valuation_independent(family, QQ).independent
    result = is_valuation_independent(family, ScalarField.with_vars({1}))
    assert not result.independent
    # the witness may use rational-function scalars in a1
    combo = None
    for s, w in zip(family, result.witness):
        piece = s.scalar_mul(w)
        combo = piece if combo is None else combo + piece
    assert combo.is_zero_at_prec() or combo.v_floor() > as_exponent(1)


def _bruteforce_check(rng, family, scalars, trials=40):
    """Randomized defining equation: v(sum r_i b_i) = min over r_i != 0."""
    for _ in range(trials):
        coeffs = []
        for _ in family:
            if scalars.is_rationals or rng.random() < 0.5:
                c = Coefficient.const(Fraction(rng.randint(-3, 3)))
            else:
                c = rand_coeff(rng, tuple(scalars.vars), max_deg=1, allow_den=False)
            coeffs.append(c)
        if all(c.is_zero() for c in coeffs):
            continue
        combo = None
        for s, c in zip(family, coeffs):
            piece = s.scalar_mul(c)
            combo = piece if combo is None else combo + piece
        expected = min(
            s.terms[0][0] for s, c in zip(family, coeffs) if not c.is_zero()
        )
        if not (combo.terms and combo.terms[0][0] == expected):
            return False
    return True


def test_independence_agrees_with_bruteforce(rng):
    agreements = 0
    while agreements < 120:
        k = rng.randint(2, 4)
        family = [
            rand_series(rng, prec=5, nonzero=True, variables=(1,), lo=0, hi=3)
            for _ in range(k)
        ]
        if rng.random() < 0.5:
            # plant a dependence: replace the last entry by a combination
            # plus strictly higher-order noise
            noise = ts({4: rng.randint(1, 3)}, 5)
            combo = family[0].scalar_mul(rng.randint(1, 3)) + noise
            family[-1] = combo
            if not combo.terms:
                continue
        result = is_valuation_independent(family, QQ)
        brute = _bruteforce_check(rng, family, QQ)
        if result.independent:
            assert brute
        else:
            w = result.witness
            combo = None
            for s, c in zip(family, w):
                piece = s.scalar_mul(c)
                combo = piece if combo is None else combo + piece
            floor = min(s.terms[0][0] for s, c in zip(family, w) if not c.is_zero())
            assert combo.v_floor() > floor
        agreements += 1


# -- optimal approximation --------------------------------------------------------


def test_optimal_approx_examples():
    f = ts({1: 1, 2: 1}, 5)
    assert optimal_approx(f, BasisFamily([t_mono(5)], QQ)) == t_mono(5)
    g = t_mono(5, c=a1)
    assert optimal_approx(g, BasisFamily([t_mono(5)], QQ)).is_zero_at_prec()
    # dependent spanning list is reduced first
    f2 = ts({1: 3, 3: 5}, 6)
    approx = optimal_approx(f2, [t_mono(6), ts({1: 1, 2: 1}, 6)])
    assert approx == ts({1: 3}, 6)


def test_optimal_approx_optimality(rng):
    basis = BasisFamily([t_mono(6), ts({2: 1, 3: 1}, 6)], QQ)
    for _ in range(200):
        f = rand_series(rng, prec=6, lo=0, hi=5, nonzero=True)
        approx, coeffs = optimal_approx(f, basis, with_coeffs=True)
        # certified in the span
        rebuilt = None
        for lam, b in zip(coeffs, basis.entries):
            piece = b.scalar_mul(lam)
            rebuilt = piece if rebuilt is None else rebuilt + piece
        if rebuilt is not None:
            assert approx.agrees_with(rebuilt)
        best = (f - approx).v_floor()
        for _ in range(20):
            q1, q2 = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
            b = basis.entries[0].scalar_mul(q1) + basis.entries[1].scalar_mul(q2)
            assert (f - b).v_floor() <= best or (f - b).is_zero_at_prec()


def test_optimal_approx_grid_oracle(rng):
    # exhaustive search over a small scalar grid as an independent oracle
    import itertools

    grid = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]
    checked = 0
    while checked < 25:
        entries = []
        for _ in range(rng.randint(1, 2)):
            data = {rng.randint(0, 4): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
            s = ts(data, 5)
            if s.terms:
                entries.append(s)
        try:
            basis = BasisFamily(entries, QQ)
        except PreconditionError:
            continue
        if not basis.entries:
            continue
        f = ts({rng.randint(0, 4): rng.randint(-3, 3) for _ in range(3)}, 5)
        best = (f - optimal_approx(f, basis)).v_floor()
        for combo in itertools.product(grid, repeat=len(basis.entries)):
            b = None
            for lam, e in zip(combo, basis.entries):
                piece = e.scalar_mul(lam)
                b = piece if b is None else b + piece
            assert (f - b).v_floor() <= best or (f - b).is_zero_at_prec()
        checked += 1


def test_extend_basis_examples():
    b = BasisFamily([t_mono(5)], QQ)
    extended = extend_basis(b, ts({1: 1, 2: 1}, 5))
    assert [str(e) for e in extended.entries] == ["t + O(t^5)", "t^2 + O(t^5)"]
    assert extend_basis(b, t_mono(5, c=5)) is b
    empty = BasisFamily([], QQ)
    grown = extend_basis(empty, one(5) + t_mono(5))
    assert len(grown) == 1


def test_extend_basis_idempotent(rng):
    basis = BasisFamily([t_mono(6), ts({2: 1, 3: 1}, 6)], QQ)
    for _ in range(50):
        q1, q2 = rng.randint(-3, 3), rng.randint(-3, 3)
        member = basis.entries[0].scalar_mul(q1) + basis.entries[1].scalar_mul(q2)
        assert extend_basis(basis, member) is basis
    for _ in range(50):
        s = rand_series(rng, prec=6, lo=0, hi=5, nonzero=True)
        grown = extend_basis(basis, s)
        assert is_valuation_independent(grown.entries, QQ).independent


def test_elimination_callers_build_no_approximant(monkeypatch):
    # only optimal_approx folds sum(lam_i * b_i); the others use the remainder
    calls = []
    real = TruncatedSeries.scalar_mul

    def counting(self, c):
        calls.append(c)
        return real(self, c)

    basis = BasisFamily([t_mono(6), ts({2: 1, 3: 1}, 6), t_mono(6, 4, c=5)], QQ)
    a = ts({1: 2, 2: 3, 5: 1}, 6)
    monkeypatch.setattr(TruncatedSeries, "scalar_mul", counting)
    grown = extend_basis(basis, a)
    assert len(calls) == 2
    monkeypatch.undo()
    assert grown.entries[-1] == ts({3: -3, 5: 1}, 6)

    mapping = build_restricted_exp(
        BasisFamily([t_mono(6), t_mono(6, 2)], QQ),
        [OneUnit(one(6) + t_mono(6)), OneUnit(one(6) + t_mono(6, 2))],
    )
    calls.clear()
    monkeypatch.setattr(TruncatedSeries, "scalar_mul", counting)
    image = mapping.apply(ts({1: 2, 2: 3}, 6))
    assert len(calls) == 2
    monkeypatch.undo()
    u1, u2 = one(6) + t_mono(6), one(6) + t_mono(6, 2)
    assert image.agrees_with(u1 * u1 * u2 * u2 * u2)


def test_basis_family_validates():
    with pytest.raises(DependenceError):
        BasisFamily([t_mono(5), t_mono(5, c=2)], QQ)


# -- inclusion-exclusion -----------------------------------------------------------


def test_inclexcl_single_place():
    res = inclusion_exclusion_approx(t_mono(6, c=a1), [1])
    q = res.places[0].q
    assert res.h == t_mono(6, c=Coefficient.const(q))
    assert list(res.summands) == ["1"]


def test_inclexcl_two_variables():
    res = inclusion_exclusion_approx(t_mono(6, c=a1 * a2), [1, 2])
    q1, q2 = res.places[0].q, res.places[1].q
    expected = t_mono(6, c=a2 * q1 + a1 * q2 - Coefficient.const(q1 * q2))
    assert res.h == expected
    # each nonzero-sigma summand misses the variable of its lowest set bit
    for key, s in res.summands.items():
        i = key.index("1")
        var = res.places[i].var
        for _, c in s.terms:
            assert var not in c.variables()


def test_inclexcl_rational_input_unchanged():
    f = ts({1: 3, 2: Fraction(1, 2)}, 6)
    res = inclusion_exclusion_approx(f, [1, 2])
    assert res.h == f


def test_inclexcl_rejects_extra_variables():
    with pytest.raises(PreconditionError):
        inclusion_exclusion_approx(t_mono(5, c=a3), [1, 2])


def test_inclexcl_rejects_a_repeated_variable():
    u = OneUnit(TruncatedSeries.one(as_exponent(5)) + t_mono(5, c=a1))
    with pytest.raises(PreconditionError, match="variable a1 is listed more than once"):
        inclusion_exclusion_approx(t_mono(5, c=a1 * a2), [1, 2, 1])
    with pytest.raises(PreconditionError, match="variable a2 is listed more than once"):
        inclusion_exclusion_approx(t_mono(5, c=a1 * a2), [(2, None), (1, None), (2, None)])
    with pytest.raises(PreconditionError, match="variable a1 is listed more than once"):
        mult_inclusion_exclusion(u, [1, 1])


def test_scalar_field_refuses_indices_below_1():
    assert str(ScalarField.with_vars([2, 1])) == "Q(a1, a2)"
    for indices in ([0], [0, -1], [1, -3]):
        with pytest.raises(PreconditionError, match="variable indices start at 1"):
            ScalarField.with_vars(indices)


def test_inclexcl_coefficient_identity(rng):
    # coefficients already missing one listed variable are reproduced exactly
    for _ in range(30):
        terms = {
            1: rand_coeff(rng, (1,), allow_den=False),
            2: rand_coeff(rng, (2,), allow_den=False),
            3: a1 * a2 + rand_coeff(rng, (1, 2), allow_den=False),
        }
        f = ts(terms, 7)
        res = inclusion_exclusion_approx(f, [1, 2])
        for e, c in f.terms:
            if c.variables() < {1, 2}:  # misses at least one listed variable
                assert res.h.coefficient(e) == c


def test_inclexcl_optimality_sampled(rng):
    f = ts({1: a1 * a2, 2: a1, 3: a2}, 6)
    res = inclusion_exclusion_approx(f, [1, 2])
    best = (f - res.h).v_floor()
    for _ in range(100):
        b1 = rand_series(rng, prec=6, variables=(2,), lo=0, hi=5)
        b2 = rand_series(rng, prec=6, variables=(1,), lo=0, hi=5)
        b = b1 + b2
        assert (f - b).v_floor() <= best


def test_inclexcl_h_in_span_certificate():
    res = inclusion_exclusion_approx(t_mono(6, c=a1 * a2), [1, 2])
    # h is the negated sum of the summands, each missing a listed variable
    total = None
    for s in res.summands.values():
        total = s if total is None else total + s
    assert (res.h + total).is_zero_at_prec()


def test_inclexcl_dodges_coefficient_poles():
    c1 = Coefficient.one() / ((a1 - 1) * (a1 + 1) * (a1 - 2))
    c2 = a1 * a2 / (a2 - 1)
    f = ts({1: c1, 2: c2, 3: a1 * a2}, 6)
    res = inclusion_exclusion_approx(f, [1, 2])
    assert res.places[0].q not in (Fraction(1), Fraction(-1), Fraction(2))
    assert res.places[1].q != Fraction(1)
    assert res.h.coefficient(1) == c1  # misses a2, so reproduced exactly
    for key, s in res.summands.items():
        var = (1, 2)[key.index("1")]
        for _, c in s.terms:
            assert var not in c.variables()


def test_inclexcl_explicit_places():
    f = t_mono(6, c=a1 * a2)
    places = (Place(1, Fraction(3)), Place(2, Fraction(-2)))
    res = inclusion_exclusion_approx(f, [1, 2], places=places)
    assert res.places == places
    assert res.h == t_mono(6, c=a2 * 3 + a1 * (-2) - Coefficient.const(-6))


def test_mult_inclexcl_single():
    u = OneUnit(one(6) + t_mono(6, c=a1))
    res = mult_inclusion_exclusion(u, [1])
    q = res.places[0].q
    assert res.h.series == one(6) + t_mono(6, c=Coefficient.const(q))


def test_mult_inclexcl_no_variables_unchanged():
    u = OneUnit(one(6) + t_mono(6))
    res = mult_inclusion_exclusion(u, [1])
    assert res.h.series == u.series


def test_mult_inclexcl_conjugation(rng):
    for _ in range(20):
        eps = rand_eps(rng, prec=5, variables=(1, 2))
        u = exp(eps)
        res = mult_inclusion_exclusion(u, [1, 2])
        add = inclusion_exclusion_approx(log(u), [1, 2], places=res.places)
        assert res.h.agrees_with(exp(add.h))


def test_mult_inclexcl_summand_variables():
    u = exp(t_mono(6, c=a1 * a2))
    res = mult_inclusion_exclusion(u, [1, 2])
    for key, s in res.summands.items():
        i = key.index("1")
        var = res.places[i].var
        delta = s - one(s.prec)
        for _, c in delta.terms:
            assert var not in c.variables()


def _composite_image(g, key, places):
    """g specialized at the places of the set bits of key, last stage first."""
    for bit, place in reversed(list(zip(key, places))):
        if bit == "1":
            g = g.specialize(place)
    return g


def test_inclexcl_three_variables_stage_table():
    f = ts({1: a1 * a2 * a3, 2: a1 + a2 * a3, 3: a1 * a2 / (a3 - 1)}, 6)
    res = inclusion_exclusion_approx(f, [1, 2, 3])
    assert [p.var for p in res.places] == [1, 2, 3]
    assert res.places[2].q != 1  # a3 = 1 is a pole of the t^3 coefficient
    assert sorted(res.summands) == [format(k, "03b") for k in range(1, 8)]
    total = TruncatedSeries.zero(6)
    for key, s in res.summands.items():
        sign = (-1) ** key.count("1")
        assert s == _composite_image(f, key, res.places).scalar_mul(sign)
        total = total + s
    assert res.h == -total

    u = exp(ts({1: a1 * a2 * a3, 2: a1 - a3}, 4))
    mult = mult_inclusion_exclusion(u, [1, 2, 3])
    assert sorted(mult.summands) == sorted(res.summands)
    for key, s in mult.summands.items():
        image = _composite_image(u.series, key, mult.places)
        assert s == (image.inv() if key.count("1") % 2 else image)
    add = inclusion_exclusion_approx(log(u), [1, 2, 3], places=mult.places)
    assert mult.h.agrees_with(exp(add.h))


# -- skeletons, tensors, restricted exp, chains -------------------------------------


def test_skeleton_examples():
    with pytest.raises(DependenceError):
        skeleton_of([one(5), t_mono(5), one(5).scalar_mul(2) + t_mono(5)], QQ)
    skel = skeleton_of([one(5), t_mono(5), t_mono(5, 2)], QQ)
    assert [(str(c.value), c.dim) for c in skel.classes] == [
        ("0", 1),
        ("1", 1),
        ("2", 1),
    ]
    skel2 = skeleton_of([t_mono(5), t_mono(5, c=a1)], QQ)
    assert [(str(c.value), c.dim) for c in skel2.classes] == [("1", 2)]


def test_tensor_examples():
    b = BasisFamily([t_mono(5)], ScalarField.with_vars({1}))
    result = tensor_basis(b, [Coefficient.one(), a1], QQ)
    assert len(result) == 2
    assert is_valuation_independent(result.entries, QQ).independent
    unchanged = tensor_basis(b, [Coefficient.one()], QQ)
    assert [str(e) for e in unchanged.entries] == [str(e) for e in b.entries]
    b2 = BasisFamily([one(5), t_mono(5)], ScalarField.with_vars({1}))
    four = tensor_basis(b2, [Coefficient.one(), a1], QQ)
    assert len(four) == 4
    assert is_valuation_independent(four.entries, QQ).independent


def test_tensor_rejects_dependent_coefficients():
    b = BasisFamily([t_mono(5)], ScalarField.with_vars({1}))
    with pytest.raises(DependenceError):
        tensor_basis(b, [Coefficient.one(), Coefficient.const(2)], QQ)


def test_tensor_random_instances(rng):
    for _ in range(30):
        entries = [t_mono(6), ts({2: 1, 3: 2}, 6)]
        b = BasisFamily(entries, ScalarField.with_vars({1}))
        coeffs = [Coefficient.one(), a1 + Fraction(rng.randint(-2, 2))]
        result = tensor_basis(b, coeffs, QQ)
        assert is_valuation_independent(result.entries, QQ).independent


def test_restricted_exp_one_class():
    additive = BasisFamily([t_mono(6)], QQ)
    units = [OneUnit(one(6) + t_mono(6))]
    mapping = build_restricted_exp(additive, units)
    image = mapping.apply(t_mono(6, c=2))
    assert image.agrees_with(units[0].series * units[0].series)


def test_restricted_exp_skeleton_mismatch():
    additive = BasisFamily([t_mono(6)], QQ)
    units = [OneUnit(one(6) + t_mono(6, 2))]
    with pytest.raises(SkeletonMismatchError):
        build_restricted_exp(additive, units)


def test_restricted_exp_leading_coefficient_mismatch():
    with pytest.raises(SkeletonMismatchError, match="spaces differ at value 1$"):
        build_restricted_exp(
            BasisFamily([t_mono(6)], QQ), [OneUnit(one(6) + t_mono(6, c=a1))]
        )
    # both classes mismatch; the least value is named
    with pytest.raises(SkeletonMismatchError, match="spaces differ at value 1$"):
        build_restricted_exp(
            BasisFamily([t_mono(6, 2), t_mono(6)], QQ),
            [OneUnit(one(6) + t_mono(6, c=a1)), OneUnit(one(6) + t_mono(6, 2, c=a1))],
        )
    # a span mismatch at value 1 is reported before a dimension mismatch at 2
    with pytest.raises(SkeletonMismatchError, match="spaces differ at value 1$"):
        build_restricted_exp(
            BasisFamily([t_mono(6), t_mono(6, 2), t_mono(6, 2, c=a1)], QQ),
            [OneUnit(one(6) + t_mono(6, c=a1)), OneUnit(one(6) + t_mono(6, 2))],
        )


def test_restricted_exp_matches_exp_on_samples(rng):
    additive = BasisFamily([t_mono(8), t_mono(8, 2)], QQ)
    units = [exp(t_mono(8)), exp(t_mono(8, 2))]
    mapping = build_restricted_exp(additive, units)
    for _ in range(20):
        q1, q2 = rng.randint(-3, 3), rng.randint(-3, 3)
        eps = t_mono(8).scalar_mul(q1) + t_mono(8, 2).scalar_mul(q2)
        assert mapping.apply(eps).agrees_with(exp(eps))


def test_restricted_exp_homomorphism_and_weight(rng):
    additive = BasisFamily([t_mono(6), t_mono(6, 2, c=3)], QQ)
    units = [OneUnit(one(6) + t_mono(6)), exp(t_mono(6, 2))]
    mapping = build_restricted_exp(additive, units)
    for _ in range(40):
        e1 = t_mono(6).scalar_mul(rng.randint(-2, 2)) + t_mono(6, 2).scalar_mul(
            rng.randint(-2, 2)
        )
        e2 = t_mono(6).scalar_mul(rng.randint(-2, 2))
        assert mapping.check_homomorphism(e1, e2)
        assert mapping.check_w_compat(e1)


def test_restricted_exp_requires_rationals():
    additive = BasisFamily([t_mono(6)], ScalarField.with_vars({1}))
    with pytest.raises(PreconditionError):
        build_restricted_exp(additive, [OneUnit(one(6) + t_mono(6))])


def test_chain_examples():
    bases = chain_basis_build(
        [[t_mono(5)], [t_mono(5, c=a1)]], [set(), {1}]
    )
    assert [len(b) for b in bases] == [1, 2]
    assert [str(e) for e in bases[1].entries] == ["t + O(t^5)", "a1*t + O(t^5)"]
    single = chain_basis_build(
        [[t_mono(5), t_mono(5, c=2), ts({1: 1, 2: 1}, 5)]], [set()]
    )
    assert len(single[0]) == 2
    assert chain_basis_build([], []) == []
    empty = chain_basis_build([[]], [set()])
    assert len(empty[0]) == 0


def test_chain_rejects_bad_stages():
    with pytest.raises(PreconditionError):
        chain_basis_build([[t_mono(5, c=a1)]], [set()])
    with pytest.raises(PreconditionError):
        chain_basis_build([[t_mono(5)], [t_mono(5)]], [{1}, set()])
    with pytest.raises(PreconditionError, match="one variable set per stage"):
        chain_basis_build([[t_mono(5)], [t_mono(5, 2)]], [set()])


@pytest.mark.parametrize("stage_vars", [[{0}], [{-1}], [{1}, {1, 0}]])
def test_chain_refuses_variable_indices_below_1(stage_vars):
    with pytest.raises(PreconditionError, match="variable indices start at 1"):
        chain_basis_build([[t_mono(5)]] * len(stage_vars), stage_vars)


def test_tensor_needs_a_coefficient():
    with pytest.raises(PreconditionError, match="nonempty"):
        tensor_basis(BasisFamily([t_mono(5)], QQ), [], QQ)


def test_inclexcl_needs_a_variable():
    with pytest.raises(PreconditionError, match="at least one variable"):
        inclusion_exclusion_approx(t_mono(5), [])


def test_restricted_exp_refuses_outside_the_additive_span():
    unit = one(5) + t_mono(5)
    mapping = build_restricted_exp(BasisFamily([t_mono(5)], QQ), [OneUnit(unit)])
    assert mapping.apply(t_mono(5, c=2)).agrees_with(unit * unit)
    with pytest.raises(PreconditionError, match="additive span"):
        mapping.apply(t_mono(5, Fraction(1, 2)))


def test_span_helpers_on_empty_and_zero_input(monkeypatch):
    import hahnseries.linalg as linalg

    def no_elimination(*_):
        raise AssertionError("empty or zero input needs no elimination")

    monkeypatch.setattr(linalg, "rref", no_elimination)
    zero = Coefficient.zero()
    assert null_combination([], ()) is None
    assert in_span(zero, [], ()) == []
    assert in_span(zero, [a1, a2], ()) == [zero, zero]
    assert in_span(a1, [], ()) is None


def test_chain_union_independent():
    stages = chain_basis_build(
        [
            [t_mono(6), t_mono(6, 2)],
            [t_mono(6, c=a1)],
            [t_mono(6, c=a1 * a2), t_mono(6, 2, c=a2)],
        ],
        [set(), {1}, {1, 2}],
    )
    final = stages[-1]
    assert len(final) == 5
    assert is_valuation_independent(final.entries, QQ).independent


# -- the previous implementations, kept as oracles ------------------------------------
#
# Before value classes were stored on BasisFamily, the greedy sweep had its
# own copy (_independent_representatives), the multiplicative
# inclusion-exclusion divided stage by stage, and build_restricted_exp
# compared two skeletons and regrouped the units.


def _oracle_greedy_reduce(f, entries, scalars):
    coeffs = [Coefficient.zero()] * len(entries)
    remainder = f
    while remainder.terms:
        value = remainder.terms[0][0]
        target = remainder.terms[0][1]
        idxs = [
            i for i, b in enumerate(entries) if b.terms and b.terms[0][0] == value
        ]
        if not idxs:
            break
        sol = in_span(target, [entries[i].leading_coeff() for i in idxs], scalars.vars)
        if sol is None:
            break
        for i, lam in zip(idxs, sol):
            if lam.is_zero():
                continue
            coeffs[i] = coeffs[i] + lam
            remainder = remainder - entries[i].scalar_mul(lam)
    return remainder, coeffs


def _oracle_independent_representatives(entries, scalars):
    base = []
    for e in entries:
        rem, _ = _oracle_greedy_reduce(e, base, scalars)
        if rem.terms:
            base.append(rem)
    return base


def _oracle_optimal_approx(f, entries, scalars):
    entries = _oracle_independent_representatives(list(entries), scalars)
    _, coeffs = _oracle_greedy_reduce(f, entries, scalars)
    terms = [b.scalar_mul(lam) for lam, b in zip(coeffs, entries) if not lam.is_zero()]
    return sum(terms[1:], terms[0]) if terms else TruncatedSeries.zero(f.prec)


def _oracle_extend_basis(basis, a):
    # the extended family was validated again from scratch
    remainder, _ = _greedy_reduce(a, basis)
    if not remainder.terms:
        return basis
    return BasisFamily(basis.entries + (remainder,), basis.scalars)


def _oracle_mult_inclusion_exclusion(u, specs, places=None):
    images, chosen = _stage_images(u.series, specs, places)
    summands = {
        key: g.inv() if key.count("1") % 2 else g for key, g in images.items()
    }
    # h = u / ((id / phi_1) o ... o (id / phi_N))(u), computed stagewise
    g = u.series
    for place in reversed(chosen):
        g = g / g.specialize(place)
    h = OneUnit(u.series / g)
    return InclusionExclusionResult(h, summands, chosen)


def _oracle_skeleton_of(vs, scalars):
    grouped = {}
    for s in BasisFamily(vs, scalars):
        grouped.setdefault(s.terms[0][0], []).append(s.leading_coeff())
    classes = tuple(
        SkeletonClass(value, len(grouped[value]), tuple(grouped[value]))
        for value in sorted(grouped)
    )
    return Skeleton(classes, scalars)


def _oracle_build_restricted_exp(additive, units):
    if not additive.scalars.is_rationals:
        raise PreconditionError("restricted exponentials use Q scalars")
    units = list(units)
    deltas = [u.delta() for u in units]
    for d in deltas:
        if not d.terms:
            raise PreconditionError("trivial 1-unit in the multiplicative family")
    s_add = _oracle_skeleton_of(additive.entries, additive.scalars)
    s_mult = _oracle_skeleton_of(deltas, additive.scalars)
    if s_add.values() != s_mult.values():
        raise SkeletonMismatchError(
            f"value sets differ: {[str(v) for v in s_add.values()]} vs "
            f"{[str(v) for v in s_mult.values()]}"
        )
    solved = {}
    for ca, cm in zip(s_add.classes, s_mult.classes):
        if ca.dim != cm.dim:
            raise SkeletonMismatchError(
                f"component dimensions differ at value {ca.value}"
            )
        sols = []
        for c in ca.leading:
            sol = in_span(c, list(cm.leading), additive.scalars.vars)
            if sol is None:
                raise SkeletonMismatchError(
                    f"leading-coefficient spaces differ at value {ca.value}"
                )
            sols.append(sol)
        solved[ca.value] = iter(sols)
    unit_idx_by_value = {}
    for i, d in enumerate(deltas):
        unit_idx_by_value.setdefault(d.terms[0][0], []).append(i)
    images = []
    for b in additive.entries:
        value = b.terms[0][0]
        idxs = unit_idx_by_value[value]
        images.append(_unit_product([units[i] for i in idxs], next(solved[value])))
    return RestrictedExpMap(additive, units, images)


def _outcome(fn, *args, **kwargs):
    """('ok', value) or ('err', exception type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except HahnSeriesError as err:
        return ("err", type(err), str(err))


def _series_key(s):
    return (str(s), s.prec)


# -- oracle comparisons ----------------------------------------------------------------


def test_value_classes_group_members_in_increasing_value(rng):
    for scalars in (QQ, ScalarField.with_vars({1})):
        for _ in range(40):
            entries = [
                rand_series(rng, prec=6, nonzero=True, variables=(1,), lo=0, hi=4)
                for _ in range(rng.randint(1, 4))
            ]
            try:
                basis = BasisFamily(entries, scalars)
            except DependenceError:
                continue
            expected = {}
            for i, s in enumerate(entries):
                expected.setdefault(s.terms[0][0], []).append(i)
            assert list(basis.value_classes) == sorted(expected)
            assert basis.value_classes == expected


def _spanning_list(rng, variables):
    """A list of series with planted dependences: repeats, scalar multiples
    and combinations with higher-order noise."""
    items = [
        rand_series(rng, prec=6, nonzero=True, variables=variables, lo=0, hi=4)
        for _ in range(rng.randint(1, 3))
    ]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(items), rng.choice(items)
        lam = (
            rand_coeff(rng, variables, max_deg=1, allow_den=False)
            if variables and rng.random() < 0.5
            else Coefficient.const(rand_fraction(rng))
        )
        noise = ts({rng.randint(2, 5): rng.randint(-2, 2)}, 6)
        items.insert(rng.randint(0, len(items)), a.scalar_mul(lam) + b + noise)
    return items


def test_optimal_approx_list_matches_independent_representatives(rng):
    for variables, scalars in [((), QQ), ((1,), QQ), ((1,), ScalarField.with_vars({1}))]:
        for _ in range(40):
            items = _spanning_list(rng, variables)
            f = rand_series(rng, prec=6, variables=variables, lo=0, hi=5)
            new = optimal_approx(f, items, scalars)
            old = _oracle_optimal_approx(f, items, scalars)
            assert _series_key(new) == _series_key(old)


def test_optimal_approx_refuses_with_coeffs_before_the_sweep():
    consumed = []

    def members():
        for s in (t_mono(5), t_mono(5, 2)):
            consumed.append(s)
            yield s

    with pytest.raises(PreconditionError, match="with_coeffs requires a BasisFamily"):
        optimal_approx(t_mono(5), members(), with_coeffs=True)
    assert consumed == []


def _pole_unit(rng, variables, prec):
    """1 + eps with coefficients in the listed variables, some with poles."""
    data = {}
    for _ in range(rng.randint(1, 3)):
        e = Fraction(rng.randint(2, 2 * prec), 2)
        if rng.random() < 0.7:
            # one or two variables a term: three-variable quotients can stall
            # the gcd (see ROADMAP item 4)
            support = tuple(sorted(rng.sample(variables, rng.randint(1, 2))))
            c = rand_coeff(rng, support, max_deg=1, allow_den=rng.random() < 0.5)
        else:
            c = Coefficient.const(rand_fraction(rng))
        if not c.is_zero():
            data[e] = c
    data[0] = Coefficient.one()
    return OneUnit(ts(data, prec))


def _inclexcl_key(res):
    return (
        _series_key(res.h.series),
        res.places,
        {key: _series_key(g) for key, g in res.summands.items()},
    )


def test_mult_inclexcl_matches_stagewise_oracle(rng):
    answers = 0
    for _ in range(60):
        n = rng.choice((2, 3))
        variables = list(range(1, n + 1))
        u = _pole_unit(rng, variables, rng.choice((4, 5, 6)))
        listed = variables if rng.random() < 0.9 else variables[:-1]  # a refusal
        new = _outcome(mult_inclusion_exclusion, u, listed)
        old = _outcome(_oracle_mult_inclusion_exclusion, u, listed)
        assert new[0] == old[0]
        if new[0] == "err":
            assert new[1:] == old[1:]
            continue
        assert _inclexcl_key(new[1]) == _inclexcl_key(old[1])
        answers += 1
    assert answers >= 45


def _rank2_units():
    t = {
        "01": (0, 1), "10": (1, 0), "11": (1, 1), "02": (0, 2), "12": (1, 2),
    }
    one_ = Coefficient.one()
    specs = [
        ({"01": a1 - 1, "10": one_}, (2, 0), [1]),  # the documented example
        ({"01": a1, "10": one_}, (2, 0), [1]),
        ({"01": a1 - 1}, (2, 0), [1]),
        ({"10": a1}, (2, 0), [1]),
        ({"10": a1, "11": one_}, (2, 0), [1]),
        ({"01": a1 * a2, "10": a2}, (2, 0), [1, 2]),
        ({"01": a1 - 1, "10": a2}, (2, 0), [1, 2]),
        ({"01": one_ / (a1 - 2), "10": one_}, (2, 0), [1]),
        ({"10": a1 * a2, "11": a1}, (2, 0), [1, 2]),
        ({"02": a1, "10": one_}, (2, 0), [1]),
        ({"01": a1 - 1, "12": a1}, (2, 0), [1]),
        ({"10": a1 + a2, "12": one_}, (2, 1), [1, 2]),
        ({"01": a2 - 1, "10": a1}, (2, 0), [1, 2]),
        ({"11": a1, "10": one_ / (a1 + 1)}, (2, 0), [1]),
        ({"01": (a1 - 1) * a2, "10": one_}, (2, 0), [1, 2]),
    ]
    for data, prec, variables in specs:
        terms = {(0, 0): one_}
        terms.update({t[k]: c for k, c in data.items()})
        yield OneUnit(ts(terms, prec)), variables


def test_mult_inclexcl_rank2_matches_oracle_where_it_answers():
    answered_beyond_oracle = 0
    for u, variables in _rank2_units():
        new = _outcome(mult_inclusion_exclusion, u, variables)
        old = _outcome(_oracle_mult_inclusion_exclusion, u, variables)
        if old[0] == "ok":
            assert new[0] == "ok"
            assert _inclexcl_key(new[1]) == _inclexcl_key(old[1])
            continue
        if new[0] == "err":
            assert new[1:] == old[1:]
            continue
        assert old[1:] == (
            PrecisionError,
            "precision unreachable by integer multiples of the valuation",
        )
        answered_beyond_oracle += 1
        # h * prod_{even sigma != 0} phi_sigma(u) = prod_{odd sigma} phi_sigma(u)
        res = new[1]
        even = odd = TruncatedSeries.one(u.series.prec)
        for key in res.summands:
            image = _composite_image(u.series, key, res.places)
            if key.count("1") % 2:
                odd = odd * image
            else:
                even = even * image
        assert (res.h.series * even).agrees_with(odd)
    assert answered_beyond_oracle == 3


def test_mult_inclexcl_rank2_example():
    u = OneUnit(ts({(0, 0): 1, (0, 1): a1 - 1, (1, 0): 1}, (2, 0)))
    res = mult_inclusion_exclusion(u, [1])
    assert res.places == (Place(1, Fraction(1)),)
    assert str(res.h) == "1 + t^(1, 0) + O(t^(2, 0))"
    assert res.h.series == u.series.specialize(res.places[0])
    with pytest.raises(PrecisionError, match="precision unreachable by integer multiples"):
        _oracle_mult_inclusion_exclusion(u, [1])


def _restricted_exp_case(rng):
    """An additive Q basis and a unit family: matching, or with a planted
    trivial unit, dependent units, moved values or symbolic leads."""
    prec = rng.choice((4, 5))
    values = sorted(rng.sample([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)], rng.randint(1, 3)))
    additive, units = [], []
    for v in values:
        for _ in range(rng.randint(1, 2)):
            lead = Coefficient.const(rand_fraction(rng) or Fraction(1))
            tail = {v + Fraction(rng.randint(1, 3), 2): Coefficient.const(rand_fraction(rng))}
            additive.append(ts({v: lead, **tail}, prec))
    try:
        basis = BasisFamily(additive, QQ)
    except DependenceError:
        basis = BasisFamily(_oracle_independent_representatives(additive, QQ), QQ)
    for b in basis.entries:
        v = b.terms[0][0]
        lead = Coefficient.const(rand_fraction(rng) or Fraction(2))
        tail = Coefficient.const(rand_fraction(rng))
        units.append(ts({0: 1, v: lead, v + as_exponent(Fraction(1, 2)): tail}, prec))
    kind = rng.choice(("match", "match", "match", "trivial", "dependent", "moved", "symbolic", "extra", "drop"))
    if kind == "trivial":
        units.insert(rng.randint(0, len(units)), one(prec))
    elif kind == "dependent":
        units.append(units[0] * units[0])
    elif kind == "moved":
        i = rng.randrange(len(units))
        units[i] = ts({0: 1, Fraction(5, 2): 1}, prec)
    elif kind == "symbolic":
        i = rng.randrange(len(units))
        v = units[i].terms[1][0]
        units[i] = ts({0: 1, v: a1}, prec)
    elif kind == "extra":
        v = basis.entries[0].terms[0][0]
        units.append(ts({0: 1, v: a1 + 1, v + as_exponent(1): 1}, prec))
    elif kind == "drop" and len(units) > 1:
        units.pop(rng.randrange(len(units)))
    rng.shuffle(units)
    return basis, [OneUnit(u) for u in units]


def test_restricted_exp_matches_skeleton_oracle(rng):
    refusals = answers = 0
    for _ in range(200):
        basis, units = _restricted_exp_case(rng)
        new = _outcome(build_restricted_exp, basis, units)
        old = _outcome(_oracle_build_restricted_exp, basis, units)
        assert new[0] == old[0]
        if new[0] == "err":
            assert new[1:] == old[1:]
            refusals += 1
            continue
        assert [str(i) for i in new[1].images] == [str(i) for i in old[1].images]
        qs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in basis.entries]
        eps = TruncatedSeries.zero(basis.entries[0].prec)
        for q, b in zip(qs, basis.entries):
            eps = eps + b.scalar_mul(q)
        assert _series_key(new[1].apply(eps).series) == _series_key(old[1].apply(eps).series)
        answers += 1
    assert refusals >= 30 and answers >= 30


def test_restricted_exp_validates_once_and_builds_no_skeleton(monkeypatch):
    import hahnseries.valuation_spaces as vs_module

    calls = {"indep": 0, "skeleton": 0}
    real_indep = vs_module.is_valuation_independent

    def counting_indep(*args, **kwargs):
        calls["indep"] += 1
        return real_indep(*args, **kwargs)

    def counting_skeleton(*args, **kwargs):
        calls["skeleton"] += 1
        raise AssertionError("skeleton_of called")

    additive = BasisFamily([t_mono(6), t_mono(6, 2), t_mono(6, 2, c=a1) + t_mono(6, 3)], QQ)
    units = [
        OneUnit(one(6) + t_mono(6)),
        exp(t_mono(6, 2)),
        OneUnit(one(6) + t_mono(6, 2, c=a1 * 2) + t_mono(6, 3)),
    ]
    monkeypatch.setattr(vs_module, "is_valuation_independent", counting_indep)
    monkeypatch.setattr(vs_module, "skeleton_of", counting_skeleton)
    build_restricted_exp(additive, units)
    assert calls == {"indep": 1, "skeleton": 0}


def _family_key(basis):
    # items, not the dict: the order of the value classes counts
    return [_series_key(s) for s in basis.entries], list(basis.value_classes.items()), basis.scalars


def test_extend_basis_matches_validating_oracle(rng, monkeypatch):
    import hahnseries.valuation_spaces as vs_mod

    for variables, scalars in [((), QQ), ((1,), QQ), ((1,), ScalarField.with_vars({1}))]:
        for _ in range(30):
            items = _spanning_list(rng, variables) + _spanning_list(rng, variables)
            new = old = BasisFamily((), scalars)
            for b in items:
                new, old = extend_basis(new, b), _oracle_extend_basis(old, b)
                assert _family_key(new) == _family_key(old)
    stages = [
        [rand_series(rng, prec=6, nonzero=True, lo=0, hi=4) for _ in range(4)],
        [rand_series(rng, prec=6, nonzero=True, variables=(1,), lo=0, hi=4) for _ in range(4)],
        [rand_series(rng, prec=6, nonzero=True, variables=(1, 2), lo=0, hi=4) for _ in range(4)],
    ]
    stage_vars = [set(), {1}, {1, 2}]
    for scalars in (QQ, ScalarField.with_vars({1})):
        new = chain_basis_build(stages, stage_vars, scalars)
        monkeypatch.setattr(vs_mod, "extend_basis", _oracle_extend_basis)
        old = chain_basis_build(stages, stage_vars, scalars)
        monkeypatch.undo()
        assert [_family_key(b) for b in new] == [_family_key(b) for b in old]


def test_extend_basis_runs_no_independence_check(monkeypatch):
    import hahnseries.valuation_spaces as vs_mod

    # 12 members in one stage: four values, three independent leading
    # coefficients 1, a1, a1^2 at each, with tails
    members = [
        ts({k: a1**j, k + 1 + j: Fraction(j + 1, 2), 6: k}, 7)
        for k in range(4)
        for j in range(3)
    ]
    calls = []
    real = vs_mod.is_valuation_independent

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vs_mod, "is_valuation_independent", counting)
    (family,) = chain_basis_build([members], [{1}])
    assert len(family) == 12 and calls == []
    assert family.value_classes == {
        as_exponent(k): [3 * k, 3 * k + 1, 3 * k + 2] for k in range(4)
    }
    # the public constructor still validates
    assert len(BasisFamily(family.entries, QQ)) == 12 and len(calls) == 1
    monkeypatch.undo()
    assert is_valuation_independent(family.entries, QQ).independent
