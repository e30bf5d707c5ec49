from fractions import Fraction

import pytest

from conftest import rand_coeff, rand_eps, rand_series
from hahnseries.analytic import OneUnit, exp, log
from hahnseries.coeffs import Coefficient, Place
from hahnseries.errors import (
    DependenceError,
    PreconditionError,
    SkeletonMismatchError,
)
from hahnseries.exponents import as_exponent
from hahnseries.series import TruncatedSeries
from hahnseries.valuation_spaces import (
    BasisFamily,
    ScalarField,
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
