from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hahnseries.errors import RankMismatchError
from hahnseries.exponents import Exponent, as_exponent, reach_count

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def exponents(rank=1):
    return st.lists(rationals, min_size=rank, max_size=rank).map(Exponent)


def test_compare_examples():
    assert as_exponent(Fraction(1, 2)) < as_exponent(1)
    assert Exponent((0, 5)) < Exponent((1, -100))
    assert Exponent((2, 3)) == Exponent((2, 3)) and Exponent((2, 3)) <= Exponent((2, 3))


def test_compare_rank_mismatch():
    for compare in (Exponent.__lt__, Exponent.__le__, Exponent.__gt__, Exponent.__ge__):
        with pytest.raises(RankMismatchError):
            compare(Exponent((1,)), Exponent((1, 2)))


def test_arch_class_examples():
    assert Exponent((0, 0)).arch_class() is None
    assert Exponent((0, 7)).arch_class() == 2
    assert Exponent((3, -1)).arch_class() == 1


def _arch_equiv_bruteforce(g, h, bound=10**6):
    """Search for an integer r with r|g| >= |h| and r|h| >= |g|."""


    def absval(e):
        return e if e > e.scale(0) else -e

    ag, ah = absval(g), absval(h)
    r = 1
    while r <= bound:
        if ag.scale(r) >= ah and ah.scale(r) >= ag:
            return True
        # jump: only magnitudes of the leading coordinates matter
        r *= 2
    return False


def test_arch_class_integer_multiple_witness():
    g, h = Exponent((3, -1)), Exponent((1, 100))
    assert g.scale(4) >= h and h.scale(4) >= g
    assert g.arch_class() == h.arch_class() == 1


def test_arch_class_agrees_with_bruteforce(rng):
    for _ in range(200):
        g = Exponent((Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))))
        h = Exponent((Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))))
        if g.arch_class() is None or h.arch_class() is None:
            continue
        same = g.arch_class() == h.arch_class()
        assert same == _arch_equiv_bruteforce(g, h)


def test_group_op_examples():
    assert as_exponent(Fraction(1, 2)) + as_exponent(Fraction(1, 3)) == as_exponent(
        Fraction(5, 6)
    )
    assert as_exponent(1).scale(Fraction(1, 2)) == as_exponent(Fraction(1, 2))
    assert -Exponent((0, 2)) == Exponent((0, -2))


@given(exponents(2), exponents(2), exponents(2))
def test_order_compatible_with_addition(g, h, e):
    if g < h:
        assert g + e < h + e


@given(exponents(2), st.integers(min_value=1, max_value=12))
def test_scale_roundtrip(g, n):
    assert g.scale(n).scale(Fraction(1, n)) == g


@given(exponents(1), exponents(1))
def test_total_order(g, h):
    assert (g < h) + (g == h) + (g > h) == 1


def test_reach_count():
    assert reach_count(as_exponent(Fraction(1, 2)), as_exponent(3)) == 6
    assert reach_count(as_exponent(1), as_exponent(-2)) == 0
    assert reach_count(Exponent((0, 1)), Exponent((1, 0))) is None
    assert reach_count(Exponent((0, 1)), Exponent((-1, 0))) == 0
    n = reach_count(as_exponent(Fraction(2, 3)), as_exponent(5))
    assert n == 8 and Fraction(2, 3) * 7 < 5 <= Fraction(2, 3) * 8


def test_reach_count_agrees_with_bruteforce(rng):
    for _ in range(300):
        step = Exponent(
            (Fraction(rng.randint(0, 3), rng.choice((1, 2))),
             Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        )
        if not step > step.scale(0):
            continue
        target = Exponent(
            (Fraction(rng.randint(-6, 6), rng.choice((1, 2))),
             Fraction(rng.randint(-6, 6), rng.choice((1, 2))))
        )
        got = reach_count(step, target)
        brute = next(
            (n for n in range(0, 200) if step.scale(n) >= target), None
        )
        if brute is None:
            # nothing below 200 works; the answer must be unreachable or huge
            assert got is None or got >= 200
        else:
            assert got == brute


@given(exponents(2), exponents(2), rationals)
def test_arithmetic_results_match_validated_exponents(g, h, q):
    # the dunders build their results on trusted tuples: same coords, all
    # Fractions, as the validating constructor gives
    for got, coords in (
        (g + h, [a + b for a, b in zip(g.coords, h.coords)]),
        (g - h, [a - b for a, b in zip(g.coords, h.coords)]),
        (-g, [-a for a in g.coords]),
        (g.scale(q), [a * q for a in g.coords]),
    ):
        assert got == Exponent(coords) and hash(got) == hash(Exponent(coords))
        assert isinstance(got.coords, tuple)
        assert all(type(c) is Fraction for c in got.coords)


def test_constructor_still_validates():
    with pytest.raises(TypeError):
        Exponent((0.5,))
    with pytest.raises(ValueError):
        Exponent(())
    with pytest.raises(TypeError):
        Exponent((1,)).scale(0.5)
