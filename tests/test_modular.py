import random
from fractions import Fraction

from hahnseries.modular import P, Powers, gcd_degree, point, rank, value


def _rank_over_q(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_matches_rank_over_q_on_small_integers():
    # minors of entries below 10 in a 5 x 5 matrix stay far below P
    rng = random.Random(5)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.4 and nrows > 1:
            # a row that is a combination of two others
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            rows[rng.randrange(nrows)] = [x + 2 * y for x, y in zip(rows[a], rows[b])]
        want = _rank_over_q(rows)
        assert rank([[x % P for x in r] for r in rows]) == want, rows


def test_value_is_the_evaluation_mod_p():
    rng = random.Random(6)
    for row in range(4):
        powers = Powers({1}, row)
        at = {v: point(v, 0 if v == 1 else row) for v in (1, 2, 3)}
        for _ in range(50):
            z = {}
            for _ in range(rng.randint(1, 4)):
                mono = tuple((v, rng.randint(1, 5)) for v in (1, 2, 3) if rng.random() < 0.5)
                z[mono] = rng.randint(-(10**30), 10**30)
            want = 0
            for mono, c in z.items():
                for v, e in mono:
                    c *= at[v] ** e
                want += c
            assert value(z, powers) == want % P


def test_points_differ_by_variable_and_by_row():
    pts = {(v, row): point(v, row) for v in range(1, 6) for row in range(8)}
    assert len(set(pts.values())) == len(pts)
    assert all(0 <= x < P for x in pts.values())
    # not affine in the row: second differences do not vanish
    for v in range(1, 6):
        assert (pts[v, 2] - 2 * pts[v, 1] + pts[v, 0]) % P
    assert Powers({2}, 5)[2, 1] == point(2) and Powers({2}, 5)[1, 3] == pow(point(1, 5), 3, P)


def test_gcd_degree():
    # (x - 1)(x - 2) and (x - 1)(x + 5) share one root; x^2 + 1 and x share none
    assert gcd_degree([2, -3 % P, 1], [-5 % P, 4, 1]) == 1
    assert gcd_degree([1, 0, 1], [0, 1]) == 0
    assert gcd_degree([6, 5, 1], [6, 5, 1]) == 2
