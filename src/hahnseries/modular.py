"""Images of integer polynomials modulo one word prime.

The certificates of the other layers evaluate the primitive integer
part of a polynomial (see ``polynomials``) modulo the prime P = 2^61 - 1,
with every variable at a residue.  The residue of a_v in row r is
``point(v, r)``: row 0 holds the fixed points, and every other row a
point per (variable, row) drawn by a 64-bit mixing hash.  A hash and not
an affine family such as v*k + r*l: with affine rows, two variables
differ by the same constant in every row, so monomials in them take
linearly related values and a rank certificate could never succeed.
A certificate only ever concludes from a nonzero image, so the points
affect how often it decides, never what it concludes.
"""

from __future__ import annotations

P = (1 << 61) - 1  # a Mersenne prime that fits a 64-bit word
_MASK = (1 << 64) - 1


def point(v, row=0) -> int:
    """The residue mod P of a_v in the given row (splitmix64 of v, row)."""
    x = ((v << 32) + row) * 0x9E3779B97F4A7C15 & _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return (x ^ (x >> 31)) % P


class Powers(dict):
    """(v, e) -> a_v^e mod P, computed on first use: a_v at its fixed
    point when v is in `fixed`, at its point in `row` otherwise."""

    __slots__ = ("fixed", "row")

    def __init__(self, fixed=(), row=0):
        self.fixed = fixed
        self.row = row

    def __missing__(self, key):
        v, e = key
        if e == 1:
            x = point(v, 0 if v in self.fixed else self.row)
        else:
            x = pow(self[v, 1], e, P)
        self[key] = x
        return x


def value(z, powers) -> int:
    """The integer polynomial z = {monomial: int} mod P, each variable at
    the residue that `powers` gives it."""
    total = 0
    for m, c in z.items():
        for ve in m:
            c = c * powers[ve] % P
        total += c
    return total % P


def gcd_degree(a, b) -> int:
    """Degree of the gcd of two residue lists (top entries nonzero) mod P."""
    while b:
        inv = pow(b[-1], -1, P)
        db = len(b) - 1
        while len(a) > db:
            f = a.pop() * inv % P
            off = len(a) - db
            for i in range(db):
                a[off + i] = (a[off + i] - f * b[i]) % P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def rank(rows) -> int:
    """Rank mod P of a matrix of residues (a list of lists, consumed).
    Fraction-free: a row loses its pivot entry f against the pivot row
    (t at the pivot) as t*row - f*top, so no inverse is taken."""
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        t = top[col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(t * x - f * y) % P for x, y in zip(rows[i], top)]
        r += 1
    return r
