"""Exact linear algebra over a scalar subfield of the coefficient field.

Vectors live in Q(a1, ..., am) while scalars range over Q(a_Y) for an
index subset Y.  Dependence over Q(a_Y) reduces to an ordinary linear
system over that field: clear denominators and expand every vector in
the monomials of the complementary variables, whose coefficients are
polynomials in the Y variables.  Gaussian elimination then runs
entirely inside Q(a_Y), on plain Fractions when every entry is a
constant.  One element needs no system: it is independent unless it is
zero, and target / x is the only scalar that can put a target in its
span.

Most questions asked of this layer have the answer "independent", and
a rank certificate settles those before any elimination, in the spirit
of the first step of Brown's modular gcd (J. ACM 18, 1971).  For
elements x_1..x_n it evaluates each integer part num_i.z, den_i.z modulo
the word prime P of ``modular``, with the Y variables at their fixed
points and the others at the point of row j, for rows j = 1..n, and
sets M[j][i] = num_i.z(row j) / den_i.z(row j) mod P.  When M has full
column rank the elements are independent over Q(a_Y); when a
denominator vanishes or the rank drops the certificate is undecided and
elimination runs as before.  Proof: dropping the contents scales
column i by the nonzero rational 1/c_i, which keeps every rank.  With
L the product of the den_k.z, x_i / c_i = F_i / L for F_i in Z[a];
expand F_i = sum_m E[m][i](a_Y) * m(z) over the monomials m of the
other variables.  Then M = diag(1/L(row j)) * V * E(P) mod P, where
V[j][m] = m(z_j) and E(P) is E with a_Y at the fixed points, so
rank M <= rank E(P) mod P <= rank of E over Q(a_Y): the n x n minors of
E lie in Z[a_Y] and reduce mod P to those of E(P).  Full rank of M thus
gives a nonzero minor of E, and E's columns are independent over
Q(a_Y), hence so are the x_i.  For ``in_span`` full rank of [elements |
target] makes the target column a pivot, which means no solution.  The
certificate only ever returns None where elimination would, so every
answer is the one elimination gives.  On independent elements it stays
undecided only when a denominator or a nonzero minor of V * E(P)
vanishes at the points; for random points Schwartz's lemma (J. ACM 27,
1980) bounds that chance by the degree over P, and the hashed points of
``modular`` stand in for random ones.
"""

from __future__ import annotations

from operator import not_

from .coeffs import Coefficient
from .modular import P, Powers, rank, value
from .polynomials import Poly, divexact, from_ints, poly_lcm

__all__ = ["rref", "null_combination", "in_span"]


def rref(rows):
    """Reduced row echelon form in place semantics; returns (rows, pivots).

    rows is a list of lists of Coefficient; pivots lists the pivot
    column of each nonzero row, in order.  When every entry is a
    constant the elimination runs on their Fractions, and the result is
    wrapped once.
    """
    values = [[c._value() for c in r] for r in rows]
    if any(None in r for r in values):
        return _eliminate([list(r) for r in rows], Coefficient.is_zero, Coefficient.one())
    reduced, pivots = _eliminate(values, not_, 1)
    return [[Coefficient.const(q) for q in r] for r in reduced], pivots


def _eliminate(rows, is_zero, one):
    """Gauss-Jordan elimination of rows (lists of field elements, reduced
    in place) for rref: is_zero tests an entry, one is the unit."""
    pivots = []
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not is_zero(rows[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = one / rows[r][col]
        rows[r] = [c * inv for c in rows[r]]
        for i in range(nrows):
            if i != r and not is_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [
                    a - factor * b for a, b in zip(rows[i], rows[r])
                ]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def kernel_vector(reduced, pivots, ncols):
    """From rref output: the null vector that sets the first free column
    to 1 and the other free columns to 0, or None if every column is a
    pivot."""
    pivot_cols = set(pivots)
    j0 = next((j for j in range(ncols) if j not in pivot_cols), None)
    if j0 is None:
        return None
    sol = [Coefficient.zero()] * ncols
    sol[j0] = Coefficient.one()
    for row, pc in zip(reduced, pivots):
        sol[pc] = -row[j0]
    return sol


def _expand_columns(elements, scalar_vars):
    """Rows of the dependence system: one per monomial in the non-scalar
    variables, entries in Q(a_Y)."""
    scalar_vars = frozenset(scalar_vars)
    if not elements:
        return []
    cleared = [c.num for c in elements]
    if any(not c.den.is_const() for c in elements):  # a canonical constant denominator is 1
        common = Poly.one()
        for c in elements:
            common = poly_lcm(common, c.den)
        cleared = [c.num * divexact(common, c.den) for c in elements]
    # entry idx of a row is cleared[idx].c times the integer bucket {y_part: int}
    rows = {}
    for idx, p in enumerate(cleared):
        for mono, v in p.z.items():
            z_part = tuple((u, e) for u, e in mono if u not in scalar_vars)
            y_part = tuple((u, e) for u, e in mono if u in scalar_vars)
            rows.setdefault(z_part, [{} for _ in elements])[idx][y_part] = v
    out = []
    contents = [(p.c.numerator, p.c.denominator) for p in cleared]
    for z_part in sorted(rows, key=lambda m: (len(m), m)):
        # a denominator of 1 is already canonical
        out.append([
            Coefficient(from_ints(n, d, b), Poly.one(), _canonical=True)
            for (n, d), b in zip(contents, rows[z_part])
        ])
    return out


def _independent(elements, scalar_vars) -> bool:
    """True when the rank certificate (see the module docstring) shows the
    elements independent over Q(a_Y); False means undecided."""
    if len(elements) == 1:
        return not elements[0].is_zero()
    fixed = frozenset(scalar_vars)
    rows = []
    for j in range(1, len(elements) + 1):
        powers = Powers(fixed, j)
        row = []
        for x in elements:
            num = value(x.num.z, powers)
            if not x.den.is_const():  # a canonical constant denominator is 1
                d = value(x.den.z, powers)
                if not d:
                    return False
                num = num * pow(d, -1, P) % P
            row.append(num)
        rows.append(row)
    return rank(rows) == len(elements)


def null_combination(elements, scalar_vars):
    """A nonzero scalar vector with sum(r_i * elements_i) = 0, or None."""
    if not elements or _independent(elements, scalar_vars):
        return None
    # with every element zero there are no rows and the first one is chosen
    rows = _expand_columns(elements, scalar_vars)
    return kernel_vector(*rref(rows), len(elements))


def in_span(target, elements, scalar_vars):
    """Scalars with sum(r_i * elements_i) = target, or None."""
    if target.is_zero():
        return [Coefficient.zero()] * len(elements)
    if not elements:
        return None
    if len(elements) == 1:
        x = elements[0]
        if x.is_zero():
            return None
        q = target / x  # the only candidate scalar
        return [q] if q.variables() <= set(scalar_vars) else None
    columns = list(elements) + [target]
    if _independent(columns, scalar_vars):
        return None  # the target column would be a pivot
    rows = _expand_columns(columns, scalar_vars)
    n = len(elements)
    reduced, pivots = rref(rows)
    if n in pivots:
        return None  # target column is a pivot: inconsistent
    sol = [Coefficient.zero()] * n
    for row, pc in zip(reduced, pivots):
        sol[pc] = row[n]
    return sol
