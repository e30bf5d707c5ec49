"""Exact linear algebra over a scalar subfield of the coefficient field.

Vectors live in Q(a1, ..., am) while scalars range over Q(a_Y) for an
index subset Y.  Dependence over Q(a_Y) reduces to an ordinary linear
system over that field: clear denominators and expand every vector in
the monomials of the complementary variables, whose coefficients are
polynomials in the Y variables.  Gaussian elimination then runs
entirely inside Q(a_Y).
"""

from __future__ import annotations

from .coeffs import Coefficient
from .polynomials import Poly, divexact, from_ints, poly_lcm

__all__ = ["rref", "null_combination", "in_span"]


def rref(rows):
    """Reduced row echelon form in place semantics; returns (rows, pivots).

    rows is a list of lists of Coefficient; pivots lists the pivot
    column of each nonzero row, in order.
    """
    rows = [list(r) for r in rows]
    pivots = []
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Coefficient.one() / rows[r][col]
        rows[r] = [c * inv for c in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][col].is_zero():
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
    common = Poly.one()
    for c in elements:
        common = poly_lcm(common, c.den)
    cleared = []
    for c in elements:
        cofactor = divexact(common, c.den)
        cleared.append(c.num * cofactor)
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


def null_combination(elements, scalar_vars):
    """A nonzero scalar vector with sum(r_i * elements_i) = 0, or None."""
    if not elements:
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
    rows = _expand_columns(list(elements) + [target], scalar_vars)
    n = len(elements)
    reduced, pivots = rref(rows)
    if n in pivots:
        return None  # target column is a pivot: inconsistent
    sol = [Coefficient.zero()] * n
    for row, pc in zip(reduced, pivots):
        sol[pc] = row[n]
    return sol
