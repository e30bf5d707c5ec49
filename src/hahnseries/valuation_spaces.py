"""Valued vector spaces of series: valuation independence, optimal
approximation, basis extension, skeletons, tensor bases, and the
inclusion-exclusion approximations.

A family is valuation independent over the scalar field when the
valuation of every scalar combination equals the least valuation of the
participating members; equivalently, within each value class the
leading coefficients are linearly independent over the scalars.  A
BasisFamily is validated once and keeps its value classes, the map
{value: member indices} in increasing value order; optimal
approximation, basis extension, skeletons and the restricted
exponential all read that map.  Basis extension rests on optimal
approximation: greedily cancel the minimal term of the remainder by a
combination of basis members of that exact value whenever its leading
coefficient lies in their span.

The inclusion-exclusion approximation specializes one listed
transcendental per stage.  Working backwards through the variable list,
each stage picks a substitution finite on every summand built so far;
the summands are the signed images over the nonzero stage subsets, and
h = -(sum of summands) is an optimal approximation of the input inside
the span of the series missing one variable each.  The multiplicative
version inverts the odd images instead of negating them and sets
h = (product of summands)^-1; it is conjugate to the additive one under
exp/log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional

from .analytic import OneUnit, unit_pow
from .coeffs import Coefficient, finite_place_for
from .errors import DependenceError, PreconditionError, SkeletonMismatchError
from .exponents import Exponent
from .linalg import in_span, null_combination
from .series import TruncatedSeries

__all__ = [
    "ScalarField",
    "BasisFamily",
    "Skeleton",
    "SkeletonClass",
    "IndependenceResult",
    "InclusionExclusionResult",
    "RestrictedExpMap",
    "is_valuation_independent",
    "optimal_approx",
    "extend_basis",
    "inclusion_exclusion_approx",
    "mult_inclusion_exclusion",
    "skeleton_of",
    "tensor_basis",
    "build_restricted_exp",
    "chain_basis_build",
]


@dataclass(frozen=True)
class ScalarField:
    """Q, or Q(a_Y) for an index subset Y of the transcendentals."""

    vars: frozenset = frozenset()

    def __post_init__(self):
        if any(j < 1 for j in self.vars):
            raise PreconditionError("variable indices start at 1")

    @classmethod
    def rationals(cls) -> "ScalarField":
        return cls(frozenset())

    @classmethod
    def with_vars(cls, indices) -> "ScalarField":
        return cls(frozenset(indices))

    @property
    def is_rationals(self) -> bool:
        return not self.vars

    def __str__(self):
        if not self.vars:
            return "Q"
        inner = ", ".join(f"a{j}" for j in sorted(self.vars))
        return f"Q({inner})"


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    witness: Optional[tuple] = None
    value: Optional[Exponent] = None

    def __bool__(self):
        return self.independent


def _value_classes(vs):
    """{value: member indices} of a family of series, in increasing value
    order; a series zero at precision has no value and is refused."""
    if not all(s.terms for s in vs):
        raise PreconditionError("zero series (at precision) in the family")
    classes = {}
    for idx, s in enumerate(vs):
        classes.setdefault(s.terms[0][0], []).append(idx)
    return {value: classes[value] for value in sorted(classes)}


def is_valuation_independent(vs, scalars: ScalarField) -> IndependenceResult:
    """Decide valuation independence; on failure return a scalar witness
    r with v(sum r_i vs_i) > min v(vs_i).  A BasisFamily hands over its
    value classes, which are not computed again."""
    classes = vs.value_classes if isinstance(vs, BasisFamily) else None
    vs = list(vs)
    for value, idxs in (_value_classes(vs) if classes is None else classes).items():
        leading = [vs[i].leading_coeff() for i in idxs]
        combo = null_combination(leading, scalars.vars)
        if combo is not None:
            witness = [Coefficient.zero()] * len(vs)
            for i, lam in zip(idxs, combo):
                witness[i] = lam
            return IndependenceResult(False, tuple(witness), value)
    return IndependenceResult(True)


class BasisFamily:
    """A valuation-independent family over a scalar field, with its value
    classes: {value: member indices} in increasing value order."""

    __slots__ = ("entries", "scalars", "value_classes")

    def __init__(self, entries, scalars: ScalarField):
        self.entries = tuple(entries)
        self.scalars = scalars
        self.value_classes = _value_classes(self.entries)
        if self.entries:
            result = is_valuation_independent(self, scalars)
            if not result:
                raise DependenceError(
                    f"family is valuation dependent at value {result.value}"
                )

    def _adjoin(self, s) -> "BasisFamily":
        """The family with s appended, trusted to stay independent.

        For extend_basis only: its remainder either has a value no member
        has, or a leading coefficient outside the span of its value class.
        """
        classes = dict(self.value_classes)
        value = s.terms[0][0]
        classes[value] = classes.get(value, []) + [len(self.entries)]
        if len(classes) > len(self.value_classes):
            classes = {v: classes[v] for v in sorted(classes)}
        out = object.__new__(BasisFamily)
        out.entries = self.entries + (s,)
        out.scalars = self.scalars
        out.value_classes = classes
        return out

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"BasisFamily({len(self.entries)} entries over {self.scalars})"


def _greedy_reduce(f, basis: BasisFamily):
    """Leading-term elimination against a basis family, reading the
    remainder r = f - sum(lam_i b_i) one exponent at a time.

    Returns (coeffs, prec, rest): the combination coefficients, the
    remainder's precision min(f.prec, b_i.prec of the members used) and,
    unless r vanishes at prec (rest None), an iterator over r's terms
    from the first one that no value class eliminates.  No series is
    built: r is a merge over f's terms and the terms of the members used
    so far, and the first term that stops the reduction is the only one
    read beyond the eliminated ones until a caller drains rest.
    """
    entries, scalar_vars = basis.entries, basis.scalars.vars
    coeffs = [Coefficient.zero()] * len(entries)
    heads = [[f.terms, 0, None]]
    terms = _difference(heads)
    classes = iter(basis.value_classes.items())
    value, idxs = next(classes, (None, None))
    prec = f.prec
    for e, c in terms:
        x = e.coords
        if not x < prec.coords:
            return coeffs, prec, None
        while value is not None and value.coords < x:
            value, idxs = next(classes, (None, None))
        sol = None
        if value is not None and value.coords == x:
            sol = in_span(c, [entries[i].leading_coeff() for i in idxs], scalar_vars)
        if sol is None:
            return coeffs, prec, _below_prec(e, c, terms, prec.coords)
        for i, lam in zip(idxs, sol):
            if lam.is_zero():
                continue
            coeffs[i] = lam
            q = lam._value()
            b = entries[i]
            heads.append([b.terms, 1, -lam if q is None else -q])  # past b's leading term
            prec = min(prec, b.prec)
    return coeffs, prec, None


def _difference(heads):
    """The nonzero terms of f - sum(lam_i b_i), in increasing order: a merge
    over cursors [terms, next position, scale], f's with scale None and
    one per member with scale -lam_i.  Comparing coords tuples, it hashes
    no exponent; heads may grow between two terms."""
    while True:
        low = None
        for terms, pos, _ in heads:
            if pos < len(terms):
                x = terms[pos][0].coords
                if low is None or x < low:
                    low = x
        if low is None:
            return
        total = None
        for head in heads:
            terms, pos, scale = head
            if pos < len(terms) and terms[pos][0].coords == low:
                e, c = terms[pos]
                head[1] = pos + 1
                if scale is not None:
                    c = c * scale
                total = c if total is None else total + c
        if not total.is_zero():
            yield e, total


def _below_prec(e, c, terms, prec):
    """(e, c) and then the terms below the coords tuple prec."""
    yield e, c
    for e, c in terms:
        if not e.coords < prec:
            return
        yield e, c


def optimal_approx(f, basis: BasisFamily, with_coeffs=False):
    """Best approximation to f from the span of the basis, in the
    valuation metric: w(approx - f) >= w(b - f) for every span element b.

    A spanning list that may be dependent is folded into a BasisFamily
    with extend_basis first.  The reduction stops at the first term it
    cannot eliminate and builds no remainder; the only series built are
    the scaled members lam_i * b_i and their sum.
    """
    coeffs, _, _ = _greedy_reduce(f, basis)
    terms = [b.scalar_mul(lam) for lam, b in zip(coeffs, basis.entries) if not lam.is_zero()]
    approx = sum(terms[1:], terms[0]) if terms else TruncatedSeries.zero(f.prec)
    return (approx, coeffs) if with_coeffs else approx


def extend_basis(basis: BasisFamily, a: TruncatedSeries) -> BasisFamily:
    """Adjoin the reduced remainder of a unless a is already in the span.

    The greedy reduction stops where the remainder's leading term has no
    value class or lies outside its class's span, so the extended family
    is independent without a second check.  The one series built is the
    remainder, from the rest of the same scan; when nothing was
    eliminated, a itself is adjoined.
    """
    coeffs, prec, rest = _greedy_reduce(a, basis)
    if rest is None:
        return basis
    if all(lam.is_zero() for lam in coeffs):
        return basis._adjoin(a)
    return basis._adjoin(TruncatedSeries._of(tuple(rest), prec))


# ---------------------------------------------------------------------------
# Inclusion-exclusion approximations


@dataclass(frozen=True)
class InclusionExclusionResult:
    h: object
    summands: dict = field(default_factory=dict)
    places: tuple = ()


def _normalize_specs(specs):
    out = []
    for s in specs:
        if isinstance(s, tuple):
            out.append((s[0], s[1]))
        else:
            out.append((int(s), None))
    seen = set()
    for var, _ in out:
        if var in seen:
            raise PreconditionError(f"variable a{var} is listed more than once")
        seen.add(var)
    return out


def _stage_images(f: TruncatedSeries, specs, places):
    """Composite specializations of f over the nonzero stage subsets.

    Returns ({bitstring: image}, places).  Working backwards through the
    variable list, each stage picks a place finite on every image built
    so far, unless places are given.
    """
    specs = _normalize_specs(specs)
    n = len(specs)
    if n == 0:
        raise PreconditionError("at least one variable must be listed")
    listed = {var for var, _ in specs}
    for _, c in f.terms:
        if not c.variables() <= listed:
            raise PreconditionError(
                f"coefficient {c} uses variables outside the listed set"
            )
    family = {"": f}
    chosen = [None] * n
    for k in range(n, 0, -1):
        var, candidates = specs[k - 1]
        if places is not None:
            place = places[k - 1]
        else:
            coeffs = [c for g in family.values() for _, c in g.terms]
            place = finite_place_for(coeffs, var, candidates)
        chosen[k - 1] = place
        new_family = {}
        for sigma, g in family.items():
            new_family["0" + sigma] = g
            new_family["1" + sigma] = g.specialize(place)
        family = new_family
    images = {key: g for key, g in sorted(family.items()) if "1" in key}
    return images, tuple(chosen)


def inclusion_exclusion_approx(f: TruncatedSeries, specs, places=None):
    """Optimal approximation of f by series whose coefficients each miss
    one of the listed transcendentals.

    Returns the approximation h, the table of the 2^N - 1 nonzero-stage
    summands keyed by bitstring, and the places used.  For each nonzero
    stage subset the summand's coefficients omit every selected
    variable; the coefficient of h at any exponent where f's coefficient
    already misses some listed variable a_j equals f's coefficient there:
    the summands of stage subsets S and S + {j} agree at that exponent and
    cancel, all but the one of {j}.  So the summands are added only at the
    other exponents, in a balanced tree (_pairwise_sum).
    """
    images, chosen = _stage_images(f, specs, places)
    summands = {
        key: -g if key.count("1") % 2 else g for key, g in images.items()
    }
    prec = min(f.prec, *(g.prec for g in summands.values()))
    listed = {place.var for place in chosen}
    full = {e for e, c in f.terms if c.variables() == listed}  # f uses every listed variable
    parts = {}
    for g in summands.values():
        for e, c in g.terms:
            if e in full:
                parts.setdefault(e, []).append(c)
    terms = []
    for e, c in f.terms:
        if not e < prec:
            break
        if e in full:
            if e not in parts:
                continue
            c = -_pairwise_sum(parts[e])
            if c.is_zero():
                continue
        terms.append((e, c))
    return InclusionExclusionResult(TruncatedSeries._of(tuple(terms), prec), summands, chosen)


def _pairwise_sum(xs):
    """The sum of a nonempty list, added in a balanced tree: each sum adds
    two of about the same size, where a running sum would grow."""
    while len(xs) > 1:
        xs = [a + b for a, b in zip(xs[::2], xs[1::2])] + (xs[-1:] if len(xs) % 2 else [])
    return xs[0]


def mult_inclusion_exclusion(u: OneUnit, specs, places=None):
    """Multiplicative analogue: the summands are the images and inverse
    images, and h = (prod summands)^-1.

    Conjugate to the additive formula under exp/log; the result is an
    optimal approximation with respect to w(u) = v_min(1 - u).
    """
    images, chosen = _stage_images(u.series, specs, places)
    summands = {
        key: g.inv() if key.count("1") % 2 else g for key, g in images.items()
    }
    h = prod(summands.values(), start=TruncatedSeries.one(u.series.prec)).inv()
    return InclusionExclusionResult(OneUnit(h), summands, chosen)


# ---------------------------------------------------------------------------
# Skeletons, tensor bases, the restricted exponential, chains


@dataclass(frozen=True)
class SkeletonClass:
    value: Exponent
    dim: int
    leading: tuple


@dataclass(frozen=True)
class Skeleton:
    classes: tuple
    scalars: ScalarField

    def values(self):
        return [c.value for c in self.classes]


def skeleton_of(vs, scalars: ScalarField) -> Skeleton:
    """The value classes of an independent family, with the leading
    coefficients as representatives of the value-graded components."""
    family = BasisFamily(vs, scalars)
    classes = tuple(
        SkeletonClass(value, len(idxs), tuple(family.entries[i].leading_coeff() for i in idxs))
        for value, idxs in family.value_classes.items()
    )
    return Skeleton(classes, scalars)


def tensor_basis(basis: BasisFamily, coeff_basis, small_scalars: ScalarField) -> BasisFamily:
    """Products {b' * b}: a valuation basis over the smaller scalar field,
    given a basis over the larger one and an independent coefficient list."""
    coeff_basis = list(coeff_basis)
    if not coeff_basis:
        raise PreconditionError("coefficient basis must be nonempty")
    combo = null_combination(coeff_basis, small_scalars.vars)
    if combo is not None:
        raise DependenceError("coefficient list is dependent over the scalars")
    out = []
    for b in basis.entries:
        for c in coeff_basis:
            out.append(b.scalar_mul(c))
    return BasisFamily(out, small_scalars)


def _unit_product(units, exponents):
    """prod(u_i^lam_i) over the nonzero rational lam_i, or None if all
    are zero."""
    result = None
    for u, lam in zip(units, exponents):
        if lam.is_zero():
            continue
        piece = unit_pow(u, lam.as_fraction())
        result = piece if result is None else result * piece
    return result


class RestrictedExpMap:
    """Value-matched correspondence from an additive basis to a
    multiplicative one, extended linearly: sum(q_i b_i) -> prod(u_i^q_i)."""

    def __init__(self, additive: BasisFamily, units, images):
        self.additive = additive
        self.units = tuple(units)
        self.images = tuple(images)

    def apply(self, eps: TruncatedSeries) -> OneUnit:
        """prod(u_i^q_i) for eps = sum(q_i b_i) at precision.  The reduction
        stops at the first term it cannot eliminate, which refuses eps, and
        builds no remainder; the only series built are the unit powers and
        their product.

        The q_i are known to the reduction's precision p = min(eps.prec,
        b_i.prec of the members used): a hidden tail of eps in the span is
        sum(r_i b_i) with every v(b_i) >= p, whose image 1 + O(t^p) moves
        the result at t^p.  So the result is cut at p."""
        coeffs, prec, rest = _greedy_reduce(eps, self.additive)
        if rest is not None:
            raise PreconditionError(
                "argument is not in the additive span at precision"
            )
        result = _unit_product(self.images, coeffs)
        if result is None:
            return OneUnit(TruncatedSeries.one(prec))
        return OneUnit(result.series.truncate(prec))

    def check_homomorphism(self, e1, e2) -> bool:
        lhs = self.apply(e1 + e2)
        rhs = self.apply(e1) * self.apply(e2)
        return lhs.agrees_with(rhs)

    def check_w_compat(self, eps) -> bool:
        image = self.apply(eps)
        delta = image.delta()
        if not eps.terms:
            return not delta.terms
        return bool(delta.terms) and delta.terms[0][0] == eps.terms[0][0]


def build_restricted_exp(additive: BasisFamily, units) -> RestrictedExpMap:
    """Match an additive basis of infinitesimals with a multiplicative
    basis of 1-units sharing the same skeleton; requires Q scalars."""
    if not additive.scalars.is_rationals:
        raise PreconditionError("restricted exponentials use Q scalars")
    units = list(units)
    deltas = [u.delta() for u in units]
    for d in deltas:
        if not d.terms:
            raise PreconditionError("trivial 1-unit in the multiplicative family")
    mult = BasisFamily(deltas, additive.scalars)
    if list(additive.value_classes) != list(mult.value_classes):
        raise SkeletonMismatchError(
            f"value sets differ: {[str(v) for v in additive.value_classes]} vs "
            f"{[str(v) for v in mult.value_classes]}"
        )
    # equal dimensions and independent leading coefficients: the spans
    # agree exactly when each additive leading coefficient lies in the
    # multiplicative span.  Solve every class before any unit power.
    solved = [None] * len(additive)
    for value, idxs in additive.value_classes.items():
        unit_idxs = mult.value_classes[value]
        if len(idxs) != len(unit_idxs):
            raise SkeletonMismatchError(
                f"component dimensions differ at value {value}"
            )
        leading = [deltas[j].leading_coeff() for j in unit_idxs]
        for i in idxs:
            sol = in_span(additive.entries[i].leading_coeff(), leading, additive.scalars.vars)
            if sol is None:
                raise SkeletonMismatchError(
                    f"leading-coefficient spaces differ at value {value}"
                )
            solved[i] = ([units[j] for j in unit_idxs], sol)
    images = [_unit_product(us, sol) for us, sol in solved]
    return RestrictedExpMap(additive, units, images)


def chain_basis_build(stage_inputs, stage_vars, scalars=ScalarField()):
    """Iterated basis extension along a nested chain of variable sets.

    stage_inputs[s] must have coefficients within stage_vars[s]; the
    result is the list of cumulative bases, one per stage.
    """
    stage_vars = [frozenset(v) for v in stage_vars]
    if len(stage_inputs) != len(stage_vars):
        raise PreconditionError("one variable set per stage is required")
    if any(j < 1 for v in stage_vars for j in v):
        raise PreconditionError("variable indices start at 1")
    for prev, cur in zip(stage_vars, stage_vars[1:]):
        if not prev <= cur:
            raise PreconditionError("stage variable sets must be nested")
    basis = BasisFamily((), scalars)
    out = []
    for inputs, allowed in zip(stage_inputs, stage_vars):
        for s in inputs:
            for _, c in s.terms:
                if not c.variables() <= allowed:
                    raise PreconditionError(
                        f"stage input uses variables outside {sorted(allowed)}"
                    )
            basis = extend_basis(basis, s)
        out.append(basis)
    return out
