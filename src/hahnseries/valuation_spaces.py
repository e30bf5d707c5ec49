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
    """{value: member indices} of a family of nonzero series, in
    increasing value order."""
    classes = {}
    for idx, s in enumerate(vs):
        classes.setdefault(s.terms[0][0], []).append(idx)
    return {value: classes[value] for value in sorted(classes)}


def is_valuation_independent(vs, scalars: ScalarField) -> IndependenceResult:
    """Decide valuation independence; on failure return a scalar witness
    r with v(sum r_i vs_i) > min v(vs_i)."""
    vs = list(vs)
    for s in vs:
        if not s.terms:
            raise PreconditionError("zero series (at precision) in the family")
    for value, idxs in _value_classes(vs).items():
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
        entries = tuple(entries)
        if entries:
            result = is_valuation_independent(entries, scalars)
            if not result:
                raise DependenceError(
                    f"family is valuation dependent at value {result.value}"
                )
        self.entries = entries
        self.scalars = scalars
        self.value_classes = _value_classes(entries)

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
    """Leading-term elimination against a basis family.

    Returns (remainder, combination coefficients).
    """
    entries = basis.entries
    coeffs = [Coefficient.zero()] * len(entries)
    remainder = f
    while remainder.terms:
        value, target = remainder.terms[0]
        idxs = basis.value_classes.get(value)
        if idxs is None:
            break
        sol = in_span(target, [entries[i].leading_coeff() for i in idxs], basis.scalars.vars)
        if sol is None:
            break
        for i, lam in zip(idxs, sol):
            if lam.is_zero():
                continue
            coeffs[i] = coeffs[i] + lam
            remainder = remainder - entries[i].scalar_mul(lam)
    return remainder, coeffs


def optimal_approx(f, basis, scalars=None, with_coeffs=False):
    """Best approximation to f from the span of the basis, in the
    valuation metric: w(approx - f) >= w(b - f) for every span element b.

    basis may be a BasisFamily, or any iterable of series, which is first
    folded through extend_basis into an independent spanning family.
    """
    if not isinstance(basis, BasisFamily):
        if with_coeffs:
            raise PreconditionError("with_coeffs requires a BasisFamily")
        family = BasisFamily((), scalars or ScalarField.rationals())
        for b in basis:
            family = extend_basis(family, b)
        basis = family
    _, coeffs = _greedy_reduce(f, basis)
    terms = [b.scalar_mul(lam) for lam, b in zip(coeffs, basis.entries) if not lam.is_zero()]
    approx = sum(terms[1:], terms[0]) if terms else TruncatedSeries.zero(f.prec)
    return (approx, coeffs) if with_coeffs else approx


def extend_basis(basis: BasisFamily, a: TruncatedSeries) -> BasisFamily:
    """Adjoin the reduced remainder of a unless a is already in the span.

    The greedy reduction stops where the remainder's leading term has no
    value class or lies outside its class's span, so the extended family
    is independent without a second check.
    """
    remainder, _ = _greedy_reduce(a, basis)
    if not remainder.terms:
        return basis
    return basis._adjoin(remainder)


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
    already misses some listed variable equals f's coefficient there.
    """
    images, chosen = _stage_images(f, specs, places)
    summands = {
        key: -g if key.count("1") % 2 else g for key, g in images.items()
    }
    h = -sum(summands.values(), TruncatedSeries.zero(f.prec))
    return InclusionExclusionResult(h, summands, chosen)


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
        remainder, coeffs = _greedy_reduce(eps, self.additive)
        if remainder.terms:
            raise PreconditionError(
                "argument is not in the additive span at precision"
            )
        result = _unit_product(self.images, coeffs)
        if result is None:
            return OneUnit(TruncatedSeries.one(eps.prec))
        return result

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


def chain_basis_build(stage_inputs, stage_vars, scalars=None):
    """Iterated basis extension along a nested chain of variable sets.

    stage_inputs[s] must have coefficients within stage_vars[s]; the
    result is the list of cumulative bases, one per stage.
    """
    if scalars is None:
        scalars = ScalarField.rationals()
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
