"""Valued vector spaces of series: valuation independence, optimal
approximation, basis extension, skeletons, tensor bases, and the
inclusion-exclusion approximations.

A family is valuation independent over the scalar field when the
valuation of every scalar combination equals the least valuation of the
participating members; equivalently, within each value class the
leading coefficients are linearly independent over the scalars.  Basis
extension rests on optimal approximation: greedily cancel the minimal
term of the remainder by a combination of basis members of that exact
value whenever its leading coefficient lies in their span.

The inclusion-exclusion approximation specializes one listed
transcendental per stage.  Working backwards through the variable list,
each stage picks a substitution finite on every summand built so far;
the alternating sum over the nonzero stage subsets is then an optimal
approximation of the input inside the span of the series missing one
variable each.  The multiplicative version divides instead of
subtracting and is conjugate to the additive one under exp/log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    @classmethod
    def rationals(cls) -> "ScalarField":
        return cls(frozenset())

    @classmethod
    def with_vars(cls, indices) -> "ScalarField":
        return cls(frozenset(indices))

    @property
    def is_rationals(self) -> bool:
        return not self.vars

    def contains(self, c: Coefficient) -> bool:
        return c.variables() <= self.vars

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


def is_valuation_independent(vs, scalars: ScalarField) -> IndependenceResult:
    """Decide valuation independence; on failure return a scalar witness
    r with v(sum r_i vs_i) > min v(vs_i)."""
    vs = list(vs)
    for s in vs:
        if not s.terms:
            raise PreconditionError("zero series (at precision) in the family")
    by_value = {}
    for idx, s in enumerate(vs):
        by_value.setdefault(s.terms[0][0], []).append(idx)
    for value in sorted(by_value):
        idxs = by_value[value]
        leading = [vs[i].leading_coeff() for i in idxs]
        combo = null_combination(leading, scalars.vars)
        if combo is not None:
            witness = [Coefficient.zero()] * len(vs)
            for i, lam in zip(idxs, combo):
                witness[i] = lam
            return IndependenceResult(False, tuple(witness), value)
    return IndependenceResult(True)


class BasisFamily:
    """A valuation-independent family over a scalar field."""

    __slots__ = ("entries", "scalars")

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

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"BasisFamily({len(self.entries)} entries over {self.scalars})"


def _greedy_approx(f, entries, scalars):
    """Leading-term elimination against an independent family.

    Returns (approximant, remainder, combination coefficients).
    """
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
    approx = None
    for lam, b in zip(coeffs, entries):
        if lam.is_zero():
            continue
        term = b.scalar_mul(lam)
        approx = term if approx is None else approx + term
    if approx is None:
        approx = TruncatedSeries.zero(f.prec)
    return approx, remainder, coeffs


def _independent_representatives(entries, scalars):
    """An independent family spanning the same space, by a greedy sweep."""
    base = []
    for e in entries:
        _, rem, _ = _greedy_approx(e, base, scalars)
        if rem.terms:
            base.append(rem)
    return base


def optimal_approx(f, basis, scalars=None, with_coeffs=False):
    """Best approximation to f from the span of the basis, in the
    valuation metric: w(approx - f) >= w(b - f) for every span element b.

    basis may be a BasisFamily, or any iterable of series (which is
    first reduced to an independent spanning family).
    """
    if isinstance(basis, BasisFamily):
        entries = basis.entries
        scalars = basis.scalars
        if with_coeffs:
            approx, _, coeffs = _greedy_approx(f, entries, scalars)
            return approx, coeffs
        return _greedy_approx(f, entries, scalars)[0]
    if scalars is None:
        scalars = ScalarField.rationals()
    entries = _independent_representatives(list(basis), scalars)
    if with_coeffs:
        raise PreconditionError("with_coeffs requires a BasisFamily")
    return _greedy_approx(f, entries, scalars)[0]


def extend_basis(basis: BasisFamily, a: TruncatedSeries) -> BasisFamily:
    """Adjoin the reduced remainder of a unless a is already in the span."""
    _, remainder, _ = _greedy_approx(a, basis.entries, basis.scalars)
    if not remainder.terms:
        return basis
    return BasisFamily(basis.entries + (remainder,), basis.scalars)


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
    """Multiplicative analogue: divide out specializations stage by stage.

    Conjugate to the additive formula under exp/log; the result is an
    optimal approximation with respect to w(u) = v_min(1 - u).
    """
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
    """Group an independent family by value; record leading coefficients
    as representatives of the value-graded components."""
    grouped = {}
    for s in BasisFamily(vs, scalars):
        grouped.setdefault(s.terms[0][0], []).append(s.leading_coeff())
    classes = tuple(
        SkeletonClass(value, len(grouped[value]), tuple(grouped[value]))
        for value in sorted(grouped)
    )
    return Skeleton(classes, scalars)


def _spans_match(lead_a, lead_b, scalars) -> bool:
    for c in lead_a:
        if in_span(c, list(lead_b), scalars.vars) is None:
            return False
    for c in lead_b:
        if in_span(c, list(lead_a), scalars.vars) is None:
            return False
    return True


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
        approx, remainder, coeffs = _greedy_approx(
            eps, self.additive.entries, self.additive.scalars
        )
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
    s_add = skeleton_of(additive.entries, additive.scalars)
    s_mult = skeleton_of(deltas, additive.scalars)
    if s_add.values() != s_mult.values():
        raise SkeletonMismatchError(
            f"value sets differ: {[str(v) for v in s_add.values()]} vs "
            f"{[str(v) for v in s_mult.values()]}"
        )
    for ca, cm in zip(s_add.classes, s_mult.classes):
        if ca.dim != cm.dim:
            raise SkeletonMismatchError(
                f"component dimensions differ at value {ca.value}"
            )
        if not _spans_match(ca.leading, cm.leading, additive.scalars):
            raise SkeletonMismatchError(
                f"leading-coefficient spaces differ at value {ca.value}"
            )
    # express each additive leading coefficient in the matching
    # multiplicative leading coefficients, then build the image units
    unit_idx_by_value = {}
    for i, d in enumerate(deltas):
        unit_idx_by_value.setdefault(d.terms[0][0], []).append(i)
    images = []
    for b in additive.entries:
        value = b.terms[0][0]
        idxs = unit_idx_by_value[value]
        sol = in_span(
            b.leading_coeff(),
            [deltas[i].leading_coeff() for i in idxs],
            additive.scalars.vars,
        )
        images.append(_unit_product([units[i] for i in idxs], sol))
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
