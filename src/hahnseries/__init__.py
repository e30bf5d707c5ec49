"""Exact truncated Hahn/Puiseux series under the minimal-support valuation.

Exponents live in Q^k with the lexicographic order, coefficients in the
rational-function field Q(a1, ..., am), and every series carries a
precision bound.  On top of the exact arithmetic sit places and their
coefficientwise action, Hensel lifting, restricted exp/log on
infinitesimals and 1-units, Newton-Puiseux expansion, rational
reconstruction, and the valuation-basis machinery (independence
testing, optimal approximation, basis extension, skeletons, and the
inclusion-exclusion approximations).

Importing the package loads none of its submodules: an exported name
imports its submodule when it is first looked up (PEP 562).
"""

from importlib import import_module

_EXPORTS = {
    "analytic": (
        "OneUnit",
        "exp",
        "hensel_lift",
        "log",
        "newton_puiseux",
        "rational_reconstruct",
        "track_denominators",
        "unit_pow",
        "verify_root",
    ),
    "coeffs": (
        "INFINITE",
        "Coefficient",
        "Place",
        "apply_place",
        "finite_place_for",
    ),
    "errors": (
        "DependenceError",
        "HahnSeriesError",
        "NotInValuationRingError",
        "ParseError",
        "PrecisionError",
        "PreconditionError",
        "RankMismatchError",
        "SkeletonMismatchError",
    ),
    "exponents": (
        "Exponent",
        "as_exponent",
        "reach_count",
    ),
    "parsing": ("parse_expression",),
    "series": (
        "AtLeast",
        "SeriesPolynomial",
        "TruncatedSeries",
        "eval_poly",
        "phi_P",
        "specialize_poly",
    ),
    "valuation_spaces": (
        "BasisFamily",
        "IndependenceResult",
        "InclusionExclusionResult",
        "RestrictedExpMap",
        "ScalarField",
        "Skeleton",
        "SkeletonClass",
        "build_restricted_exp",
        "chain_basis_build",
        "extend_basis",
        "inclusion_exclusion_approx",
        "is_valuation_independent",
        "mult_inclusion_exclusion",
        "optimal_approx",
        "skeleton_of",
        "tensor_basis",
    ),
}

# {exported name: the submodule that defines it}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the package namespace: a caller always gets the
    # submodule's current binding (a wrapper installed there, or the
    # original after it is removed).  A submodule name is not exported,
    # so ``from hahnseries import analytic`` falls back to the import.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
