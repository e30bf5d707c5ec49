"""The exponent group Q^k under the lexicographic order.

Exponents of a series are vectors of exact rationals with a fixed rank k
per session; rank 1 covers ordinary Puiseux exponents.  The group is
divisible (any exponent can be scaled by a rational) and totally ordered
by the lexicographic comparison, so archimedean classes are read off the
first nonzero coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub

from .errors import RankMismatchError

__all__ = [
    "Exponent",
    "as_exponent",
    "reach_count",
]


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Exponent:
    """A vector of exact rationals compared lexicographically."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_rational(c) for c in coords)
        if not coords:
            raise ValueError("rank must be at least 1")
        self.coords = coords

    @classmethod
    def _of(cls, coords) -> "Exponent":
        """An exponent on trusted input: a non-empty tuple of Fractions.

        For results computed from exponents already built, which need no
        validation; public input goes through the constructor.
        """
        e = object.__new__(cls)
        e.coords = coords
        return e

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check_rank(self, other: "Exponent"):
        if len(self.coords) != len(other.coords):
            raise RankMismatchError(
                f"rank {len(self.coords)} vs rank {len(other.coords)}"
            )

    def arch_class(self):
        """1-based index of the first nonzero coordinate; None for 0."""
        for j, c in enumerate(self.coords):
            if c != 0:
                return j + 1
        return None

    def scale(self, q) -> "Exponent":
        q = _rational(q)
        return Exponent._of(tuple(c * q for c in self.coords))

    def __add__(self, other):
        self._check_rank(other)
        return Exponent._of(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other):
        self._check_rank(other)
        return Exponent._of(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self):
        return Exponent._of(tuple(map(neg, self.coords)))

    def __eq__(self, other):
        if not isinstance(other, Exponent):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        self._check_rank(other)
        return self.coords < other.coords

    def __le__(self, other):
        self._check_rank(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        self._check_rank(other)
        return self.coords > other.coords

    def __ge__(self, other):
        self._check_rank(other)
        return self.coords >= other.coords

    def __str__(self):
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"Exponent({self})"


class Record:
    """An immutable value on __slots__ with the ==, hash and repr of a
    frozen dataclass, without importing dataclasses: equal only to a
    record of the same class with equal fields, hashed as the field
    tuple, and assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def as_exponent(x, rank=None) -> Exponent:
    """Coerce a rational, tuple, or Exponent; check rank when given."""
    if isinstance(x, Exponent):
        e = x
    elif isinstance(x, (tuple, list)):
        e = Exponent(x)
    else:
        e = Exponent((x,))
    if rank is not None and e.rank != rank:
        raise RankMismatchError(f"expected rank {rank}, got rank {e.rank}")
    return e


def reach_count(step: Exponent, target: Exponent):
    """Least n >= 0 with n*step >= target, or None if no integer works.

    step must be positive.  In lexicographic groups of rank > 1 the
    target may be unreachable (no archimedean bound), which is exactly
    the case the truncated analytic operations must refuse.
    """
    step._check_rank(target)
    if not step > step.scale(0):
        raise ValueError("step must be positive")
    zero = step.scale(0)
    if zero >= target:
        return 0
    if step >= target:
        return 1
    j = step.arch_class() - 1
    # n*step is 0 before coordinate j, and target > 0 is positive at its
    # first nonzero coordinate: one before j puts it out of reach
    if any(target.coords[:j]):
        return None
    # prefixes agree; compare at the leading coordinate of step
    base = target.coords[j] / step.coords[j]
    n = max(1, int(base))
    while not step.scale(n) >= target:
        n += 1
    return n
