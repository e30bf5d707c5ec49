"""The coefficient field: rational functions of formal transcendentals.

Elements of Q(a1, ..., am) are kept in a unique canonical form, with
numerator and denominator coprime and the denominator monic under
graded lex, so equal field elements have identical representations.
A constant is therefore c/1.  Arithmetic whose operands are both
constants takes the Q path: it computes the Fraction and builds its
canonical form directly, with no polynomial product, gcd or division.
Other operands are canonical already, and the field operations keep
that form instead of rebuilding it with the gcd of the whole result
(Henrici, J. ACM 3, 1956): a sum takes the gcd of the denominators and
then of the new numerator with that gcd alone, a product or quotient
the two cross gcds of a numerator with the other denominator.  Either
way the result is the canonical form that ``Coefficient(num, den)``
would build from scratch; that general path is for outside input.
A place substitutes one transcendental by a rational; its image is the
distinguished value INFINITE when the (already cancelled) denominator
vanishes under the substitution.  Given finitely many elements, only
finitely many substitution targets hit a pole, so a finite place can
always be found by scanning candidates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .exponents import Record
from .polynomials import Poly, divexact, poly_gcd

__all__ = [
    "Coefficient",
    "Place",
    "INFINITE",
    "as_coefficient",
    "apply_place",
    "finite_place_for",
    "default_candidates",
]

class _Infinite:
    """The value a place takes at a pole."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinite"


INFINITE = _Infinite()


class Coefficient:
    """Canonical rational function num/den with den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = Poly.zero()
            self.den = Poly.one()
            return
        g = poly_gcd(num, den)
        if not (g.is_const() and g.const_value() == 1):
            num = divexact(num, g)
            den = divexact(den, g)
        lc = den.leading_coeff()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, q) -> "Coefficient":
        c = object.__new__(cls)  # canonical: q/1
        c.num = Poly.const(q)
        c.den = Poly.one()
        return c

    @classmethod
    def alpha(cls, j) -> "Coefficient":
        return cls(Poly.variable(j), Poly.one(), _canonical=True)

    @classmethod
    def zero(cls) -> "Coefficient":
        return cls.const(0)

    @classmethod
    def one(cls) -> "Coefficient":
        return cls.const(1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _value(self):
        """The Fraction of a constant, None otherwise.

        Canonical constants have den exactly 1 (a monic constant), and a
        constant's integer part is {(): 1}, so the test reads the two
        integer parts and returns the numerator's content.
        """
        den = self.den.z
        if len(den) != 1 or () not in den:
            return None
        num = self.num.z
        return self.num.c if not num or (len(num) == 1 and () in num) else None

    def is_const(self) -> bool:
        return self._value() is not None

    def scale(self, q) -> "Coefficient":
        """Multiply by a rational; no gcd, as q != 0 keeps the form canonical."""
        if not q:
            return Coefficient.zero()
        return Coefficient(self.num.scale(q), self.den, _canonical=True)

    def as_fraction(self) -> Fraction:
        q = self._value()
        if q is None:
            raise ValueError(f"not a constant: {self}")
        return q

    def variables(self):
        return self.num.variables() | self.den.variables()

    def __add__(self, other):
        """Henrici's sum: for b = g*b', d = g*d' with g = gcd(b, d), a/b + c/d
        is (a*d' + c*b')/(b'*d), and the only factor it can still share is
        gcd(a*d' + c*b', g).  Canonical forms are unique, so the sum is 0
        only when b == d."""
        other = _operand(other)
        if other is NotImplemented:
            return other
        a = self._value()
        if a is not None:
            b = other._value()
            if b is not None:
                return Coefficient.const(a + b)
        b, d = self.den, other.den
        if b == d:
            num = self.num + other.num
            if num.is_zero():
                return Coefficient.zero()
            g, b = d, Poly.one()  # b' = 1
        else:
            g = poly_gcd(b, d)
            if g.is_const():
                return Coefficient(
                    self.num * d + other.num * b, b * d, _canonical=True
                )
            b = divexact(b, g)
            num = self.num * divexact(d, g) + other.num * b
        g = poly_gcd(num, g)
        if not g.is_const():
            num, d = divexact(num, g), divexact(d, g)
        return Coefficient(num, b * d, _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return Coefficient(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, Coefficient):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        a = self._value()
        if a is not None:
            b = other._value()
            if b is not None:
                return Coefficient.const(a * b)
        if self.is_zero() or other.is_zero():
            return Coefficient.zero()
        return _cross(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """a/b over c/d is a/b times d/c, made canonical by scaling d and c
        by 1/lc(c) before the cross gcds."""
        other = _operand(other)
        if other is NotImplemented:
            return other
        if other.is_zero():
            raise ZeroDivisionError("division by zero coefficient")
        a = self._value()
        if a is not None:
            b = other._value()
            if b is not None:
                return Coefficient.const(a / b)
        if self.is_zero():
            return Coefficient.zero()
        c, d = other.num, other.den
        lc = c.leading_coeff()
        if lc != 1:
            c, d = c.scale(1 / lc), d.scale(1 / lc)
        return _cross(self.num, self.den, d, c)

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, n):
        """No gcd for n >= 0: powers of coprime polynomials stay coprime,
        and a power of a monic denominator is monic."""
        if n < 0:
            return Coefficient.one() / self**-n
        a = self._value()
        if a is not None:
            return Coefficient.const(a**n)
        return Coefficient(self.num**n, self.den**n, _canonical=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Coefficient.const(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        num = str(self.num)
        if len(self.num.z) > 1 or num.startswith("-"):
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"Coefficient({self})"


def _cross(a, b, c, d) -> Coefficient:
    """(a/b)*(c/d) for nonzero canonical a/b and c/d: gcd(a, d) and
    gcd(c, b) are the only factors the product can share."""
    g = poly_gcd(a, d)
    if not g.is_const():
        a, d = divexact(a, g), divexact(d, g)
    g = poly_gcd(c, b)
    if not g.is_const():
        c, b = divexact(c, g), divexact(b, g)
    return Coefficient(a * c, b * d, _canonical=True)


def _operand(x):
    """x as a Coefficient, or NotImplemented for a value outside the field,
    so that Python tries the other operand's reflected method."""
    if isinstance(x, Coefficient):
        return x
    if isinstance(x, (int, Fraction)):
        return Coefficient.const(x)
    return NotImplemented


def as_coefficient(x) -> Coefficient:
    if isinstance(x, Coefficient):
        return x
    if isinstance(x, (int, Fraction)):
        return Coefficient.const(x)
    raise TypeError(f"cannot coerce {x!r} to a coefficient")


class Place(Record):
    """Substitution of one transcendental by a rational: a_var -> q."""

    __slots__ = ("var", "q")

    def __init__(self, var: int, q: Fraction):
        if var < 1:
            raise PreconditionError("variable indices start at 1")
        super().__init__(var, q if isinstance(q, Fraction) else Fraction(q))

    def __str__(self):
        return f"a{self.var} -> {self.q}"


def _finite_den(c: Coefficient, place: Place):
    """The denominator of c under the place, or None at a pole; c's own
    when it does not hold the variable."""
    if place.var not in c.den.variables():
        return c.den
    den = c.den.subs_var(place.var, place.q)
    return None if den.is_zero() else den


def apply_place(c: Coefficient, place: Place):
    """Specialize one transcendental; INFINITE exactly at the poles.

    The input is canonical, so numerator and denominator share no factor
    and at most one of them can vanish identically under the
    substitution; the map is a ring homomorphism wherever it is finite.
    An element without the variable is its own image.
    """
    if place.var not in c.variables():
        return c
    den = _finite_den(c, place)
    if den is None:
        return INFINITE
    num = c.num.subs_var(place.var, place.q)
    return Coefficient(num, den)


def default_candidates():
    """0, 1, -1, 2, -2, ...; the scan skips 0 (inverses must stay finite)."""
    yield 0
    n = 1
    while True:
        yield n
        yield -n
        n += 1


def finite_place_for(cs, var, candidates=None) -> Place:
    """First candidate q != 0 whose place a_var -> q is finite on all of cs.

    Each element has finitely many poles in a_var, so with infinitely
    many distinct candidates the scan terminates.
    """
    if candidates is None:
        candidates = default_candidates()
    for q in candidates:
        q = q if isinstance(q, Fraction) else Fraction(q)
        if q == 0:
            continue
        place = Place(var, q)
        if all(_finite_den(c, place) is not None for c in cs):
            return place
    raise PreconditionError(
        f"candidate budget exhausted while seeking a finite place for a{var}"
    )
