"""Sparse multivariate polynomials over exact rationals.

Support layer for the rational-function coefficient field.  Monomials
are stored sparsely as tuples of (variable index, power) pairs with
ascending indices; the empty tuple is 1.  The graded lex term order
only fixes leading coefficients, hence the canonical form of
fractions, and the printed order of terms.  Every algorithm that
treats a polynomial as univariate in one variable works on its dense
view: ``dense(p, var)`` is the list of coefficients (polynomials in
the other variables) indexed by power, and ``_join`` is its inverse.
Most gcds the coefficient field asks for are 1.  Gcd first tries a
coprimality certificate, the first step of Brown's modular gcd (J. ACM
18, 1971): for each variable x of both inputs, the other variables go
to fixed points modulo the prime 2^61 - 1, and a univariate gcd of
degree 0 there shows that x does not occur in the gcd.  This is sound:
by Gauss's lemma the gcd h can be scaled to have no multiple of the
prime in its denominators, so its image divides both images; and
lc_x(h) divides lc_x of each input, so the image of h keeps its degree
in x when either input's leading coefficient survives the evaluation.
When any check fails, gcd computes the answer by content/primitive-part
recursion with a primitive pseudo-remainder sequence (PRS) on dense
views (plain Euclid over Q when one variable is left), the one
algorithm for nontrivial gcds.  Exact division is long division on
dense views, and perfect-square detection supports quadratic initial
forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append((va, ea))
            i += 1
        else:
            out.append((vb, eb))
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(a) -> int:
    return sum(e for _, e in a)


def grlex_key(m):
    return (mono_degree(m), tuple((-v, e) for v, e in m))


class Poly:
    """Sparse polynomial in variables a1, a2, ... over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): _ONE})

    @classmethod
    def const(cls, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        return cls({(): q} if q else {})

    @classmethod
    def variable(cls, j):
        if j < 1:
            raise ValueError("variable indices start at 1")
        return cls({((j, 1),): _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if self.is_const():
            return self.terms[()]
        raise ValueError("not a constant polynomial")

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def leading_mono(self):
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_mono()] if self.terms else _ZERO

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self.scale(1 / lc)

    def scale(self, q) -> "Poly":
        q = q if isinstance(q, Fraction) else Fraction(q)
        if not q:
            return Poly()
        if q == 1:
            return self  # a Poly is never mutated
        return Poly({m: c * q for m, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(out)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Poly()
        if other.is_const():
            return self.scale(other.terms[()])
        if self.is_const():
            return other.scale(self.terms[()])
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def subs_var(self, var, q) -> "Poly":
        """Substitute a rational for one variable (Horner on the dense view)."""
        q = q if isinstance(q, Fraction) else Fraction(q)
        out = Poly()
        for c in reversed(dense(self, var)):
            out = out.scale(q) + c
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            body = "*".join(
                f"a{v}^{e}" if e > 1 else f"a{v}" for v, e in m
            )
            if not body:
                s = str(abs(c))
            elif abs(c) == 1:
                s = body
            else:
                s = f"{abs(c)}*{body}"
            if not parts:
                parts.append(s if c > 0 else f"-{s}")
            else:
                parts.append(f"+ {s}" if c > 0 else f"- {s}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def dense(p: Poly, var):
    """p as a polynomial in var: its coefficients (polynomials in the other
    variables) indexed by power, with the top entry nonzero; [] for 0."""
    buckets = []
    for m, c in p.terms.items():
        e, rest = 0, m
        for i, (v, k) in enumerate(m):
            if v == var:
                e, rest = k, m[:i] + m[i + 1 :]
                break
        while len(buckets) <= e:
            buckets.append({})
        buckets[e][rest] = c
    return [Poly(b) for b in buckets]


def _join(coeffs, var) -> Poly:
    """Inverse of dense: the polynomial sum of coeffs[e] * var^e."""
    out = {}
    for e, c in enumerate(coeffs):
        x = ((var, e),) if e else ()
        for m, q in c.terms.items():
            out[mono_mul(m, x)] = q
    return Poly(out)


def _uni_dense(p: Poly):
    """Dense view of a polynomial in at most one variable, as Fractions."""
    out = []
    for m, c in p.terms.items():
        e = m[0][1] if m else 0
        if e >= len(out):
            out.extend([_ZERO] * (e + 1 - len(out)))
        out[e] = c
    return out


def _uni_join(coeffs, var) -> Poly:
    """Inverse of _uni_dense."""
    return Poly({((var, e),) if e else (): c for e, c in enumerate(coeffs) if c})


def _uni_divmod(a, b):
    """Quotient and remainder of Fraction dense views a by b over Q; the
    remainder is a, reduced in place, with its top entry nonzero."""
    db, lb = len(b) - 1, b[-1]
    quotient = [_ZERO] * max(len(a) - db, 0)
    while len(a) > db:
        f = a.pop() / lb
        off = len(a) - db
        quotient[off] = f
        for i in range(db):
            a[off + i] -= f * b[i]
        while a and not a[-1]:
            a.pop()
    return quotient, a


def _uni_gcd(a, b, var) -> Poly:
    """Euclidean gcd over Q of two Fraction dense views."""
    while b:
        a, b = b, _uni_divmod(a, b)[1]
    return _uni_join([c / a[-1] for c in a], var)


def _primitive(coeffs):
    """Content (monic, free of var) and primitive part of a dense view."""
    cont = Poly.zero()
    for c in coeffs:
        cont = poly_gcd(cont, c)
        if cont.is_const() and not cont.is_zero():
            return cont, coeffs
    return cont, [divexact(c, cont) for c in coeffs]


def _prem(a, b):
    """Pseudo-remainder of dense view a by dense view b."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    while len(r) > db:
        lr = r.pop()
        off = len(r) - db
        r = [lb * c for c in r]
        for i in range(db):
            r[off + i] = r[off + i] - lr * b[i]
        while r and r[-1].is_zero():
            r.pop()
    return r


_P = (1 << 61) - 1  # a Mersenne prime that fits a 64-bit word


def _point(v) -> int:
    """The fixed residue mod _P at which the certificate evaluates a_v."""
    return (v * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) % _P


def _image(p: Poly, var):
    """p mod _P as a polynomial in var, every other variable at its point:
    residues indexed by power up to deg_var(p), or None when a
    coefficient's denominator vanishes mod _P."""
    out = {}
    for m, c in p.terms.items():
        if c.denominator % _P == 0:
            return None
        r = c.numerator * pow(c.denominator, -1, _P) % _P
        e = 0
        for v, k in m:
            if v == var:
                e = k
            else:
                r = r * pow(_point(v), k, _P) % _P
        out[e] = (out.get(e, 0) + r) % _P
    return [out.get(e, 0) for e in range(max(out) + 1)]


def _mod_gcd_degree(a, b) -> int:
    """Degree of the gcd of two residue lists (top entries nonzero) mod _P."""
    while b:
        inv = pow(b[-1], -1, _P)
        db = len(b) - 1
        while len(a) > db:
            f = a.pop() * inv % _P
            off = len(a) - db
            for i in range(db):
                a[off + i] = (a[off + i] - f * b[i]) % _P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime(p: Poly, q: Poly) -> bool:
    """True only when gcd(p, q) = 1, shown by word-prime images (see the
    module docstring); the gcd has no variable that p or q lacks.  False
    means undecided: a denominator or both leading coefficients vanish
    mod _P, or the images share a root."""
    for x in p.variables() & q.variables():
        a, b = _image(p, x), _image(q, x)
        if a is None or b is None or not (a[-1] or b[-1]):
            return False
        while a and not a[-1]:
            a.pop()
        while b and not b[-1]:
            b.pop()
        if _mod_gcd_degree(a, b) != 0:
            return False
    return True


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q[a1, a2, ...]."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_const() or q.is_const() or _coprime(p, q):
        return Poly.one()
    vs = p.variables() | q.variables()
    var = min(vs)
    if len(vs) == 1:
        return _uni_gcd(_uni_dense(p), _uni_dense(q), var)
    a, b = dense(p, var), dense(q, var)
    ca, a = _primitive(a)
    cb, b = _primitive(b)
    cont = poly_gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return cont
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _prem(a, b)
        if not r:
            break  # b is primitive: a primitive part or remainder
        if len(r) == 1:
            return cont
        a, b = b, _primitive(r)[1]
    return (cont * _join(b, var)).monic()


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    g = poly_gcd(p, q)
    quotient = divexact(p, g)
    return (quotient * q).monic()


def divexact(p: Poly, q: Poly):
    """Exact quotient p / q, or None when q does not divide p.

    Long division on the dense views in q's least variable: each entry of
    the quotient is an exact quotient by q's top entry, which is free of
    that variable.  When q has one variable and p no other, the entries
    are Fractions.
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return Poly()
    if q.is_const():
        c = q.const_value()
        return p if c == 1 else p.scale(1 / c)  # a Poly is never mutated
    vs = q.variables()
    var = min(vs)
    if len(vs) == 1 and p.variables() <= vs:
        quotient, rest = _uni_divmod(_uni_dense(p), _uni_dense(q))
        return None if rest else _uni_join(quotient, var)
    a, b = dense(p, var), dense(q, var)
    db, lb = len(b) - 1, b[-1]
    quotient = []
    while len(a) > db:
        c = divexact(a.pop(), lb)
        if c is None:
            return None
        quotient.append(c)
        off = len(a) - db
        for i in range(db):
            a[off + i] = a[off + i] - c * b[i]
    if any(not c.is_zero() for c in a):
        return None
    return _join(quotient[::-1], var)


def _fraction_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def poly_sqrt(p: Poly):
    """Exact square root in Q[a1, ...] with positive leading coefficient,
    or None when p is not a perfect square."""
    if p.is_zero():
        return Poly()
    if p.is_const():
        r = _fraction_sqrt(p.const_value())
        return Poly.const(r) if r is not None else None
    var = min(p.variables())
    dec = dense(p, var)
    n = len(dec) - 1
    if n % 2:
        return None
    m = n // 2
    top = poly_sqrt(dec[n])
    if top is None:
        return None
    r = [None] * m + [top]
    two_top = top.scale(2)
    for k in range(m - 1, -1, -1):
        acc = dec[m + k]
        for i in range(k + 1, m):
            j = m + k - i
            if j < i:
                continue
            prod = r[i] * r[j]
            acc = acc - (prod.scale(2) if i != j else prod)
        rk = divexact(acc, two_top)
        if rk is None:
            return None
        r[k] = rk
    root = _join(r, var)
    if root * root != p:
        return None
    if root.leading_coeff() < 0:
        root = -root
    return root
