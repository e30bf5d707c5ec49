"""Sparse multivariate polynomials over exact rationals.

Support layer for the rational-function coefficient field.  Monomials
are stored sparsely as tuples of (variable index, power) pairs with
ascending indices; the empty tuple is 1.  The term order is graded lex
throughout, which fixes leading coefficients and hence the canonical
form of fractions.  Gcd uses content/primitive-part recursion with a
primitive pseudo-remainder sequence (plain Euclid in the univariate
case); exact division and perfect-square detection support place
specialization and quadratic initial forms.
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


def mono_divides(a, b) -> bool:
    """Does monomial a divide monomial b?"""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def mono_div(b, a):
    """b / a, assuming a divides b."""
    da = dict(a)
    out = []
    for v, e in b:
        r = e - da.get(v, 0)
        if r:
            out.append((v, r))
    return tuple(out)


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
    def variable(cls, j, power=1):
        if j < 1:
            raise ValueError("variable indices start at 1")
        if power == 0:
            return cls.one()
        return cls({((j, power),): _ONE})

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
        return Poly({m: c * q for m, c in self.terms.items()})

    def mul_mono(self, mono, coeff) -> "Poly":
        if not coeff:
            return Poly()
        return Poly({mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

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

    def deg_in(self, var) -> int:
        d = 0
        for m in self.terms:
            for v, e in m:
                if v == var and e > d:
                    d = e
        return d

    def decompose(self, var):
        """View as univariate in var: power -> Poly in the other variables."""
        out = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for v, p in m:
                if v == var:
                    e = p
                else:
                    rest.append((v, p))
            bucket = out.setdefault(e, {})
            rest = tuple(rest)
            s = bucket.get(rest, _ZERO) + c
            if s:
                bucket[rest] = s
            else:
                bucket.pop(rest, None)
        return {e: Poly(b) for e, b in out.items() if b}

    def coeff_in(self, var, power) -> "Poly":
        return self.decompose(var).get(power, Poly())

    def subs_var(self, var, q) -> "Poly":
        """Substitute a rational for one variable."""
        q = q if isinstance(q, Fraction) else Fraction(q)
        out = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for v, p in m:
                if v == var:
                    e = p
                else:
                    rest.append((v, p))
            c = c * q**e
            rest = tuple(rest)
            s = out.get(rest, _ZERO) + c
            if s:
                out[rest] = s
            else:
                out.pop(rest, None)
        return Poly(out)

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


def _uni_gcd(p: Poly, q: Poly, var) -> Poly:
    """Euclidean gcd for univariate polynomials over Q."""

    def to_list(f):
        d = f.decompose(var)
        n = max(d, default=0)
        return [d.get(i, Poly()).const_value() for i in range(n + 1)]

    a, b = to_list(p), to_list(q)

    def trim(x):
        while x and not x[-1]:
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while b:
        # a mod b
        r = a[:]
        db, lb = len(b) - 1, b[-1]
        while len(r) - 1 >= db and any(r):
            if not r[-1]:
                r.pop()
                continue
            f = r[-1] / lb
            off = len(r) - 1 - db
            for i in range(db + 1):
                r[off + i] -= f * b[i]
            r.pop()
        a, b = b, trim(r)
    lc = a[-1]
    return Poly({(((var, i),) if i else ()): c / lc for i, c in enumerate(a) if c})


def _content_primitive(p: Poly, var):
    """p = content * primitive, content free of var, primitive monic-content."""
    dec = p.decompose(var)
    cont = Poly.zero()
    for coeff in dec.values():
        cont = poly_gcd(cont, coeff)
        if cont.is_const() and cont.const_value() == 1:
            break
    prim = divexact(p, cont)
    assert prim is not None
    return cont, prim


def _prem(a: Poly, b: Poly, var) -> Poly:
    """Pseudo-remainder of a by b with respect to var."""
    db = b.deg_in(var)
    lb = b.coeff_in(var, db)
    r = a
    while not r.is_zero():
        dr = r.deg_in(var)
        if dr < db:
            break
        lr = r.coeff_in(var, dr)
        shift = Poly.variable(var, dr - db) if dr > db else Poly.one()
        r = lb * r - lr * shift * b
    return r


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q[a1, a2, ...]."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_const() or q.is_const():
        return Poly.one()
    vs = p.variables() | q.variables()
    if len(vs) == 1:
        return _uni_gcd(p, q, next(iter(vs)))
    var = min(vs)
    cp, pp = _content_primitive(p, var)
    cq, pq = _content_primitive(q, var)
    cont = poly_gcd(cp, cq)
    if pp.deg_in(var) == 0 or pq.deg_in(var) == 0:
        return cont.monic()
    a, b = (pp, pq) if pp.deg_in(var) >= pq.deg_in(var) else (pq, pp)
    while True:
        r = _prem(a, b, var)
        if r.is_zero():
            g = b  # already primitive: pp, pq or a primitive remainder
            break
        if r.deg_in(var) == 0:
            g = Poly.one()
            break
        a, b = b, _content_primitive(r, var)[1]
    return (cont * g).monic()


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    g = poly_gcd(p, q)
    quotient = divexact(p, g)
    return (quotient * q).monic()


def divexact(p: Poly, q: Poly):
    """Exact quotient p / q, or None when q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return Poly()
    if q.is_const():
        return p.scale(1 / q.const_value())
    lm_q = q.leading_mono()
    lc_q = q.terms[lm_q]
    out = {}
    r = p
    while not r.is_zero():
        lm_r = r.leading_mono()
        if not mono_divides(lm_q, lm_r):
            return None
        m = mono_div(lm_r, lm_q)
        c = r.terms[lm_r] / lc_q
        out[m] = c
        r = r - q.mul_mono(m, c)
    return Poly(out)


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
    dec = p.decompose(var)
    n = max(dec)
    if n % 2:
        return None
    m = n // 2
    top = poly_sqrt(dec[n])
    if top is None:
        return None
    r = {m: top}
    two_top = top.scale(2)
    for k in range(m - 1, -1, -1):
        acc = dec.get(m + k, Poly())
        for i in range(k + 1, m):
            j = m + k - i
            if j < i or j >= m:
                continue
            prod = r[i] * r[j]
            acc = acc - (prod.scale(2) if i != j else prod)
        rk = divexact(acc, two_top)
        if rk is None:
            return None
        r[k] = rk
    root = Poly()
    for e, coeff in r.items():
        root = root + coeff.mul_mono(((var, e),) if e else (), _ONE)
    if root * root != p:
        return None
    if root.leading_coeff() < 0:
        root = -root
    return root
