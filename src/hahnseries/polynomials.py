"""Sparse multivariate polynomials over exact rationals.

Support layer for the rational-function coefficient field.  Monomials
are tuples of (variable index, power) pairs with ascending indices; the
empty tuple is 1.  A polynomial is a rational content c times a
primitive integer part z = {monomial: int}, whose values have gcd 1 and
whose value at min(z), the least monomial in plain tuple order, is
positive.  The form is unique; zero is (0, {}) and a constant q is
(q, {(): 1}).  By Gauss's lemma a product of primitive polynomials is
primitive, so a product is c1*c2 times the integer convolution z1*z2
with only its sign to fix; scaling, negation and monic change c alone,
and a sum takes one integer gcd.  The graded lex order fixes leading
coefficients, hence the canonical form of fractions, and the printed
order of terms.  Every algorithm below runs on integer parts; one that
treats a polynomial as univariate in a variable x works on its buckets,
integer dicts free of x indexed by power.

A gcd runs on the integer parts, and its answer is wrapped once.  Most
gcds the coefficient field asks for are 1.  The first step is a
coprimality certificate, the first step of Brown's modular gcd (J. ACM
18, 1971): for each variable x of both inputs, the other variables go to
fixed points (``modular``) mod the prime 2^61 - 1, and a univariate gcd
of degree 0 of the images shows that x does not occur in the gcd.  This
is sound: by Gauss's lemma the gcd h divides both integer parts in
Z[a1, ...], so its image divides both images; and lc_x(h) divides lc_x
of each input, so the image of h keeps its degree in x when either
input's leading coefficient survives the evaluation.  A nontrivial gcd
in one variable is Euclid's on integers (a primitive PRS).  In more
variables the monomial contents come out first, and then the heuristic
gcd GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 7, 1989) runs: the
least variable goes to an integer xi, the gcd of the images recurses
down to an integer gcd, and the candidate h is rebuilt from symmetric
xi-adic digits.  It is accepted only when h divides both parts f and g
and the certificate above proves f/h and g/h coprime, for then
gcd(f, g) = h*gcd(f/h, g/h) = h, whatever xi was.  Otherwise xi grows
(by sympy's rule) for a few tries, and then a primitive
pseudo-remainder sequence (PRS) on buckets in the least variable gives
the answer; the content of a bucket list, the gcd of its entries with
their integer gcd included, is a gcd in fewer variables by the same
order.  Exact division is long division on the integer parts, whose
quotient is integral when it exists (Gauss's lemma): in the least
variable, each entry of the quotient is an exact quotient by the
divisor's top entry, so it stops at the first one that does not divide.

A square root r = c_r*z_r of p (for quadratic initial forms) has
p.c = s*c_r^2 and p.z = s*z_r^2 for one sign s, since z_r^2 is primitive
but its value at min may be negative: (a1 - a2)^2 has content -1.  The
integer part's root is rebuilt from the symmetric xi-adic digits of the
root of z(xi), found the same way, where z = s*p.z, x is its least
variable, xi = 2*isqrt(|z|_1) + 2 and |z|_1 is the sum of the absolute
values of z's coefficients.  Every coefficient of z_r lies below xi/2 in
absolute value: by Parseval on the unit torus,
max|coeff| <= |z_r|_2 = (mean of |z| over the torus)^(1/2) <= |z|_1^(1/2),
so the digits give back +-z_r exactly when z is a square.  A candidate
that does not square back to z thus proves that z is no square, and no
fallback is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

from .modular import Powers, gcd_degree, value

_ZERO = Fraction(0)
_ONE = Fraction(1)  # a content of 1 built here is this object; __mul__ tests identity
_UNIT = {(): 1}  # the integer part of every constant built here; never mutated


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


def _new(c, z) -> "Poly":
    """The polynomial c*z for a canonical pair; nothing is checked."""
    p = object.__new__(Poly)
    p.c = c
    p.z = z
    return p


def from_ints(n, d, z) -> "Poly":
    """The polynomial (n/d)*z, for an integer dict z with no zero values,
    in canonical form: the gcd of z's values moves into the content, and
    the value at min(z) becomes positive."""
    if not z:
        return _POLY_ZERO
    g = gcd(*z.values())
    if z[min(z)] < 0:
        g = -g
    if g != 1:
        z = {m: v // g for m, v in z.items()}
    n *= g
    return _new(_ONE if n == d else Fraction(n, d), z)


class Poly:
    """Sparse polynomial in variables a1, a2, ... over Q: the content c
    (a Fraction) times the primitive integer part z (see the module
    docstring).  A Poly is never mutated."""

    __slots__ = ("c", "z")

    def __init__(self, terms=None):
        terms = {m: q for m, q in dict(terms).items() if q} if terms else {}
        d = lcm(*(q.denominator for q in terms.values()))
        p = from_ints(1, d, {m: q.numerator * (d // q.denominator) for m, q in terms.items()})
        self.c, self.z = p.c, p.z

    @property
    def terms(self):
        """{monomial: Fraction}, built on each read (printing and tests)."""
        c = self.c
        return {m: c * v for m, v in self.z.items()}

    @classmethod
    def zero(cls):
        return _POLY_ZERO

    @classmethod
    def one(cls):
        return _POLY_ONE

    @classmethod
    def const(cls, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        return _new(q, _UNIT) if q else _POLY_ZERO

    @classmethod
    def variable(cls, j):
        if j < 1:
            raise ValueError("variable indices start at 1")
        return _new(_ONE, {((j, 1),): 1})

    def is_zero(self) -> bool:
        return not self.z

    def is_const(self) -> bool:
        return not self.z or (len(self.z) == 1 and () in self.z)

    def const_value(self) -> Fraction:
        if self.is_const():
            return self.c
        raise ValueError("not a constant polynomial")

    def variables(self):
        return _variables(self.z)

    def leading_mono(self):
        return max(self.z, key=grlex_key)

    def leading_coeff(self) -> Fraction:
        return self.c * self.z[self.leading_mono()] if self.z else _ZERO

    def monic(self) -> "Poly":
        if not self.z:
            return self
        lc = self.z[self.leading_mono()]
        return _new(_ONE if lc == 1 else Fraction(1, lc), self.z)

    def scale(self, q) -> "Poly":
        q = q if isinstance(q, Fraction) else Fraction(q)
        if not q:
            return Poly.zero()
        if q == 1:
            return self
        return _new(self.c * q, self.z)

    def __add__(self, other):
        return _sum(self, other, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __neg__(self):
        return _new(-self.c, self.z)

    def __mul__(self, other):
        z1, z2 = self.z, other.z
        if not z1 or not z2:
            return Poly.zero()
        c1, c2 = self.c, other.c
        c = c2 if c1 is _ONE else c1 if c2 is _ONE else c1 * c2
        if len(z2) == 1 and () in z2:
            return _new(c, z1)
        if len(z1) == 1 and () in z1:
            return _new(c, z2)
        out = _zmul(z1, z2)
        # primitive by Gauss's lemma; the sign rule is not multiplicative
        if out[min(out)] < 0:
            return _new(-c, {m: -v for m, v in out.items()})
        return _new(c, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def subs_var(self, var, q) -> "Poly":
        """Substitute a rational n/d for one variable: with D = deg_var,
        d^D * z(n/d) = sum_e z_e * n^e * d^(D-e) is a sum of integers."""
        if not self.z:
            return self
        q = q if isinstance(q, Fraction) else Fraction(q)
        n, d = q.numerator, q.denominator
        cols = _buckets(self.z, var)
        scale = d ** (len(cols) - 1)
        return from_ints(self.c.numerator, self.c.denominator * scale, _at(cols, n, d))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.z == other.z and self.c == other.c

    def __hash__(self):
        return hash((self.c, frozenset(self.z.items())))

    def __str__(self):
        out = ""
        for m in sorted(self.z, key=grlex_key, reverse=True):
            q = self.c * self.z[m]
            body = "*".join(f"a{v}^{e}" if e > 1 else f"a{v}" for v, e in m)
            s = f"{abs(q)}*{body}" if body and abs(q) != 1 else body or str(abs(q))
            out += (f" {'-' if q < 0 else '+'} " if out else "-" if q < 0 else "") + s
        return out or "0"

    def __repr__(self):
        return f"Poly({self})"


# Poly.zero() and Poly.one(): a Poly is never mutated, so one of each serves
_POLY_ZERO = _new(_ZERO, {})
_POLY_ONE = _new(_ONE, _UNIT)


def _sum(p: Poly, q: Poly, sign) -> Poly:
    """p + sign*q on the integer parts: with g the rational gcd of the two
    contents, p + sign*q = g*(k1*z1 + k2*z2) for integers k1, k2."""
    if not q.z:
        return p
    if not p.z:
        return q if sign > 0 else -q
    n1, d1 = p.c.numerator, p.c.denominator
    n2, d2 = q.c.numerator, q.c.denominator
    gn, gd = gcd(n1, n2), gcd(d1, d2)
    k1, k2 = n1 // gn * (d2 // gd), sign * n2 // gn * (d1 // gd)
    out = dict(p.z) if k1 == 1 else {m: k1 * v for m, v in p.z.items()}
    get = out.get
    for m, v in q.z.items():
        s = get(m, 0) + k2 * v
        if s:
            out[m] = s
        else:
            del out[m]
    return from_ints(gn, d1 // gd * d2, out)


def _variables(z):
    return {v for m in z for v, _ in m}


def _zmul(z1, z2, out=None, k=1):
    """out + k*z1*z2 for integer dicts, accumulated in out (a new dict
    when out is None)."""
    if out is None:
        out = {}
    get = out.get
    for m1, v1 in z1.items():
        v1 *= k
        for m2, v2 in z2.items():
            m = mono_mul(m1, m2)
            s = get(m, 0) + v1 * v2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _buckets(z, var):
    """The integer part z as a polynomial in var: {rest of the monomial:
    int} indexed by power, with the top entry nonempty."""
    buckets = []
    for m, c in z.items():
        e, rest = 0, m
        for i, (v, k) in enumerate(m):
            if v == var:
                e, rest = k, m[:i] + m[i + 1 :]
                break
        while len(buckets) <= e:
            buckets.append({})
        buckets[e][rest] = c
    return buckets


def _at(cols, n, d=1):
    """The integer dict sum_e cols[e] * n^e * d^(D-e), D = len(cols) - 1:
    d^D times the integer dict whose buckets these are, its variable at n/d."""
    top = len(cols) - 1
    out = {}
    for e, col in enumerate(cols):
        k = n**e * d ** (top - e)
        for m, v in col.items():
            out[m] = out.get(m, 0) + k * v
    return {m: v for m, v in out.items() if v}


def _uni_dense(z):
    """An integer part in at most one variable, as a list of ints indexed
    by power."""
    out = [0] * (max(m[0][1] if m else 0 for m in z) + 1)
    for m, v in z.items():
        out[m[0][1] if m else 0] = v
    return out


def _uni_gcd(a, b, var):
    """Gcd over Q, as an integer dict, of two int lists indexed by power
    by the primitive PRS: a, b <- b, pp(prem(a, b)), where each step
    scales the remainder by lc(b)/g and its top entry by 1/g, g their gcd."""
    while b:
        db, lb = len(b) - 1, b[-1]
        while len(a) > db:
            lr = a.pop()
            g = gcd(lr, lb)
            f, s = lb // g, lr // g
            off = len(a) - db
            if f != 1:
                a = [f * x for x in a]
            for i in range(db):
                a[off + i] -= s * b[i]
            while a and not a[-1]:
                a.pop()
        if a:
            g = gcd(*a)
            a = [x // g for x in a]
        a, b = b, a
    return {((var, e),) if e else (): v for e, v in enumerate(a) if v}


def _image(z, var, powers):
    """The integer dict z mod P as a polynomial in var, every other
    variable at its fixed point: residues indexed by power up to deg_var(z)."""
    return [value(b, powers) for b in _buckets(z, var)]


def _coprime(f, g) -> bool:
    """True only when the integer dicts f and g have no common factor of
    positive degree, shown by word-prime images (see the module
    docstring); the gcd has no variable that f or g lacks.  False means
    undecided: both leading coefficients vanish mod P, or the images
    share a root."""
    powers = Powers()
    for x in _variables(f) & _variables(g):
        a, b = _image(f, x, powers), _image(g, x, powers)
        if not (a[-1] or b[-1]):
            return False
        while a and not a[-1]:
            a.pop()
        while b and not b[-1]:
            b.pop()
        if gcd_degree(a, b) != 0:
            return False
    return True


HEU_TRIES = 6  # evaluation points per level of the heuristic gcd, as sympy's HEU_GCD_MAX


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q[a1, a2, ...]."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_const() or q.is_const():  # most calls: skip the integer path
        return Poly.one()
    h = _zgcd(p.z, q.z)
    if h is _UNIT:
        return Poly.one()
    return from_ints(1, h[max(h, key=grlex_key)], h)


def _zgcd(f, g):
    """A gcd over Q of the nonzero integer dicts f and g, as an integer
    dict whose integer content is left open, in the order of the module
    docstring; _UNIT when an input is constant or the certificate holds."""
    if len(f) == 1 and () in f or len(g) == 1 and () in g or _coprime(f, g):
        return _UNIT
    vs = _variables(f) | _variables(g)
    if len(vs) == 1:
        return _uni_gcd(_uni_dense(f), _uni_dense(g), min(vs))
    # f = m_f*f0 and g = m_g*g0 with f0, g0 free of monomial factors, so
    # gcd(f, g) = gcd(m_f, m_g)*gcd(f0, g0)
    f, mf = _monomial_content(f)
    g, mg = _monomial_content(g)
    h = _UNIT if len(f) == 1 or len(g) == 1 else _heu(f, g, True) or _prs_gcd(f, g)
    common = tuple((v, min(e, mg[v])) for v, e in mf.items() if v in mg)
    return {mono_mul(m, common): v for m, v in h.items()} if common else h


def _monomial_content(z):
    """z divided by its monomial content, and that content as {var: power}."""
    it = iter(z)
    low = dict(next(it))
    for m in it:
        if not low:
            return z, low
        d = dict(m)
        low = {v: min(e, d[v]) for v, e in low.items() if v in d}
    if not low:
        return z, low
    return {tuple((v, e - low.get(v, 0)) for v, e in m if e != low.get(v)): c for m, c in z.items()}, low


def _heu(f, g, certify=False):
    """GCDHEU on integer dicts: a gcd of f and g, or None.  The least
    variable x goes to xi, the images' gcd comes from the next level, and
    its symmetric xi-adic digits are the candidate's coefficients of
    powers of x.  A candidate is accepted when it divides f and g; at the
    top (certify) also only when _coprime proves the cofactors coprime."""
    if len(f) == 1 and () in f or len(g) == 1 and () in g:
        return {(): gcd(*f.values(), *g.values())}
    c = gcd(*f.values(), *g.values())
    if c != 1:
        f = {m: v // c for m, v in f.items()}
        g = {m: v // c for m, v in g.items()}
    x = min(m[0][0] for z in (f, g) for m in z if m)
    fs, gs = _buckets(f, x), _buckets(g, x)
    fn, gn = max(map(abs, f.values())), max(map(abs, g.values()))
    b = 2 * min(fn, gn) + 29
    lf, lg = abs(max(fs[-1].items())[1]), abs(max(gs[-1].items())[1])
    xi = max(min(b, 99 * isqrt(b)), 2 * min(fn // lf, gn // lg) + 4)
    for _ in range(HEU_TRIES):
        fx, gx = _at(fs, xi), _at(gs, xi)
        hx = _heu(fx, gx) if fx and gx else None
        if hx is not None:
            h = _digits(hx, x, xi)
            k = gcd(*h.values())
            if k != 1:
                h = {m: v // k for m, v in h.items()}
            qf = _zdiv(f, h)
            qg = None if qf is None else _zdiv(g, h)
            if qg is not None and (not certify or _coprime(qf, qg)):
                return {m: v * c for m, v in h.items()} if c != 1 else h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _digits(hx, x, xi):
    """The integer dict whose coefficients of x^e are the e-th symmetric
    xi-adic digits, in (-xi/2, xi/2], of hx's values; x is below every
    variable of hx."""
    h = {}
    for m, v in hx.items():
        e = 0
        while v:
            d = v % xi
            if d > xi // 2:
                d -= xi
            if d:
                h[((x, e),) + m if e else m] = d
            v = (v - d) // xi
            e += 1
    return h


def _prs_gcd(f, g):
    """A gcd over Q of the integer dicts f and g by the primitive PRS on
    buckets in their least variable x: the fallback when the heuristic
    gives up.  The gcd is the contents' gcd times the last nonzero
    remainder."""
    x = min(m[0][0] for z in (f, g) for m in z if m)
    a, b = _buckets(f, x), _buckets(g, x)
    (ca, a), (cb, b) = _content(a), _content(b)
    c = _zgcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return c
    if len(a) < len(b):
        a, b = b, a
    while True:
        db, lb = len(b) - 1, b[-1]
        while len(a) > db:  # a <- prem(a, b)
            la = a.pop()
            off = len(a) - db
            a = [_zmul(lb, e) for e in a]
            for i in range(db):
                _zmul(la, b[i], a[off + i], -1)
            while a and not a[-1]:
                a.pop()
        if not a:
            break  # b is primitive: a primitive part or remainder
        if len(a) == 1:
            return c
        a, b = b, _content(a)[1]
    return _zmul(c, {((x, e),) + m if e else m: v for e, entry in enumerate(b) for m, v in entry.items()})


def _content(entries):
    """The gcd c in Z[a1, ...] of integer dicts, not all empty (the gcd of
    all their values times the primitive part of their gcd over Q), and
    the dicts divided by c."""
    live = [e for e in entries if e]
    h = reduce(_zgcd, live)
    k, g = gcd(*(v for e in live for v in e.values())), gcd(*h.values())
    c = {m: v // g * k for m, v in h.items()}
    return c, [_zdiv(e, c) if e else e for e in entries]


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    return (divexact(p, poly_gcd(p, q)) * q).monic()


def divexact(p: Poly, q: Poly):
    """Exact quotient p / q, or None when q does not divide p.

    By Gauss's lemma q divides p over Q exactly when q's integer part
    divides p's over Z; that quotient, times p.c / q.c, is the answer.
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return Poly.zero()
    if q.is_const():
        return p if q.c == 1 else _new(p.c / q.c, p.z)  # a Poly is never mutated
    z = _zdiv(p.z, q.z)
    if z is None:
        return None
    c = p.c / q.c
    return from_ints(c.numerator, c.denominator, z)


def _zdiv(a, b):
    """The integer dict a / b when b divides a in Z[a1, ...], else None.

    Long division on buckets in the least variable x of a and b: each
    entry of the quotient is an exact quotient by b's top bucket, which is
    free of x.  In one variable it runs on lists of ints.
    """
    if len(b) == 1 and () in b:
        k = b[()]
        out = {}
        for m, v in a.items():
            f, rest = divmod(v, k)
            if rest:
                return None
            out[m] = f
        return out
    x = min(m[0][0] for z in (a, b) for m in z if m)
    if all(len(m) < 2 and (not m or m[0][0] == x) for z in (a, b) for m in z):
        return _uni_div(a, b, x)
    aa, bb = _buckets(a, x), _buckets(b, x)
    db, lb = len(bb) - 1, bb[-1]
    quotient = []
    while len(aa) > db:
        top = aa.pop()
        f = _zdiv(top, lb) if top else top
        if f is None:
            return None
        quotient.append(f)
        off = len(aa) - db
        for i in range(db):
            _zmul(f, bb[i], aa[off + i], -1)
    if any(aa):
        return None
    top = len(quotient) - 1
    return {((x, top - i),) + m if i < top else m: v for i, f in enumerate(quotient) for m, v in f.items()}


def _uni_div(a, b, x):
    """_zdiv for a and b in the one variable x, on lists of ints."""
    a, b = _uni_dense(a), _uni_dense(b)
    db, lb = len(b) - 1, b[-1]
    quotient = [0] * max(len(a) - db, 0)
    while len(a) > db:
        f, rest = divmod(a.pop(), lb)
        if rest:
            return None
        off = len(a) - db
        quotient[off] = f
        for i in range(db):
            a[off + i] -= f * b[i]
    if any(a):
        return None
    return {((x, e),) if e else (): v for e, v in enumerate(quotient) if v}


def poly_sqrt(p: Poly):
    """Exact square root in Q[a1, ...] with positive leading coefficient,
    or None when p is not a perfect square: the content's and the
    integer part's roots, under one sign (see the module docstring)."""
    if p.is_zero():
        return p
    n, d = p.c.numerator, p.c.denominator
    s = 1 if n > 0 else -1
    rn, rd = isqrt(s * n), isqrt(d)
    if rn * rn != s * n or rd * rd != d:
        return None
    r = _zsqrt(p.z if s > 0 else {m: -v for m, v in p.z.items()})
    if r is None:
        return None
    root = from_ints(rn, rd, r)
    return -root if root.leading_coeff() < 0 else root


def _zsqrt(z):
    """An integer dict r with r*r == z, or None when the integer dict z
    is no square: in its least variable x, the digits of the root of
    z(xi) at the bound xi of the module docstring."""
    if len(z) == 1 and () in z:
        v = z[()]
        r = isqrt(max(v, 0))
        return {(): r} if r * r == v else None
    x = min(m[0][0] for m in z if m)
    xi = 2 * isqrt(sum(map(abs, z.values()))) + 2
    zx = _at(_buckets(z, x), xi)
    rx = _zsqrt(zx) if zx else None
    if rx is None:
        return None
    r = _digits(rx, x, xi)
    return r if _zmul(r, r) == z else None
