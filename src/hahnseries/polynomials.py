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
order of terms.  Algorithms that treat a polynomial as univariate in
one variable work on its dense view: ``dense(p, var)`` lists its
coefficients (polynomials in the other variables) by power, and
``_join`` is its inverse.  Most gcds the coefficient field asks for are
1.  Gcd first tries a coprimality certificate, the first step of
Brown's modular gcd (J. ACM 18, 1971): for each variable x of both
inputs, the other variables go to fixed points (``modular``) mod the prime
2^61 - 1, and a univariate gcd of degree 0 of the integer parts' images
shows that x does not occur in the gcd.  This is sound: by Gauss's
lemma the gcd h divides both integer parts in Z[a1, ...], so its image
divides both images; and lc_x(h) divides lc_x of each input, so the
image of h keeps its degree in x when either input's leading
coefficient survives the evaluation.  A nontrivial gcd in one variable
is Euclid's on integers (a primitive PRS).  In more variables it is the
heuristic gcd GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 7, 1989)
on the integer parts, after their monomial contents: the least variable
goes to an integer xi, the gcd of the images recurses down to an
integer gcd, and the candidate h is rebuilt from symmetric xi-adic
digits.  It is accepted only when h divides both parts f and g and the
certificate above proves f/h and g/h coprime, for then
gcd(f, g) = h*gcd(f/h, g/h) = h, whatever xi was.  Otherwise xi grows
(by sympy's rule) for a few tries, and then a primitive pseudo-remainder
sequence (PRS) on dense views gives the answer.  Exact division is long
division on the integer parts, whose quotient is integral when it exists
(Gauss's lemma): in the least variable, each entry of the quotient is an
exact quotient by the divisor's top entry, so it stops at the first one
that does not divide.  Perfect-square detection supports quadratic
initial forms.
"""

from __future__ import annotations

from fractions import Fraction
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
        return {v for m in self.z for v, _ in m}

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
        out = {}
        get = out.get
        for m1, v1 in z1.items():
            for m2, v2 in z2.items():
                m = mono_mul(m1, m2)
                s = get(m, 0) + v1 * v2
                if s:
                    out[m] = s
                else:
                    del out[m]
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


def dense(p: Poly, var):
    """p as a polynomial in var: its coefficients (polynomials in the other
    variables) indexed by power, with the top entry nonzero; [] for 0."""
    n, d = p.c.numerator, p.c.denominator
    return [from_ints(n, d, b) for b in _buckets(p.z, var)]


def _join(coeffs, var) -> Poly:
    """Inverse of dense: the polynomial sum of coeffs[e] * var^e.  With g
    the rational gcd of the contents, the integers k_e = c_e / g have gcd
    1, so the integer parts k_e * z_e join into a primitive one."""
    live = [(e, c) for e, c in enumerate(coeffs) if c.z]
    n = gcd(*(c.c.numerator for _, c in live))
    d = lcm(*(c.c.denominator for _, c in live))
    out = {}
    for e, c in live:
        k = c.c.numerator // n * (d // c.c.denominator)
        x = ((var, e),) if e else ()
        for m, v in c.z.items():
            out[mono_mul(m, x)] = k * v
    return from_ints(n, d, out)


def _uni_dense(z):
    """An integer part in at most one variable, as a list of ints indexed
    by power."""
    out = [0] * (max(m[0][1] if m else 0 for m in z) + 1)
    for m, v in z.items():
        out[m[0][1] if m else 0] = v
    return out


def _uni_gcd(a, b, var) -> Poly:
    """Monic gcd of two primitive int dense views by the primitive PRS:
    a, b <- b, pp(prem(a, b)), where each step scales the remainder by
    lc(b)/g and its top entry by 1/g, g their gcd."""
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
    return from_ints(1, a[-1], {((var, e),) if e else (): v for e, v in enumerate(a) if v})


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


def _image(p: Poly, var, powers):
    """p's integer part mod P as a polynomial in var, every other
    variable at its fixed point: residues indexed by power up to deg_var(p)."""
    return [value(b, powers) for b in _buckets(p.z, var)]


def _coprime(p: Poly, q: Poly) -> bool:
    """True only when gcd(p, q) = 1, shown by word-prime images (see the
    module docstring); the gcd has no variable that p or q lacks.  False
    means undecided: both leading coefficients vanish mod P, or the
    images share a root."""
    powers = Powers()
    for x in p.variables() & q.variables():
        a, b = _image(p, x, powers), _image(q, x, powers)
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
    if p.is_const() or q.is_const() or _coprime(p, q):
        return Poly.one()
    vs = p.variables() | q.variables()
    var = min(vs)
    if len(vs) == 1:
        return _uni_gcd(_uni_dense(p.z), _uni_dense(q.z), var)
    h = _heu_gcd(p.z, q.z)
    return _prs_gcd(p, q, var) if h is None else h


def _heu_gcd(f, g):
    """Monic gcd of the integer parts f and g by the heuristic gcd (see
    the module docstring), or None when it gives up.  The monomial
    contents come out first: f = m_f*f0 and g = m_g*g0 with f0, g0 free of
    monomial factors, so gcd(f, g) = gcd(m_f, m_g)*gcd(f0, g0)."""
    f, mf = _monomial_content(f)
    g, mg = _monomial_content(g)
    h = _UNIT if len(f) == 1 or len(g) == 1 else _heu(f, g, True)
    if h is None:
        return None
    common = tuple((v, min(e, mg[v])) for v, e in mf.items() if v in mg)
    if common:
        h = {mono_mul(m, common): v for m, v in h.items()}
    return from_ints(1, 1, h).monic()


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
            k = gcd(*h.values())
            if k != 1:
                h = {m: v // k for m, v in h.items()}
            qf = _zdiv(f, h)
            qg = None if qf is None else _zdiv(g, h)
            if qg is not None and (not certify or _coprime(_new(_ONE, qf), _new(_ONE, qg))):
                return {m: v * c for m, v in h.items()} if c != 1 else h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _prs_gcd(p: Poly, q: Poly, var) -> Poly:
    """Monic gcd by the primitive PRS in var over the contents' gcd: the
    fallback when the heuristic gives up."""
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
            t = aa[off + i]
            for m1, v1 in f.items():
                for m2, v2 in bb[i].items():
                    m = mono_mul(m1, m2)
                    s = t.get(m, 0) - v1 * v2
                    if s:
                        t[m] = s
                    else:
                        del t[m]
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
    or None when p is not a perfect square."""
    if p.is_zero():
        return Poly()
    if p.is_const():
        n, d = p.c.numerator, p.c.denominator
        rn, rd = isqrt(max(n, 0)), isqrt(d)
        return Poly.const(Fraction(rn, rd)) if rn * rn == n and rd * rd == d else None
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
            rij = r[i] * r[j]
            acc = acc - (rij.scale(2) if i != j else rij)
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
