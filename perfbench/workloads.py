"""The four seeded workloads: generators, library calls and oracles.

A workload is generated pass by pass.  ``generate(rng, seen)`` returns a
list of ``Job`` objects holding plain data only (Fractions, tuples and
``reference.RatFun``); ``prepare(job)`` turns that data into library
objects and returns the zero-argument call that is timed; ``check(job,
outcome, rng)`` runs outside the timed region and returns None when the
outcome is correct, else a message.  ``seen`` holds the data of every
job already generated in the run (as hashes, so it stays small), so no
input repeats within a run.

Every pass of a workload has the same composition (kinds and sizes);
only the random values change.  Jobs call the library through module
attributes, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hahnseries import analytic as A
from hahnseries import coeffs as C
from hahnseries import errors as E
from hahnseries import series as S
from hahnseries import valuation_spaces as V

import reference as R
from reference import RatFun, Series


@dataclass(frozen=True)
class Job:
    kind: str
    size: int
    spec: tuple
    expect: str | None = None  # name of the HahnSeriesError the job must raise


class Workload:
    """Base of the four workloads: checks deferred to the end of a run."""

    def finish(self):
        return []

    def gave_no_answer(self, job, outcome):
        """True when a job that should succeed raised instead: the
        operation failed.  Any other failed check is a wrong answer."""
        return job.expect is None and outcome[0] == "raised"

    @staticmethod
    def probe_key(job):
        """Jobs with equal keys take the same paths through the library;
        the traced run checks the bindings on one job per key."""
        return job.kind, job.size, job.expect


@dataclass(frozen=True)
class Spec:
    """A generated series: ((exponent tuple, coefficient), ...) and prec."""

    terms: tuple
    prec: tuple


# ---------------------------------------------------------------------------
# Shared helpers


def rq(rng, num=9, den=6) -> Fraction:
    """A random nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, num), rng.randint(1, den))


def dense(rng, n, start, d, prec=None, first=None) -> Spec:
    """n consecutive terms start + k/d on the 1/d grid, Q coefficients."""
    start = Fraction(start)
    terms = tuple(
        ((start + Fraction(k, d),), first if (k == 0 and first is not None) else rq(rng))
        for k in range(n)
    )
    return Spec(terms, (start + Fraction(n, d),) if prec is None else tuple(prec))


def lib_coeff(c):
    """The library's coefficient for generated data, built with its public
    field operations only, so a change of internal representation does
    not break the benchmark."""
    if isinstance(c, RatFun):
        return _lib_poly(c.num) / _lib_poly(c.den)
    return C.Coefficient.const(Fraction(c))


def _lib_poly(terms):
    total = C.Coefficient.zero()
    for q, mono in terms:
        term = C.Coefficient.const(Fraction(q))
        for j, e in enumerate(mono):
            if e:
                term = term * C.Coefficient.alpha(j + 1) ** e
        total = total + term
    return total


def lib_series(spec: Spec):
    return S.TruncatedSeries([(e, lib_coeff(c)) for e, c in spec.terms], spec.prec)


def lib_poly(specs):
    return S.SeriesPolynomial([lib_series(s) for s in specs])


def ref_spec(spec: Spec, point=None, strict=True) -> Series:
    """Reference value of a generated series (evaluated at point if given)."""
    if point is None:
        return R.make({e: Fraction(c) for e, c in spec.terms}, spec.prec)
    return R.spec_value(spec.terms, spec.prec, point, strict)


def ref_out(f, point=None, strict=True) -> Series:
    """Reference value of a library series, read through its public form.

    As for reference.spec_value, a coefficient vanishing at the point
    rejects the point, unless strict=False (then it is dropped).
    """
    if point is None:
        terms = {tuple(e.coords): c.as_fraction() for e, c in f.terms}
    else:
        terms = {tuple(e.coords): R.printed_value(str(c), point) for e, c in f.terms}
        if any(v == 0 for v in terms.values()):
            if strict:
                raise ZeroDivisionError("a coefficient vanishes at the point")
            terms = {e: v for e, v in terms.items() if v != 0}
    return Series(terms, tuple(f.prec.coords))


def diff(got: Series, want: Series, what="result"):
    """None when equal (terms and prec), else a short description."""
    if got.prec != want.prec:
        return f"{what}: prec {got.prec} != expected {want.prec}"
    if got.terms != want.terms:
        for e in sorted(set(got.terms) | set(want.terms)):
            if got.terms.get(e, 0) != want.terms.get(e, 0):
                return f"{what}: coefficient at {e} is {got.terms.get(e, 0)}, expected {want.terms.get(e, 0)}"
    return None


def expect_outcome(job, outcome):
    """Handle expected refusals; returns (done, message)."""
    status, value = outcome
    if job.expect is not None:
        if status == "raised" and isinstance(value, getattr(E, job.expect)):
            return True, None
        return True, f"expected {job.expect}, got {status} {value!r}"
    if status != "ok":
        return True, f"raised {value!r}"
    return False, None


def nonzero(c):
    return not (c.is_zero() if isinstance(c, RatFun) else c == 0)


def fresh(rng, seen, make, tries=50):
    """Call make(rng) until it returns data not generated before in the run."""
    for _ in range(tries):
        data = make(rng)
        try:
            key = hash(data)
        except TypeError:  # lists in CLI argvs
            key = hash(repr(data))
        if key not in seen:
            seen.add(key)
            return data
    raise RuntimeError("generator keeps repeating itself")


def random_point(rng):
    """A point (a1, a2, a3) of small rationals."""
    return tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(3))


def evaluate_checked(rng, fn, tries=8):
    """Run fn(point) at random points until none of its values has a pole."""
    last = None
    for _ in range(tries):
        try:
            return fn(random_point(rng))
        except ZeroDivisionError as err:
            last = err
    raise last


# ---------------------------------------------------------------------------
# rational-dense


class RationalDense(Workload):
    """Dense series over Q on a size ladder, mostly rank 1, with a rank-2 slice."""

    name = "rational-dense"
    LADDER = (4, 6, 8, 10, 12, 14, 16)
    LADDER_KINDS = ("mul", "inv", "exp", "log", "pow", "hensel")
    pass_seconds = 1.85
    warmup_jobs = 8

    @staticmethod
    def probe_key(job):
        # the sizes of a ladder differ only in length
        return job.kind, job.expect

    def generate(self, rng, seen):
        jobs = []
        for n in self.LADDER:
            for kind in self.LADDER_KINDS:
                spec = fresh(rng, seen, lambda r: getattr(self, "_" + kind)(r, n))
                jobs.append(Job(kind, n, spec))
        for dn, dd in ((1, 1), (2, 2), (3, 2)):
            spec = fresh(rng, seen, lambda r: self._ratrec(r, dn, dd))
            jobs.append(Job("ratrec", dn + dd, spec))
        for nterms in (2, 3, 4):
            spec = fresh(rng, seen, lambda r: self._puiseux(r, nterms))
            jobs.append(Job("puiseux", nterms, spec))
        for kind, maker, expect in (
            ("mul.rank2", self._mul2, None),
            ("exp.rank2", self._exp2_ok, None),
            ("inv.rank2", self._inv2_ok, None),
            ("log.rank2", self._log2_ok, None),
            ("exp.rank2", self._exp2_refuse, "PrecisionError"),
            ("inv.rank2", self._inv2_refuse, "PrecisionError"),
            ("log.rank2", self._log2_refuse, "PrecisionError"),
        ):
            jobs.append(Job(kind, 0, fresh(rng, seen, maker), expect))
        return jobs

    # -- generators (data only)

    # Supports are fixed per kind and only coefficients are random, so
    # every pass costs about the same.

    def _mul(self, rng, n):
        return (dense(rng, n, -1, 1), dense(rng, n, Fraction(1, 2), 2))

    def _inv(self, rng, n):
        return dense(rng, n, Fraction(1, 2), 2)

    def _exp(self, rng, n):
        return dense(rng, n, Fraction(1, 2), 2)

    def _unit(self, rng, n):
        return dense(rng, n, 0, 2, first=Fraction(1))

    def _log(self, rng, n):
        return self._unit(rng, n)

    def _pow(self, rng, n):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), 3)
        return (self._unit(rng, n), q)

    def _hensel(self, rng, n):
        # q = (y - s)(y - w) with s(0) != w(0): r = s(0) lifts to s mod t^P
        d = 2
        s = dense(rng, n, 0, d)
        w0 = rq(rng)
        while w0 == s.terms[0][1]:
            w0 = rq(rng)
        w = dense(rng, n, 0, d, first=w0)
        rs, rw = ref_spec(s), ref_spec(w)
        c0 = R.mul(rs, rw)
        c1 = R.neg(R.add(rs, rw))
        prec = s.prec
        coeffs = tuple(_spec_of(x) for x in (c0, c1, R.one(prec)))
        r = Spec((((Fraction(0),), s.terms[0][1]),), prec)
        return (coeffs, r, s)

    def _ratrec(self, rng, dn, dd):
        d = 2
        big = (Fraction(10 * (dn + dd + 4)),)
        num = R.make({(Fraction(k, d),): rq(rng) for k in range(dn + 1)}, big)
        den_terms = {(Fraction(k, d),): rq(rng) for k in range(1, dd + 1)}
        den_terms[(Fraction(0),)] = Fraction(1)
        den = R.make(den_terms, big)
        prec = (Fraction(dn + dd + 1 + rng.randint(1, 3), d),)
        f = R.mul(num, R.inv(den))
        f = R.make(f.terms, prec)
        return (_spec_of(f), dn, dd)

    def _puiseux(self, rng, nterms):
        # q = (y - s1)(y - s2) with distinct leading terms, exact to high order
        prec = (Fraction(4),)
        a1, a2 = Fraction(1, 2), Fraction(1)
        s1 = dense(rng, nterms, a1, 2, prec=prec)
        s2 = dense(rng, nterms, a2, 2, prec=prec)
        hi = (Fraction(4 * prec[0] + 4),)
        e1, e2 = (R.make(dict(s.terms), hi) for s in (s1, s2))
        c0 = R.mul(e1, e2)
        c1 = R.neg(R.add(e1, e2))
        coeffs = tuple(_spec_of(x) for x in (c0, c1, R.one(hi)))
        return (coeffs, prec, (s1, s2))

    def _rank2(self, rng, exps, prec, first=None):
        terms = tuple(
            (tuple(Fraction(x) for x in e), first if (i == 0 and first is not None) else rq(rng))
            for i, e in enumerate(exps)
        )
        return Spec(terms, tuple(Fraction(x) for x in prec))

    def _mul2(self, rng):
        pick = lambda: sorted(rng.sample([(0, 0), (0, 1), (0, 2), (1, -1), (1, 0), (1, 2), (2, -3)], 4))
        return (self._rank2(rng, pick(), (3, 0)), self._rank2(rng, pick(), (3, 0)))

    def _exp2_ok(self, rng):
        return self._rank2(rng, [(1, -1), (1, 0), (1, 2)], (3, 0))

    def _inv2_ok(self, rng):
        return self._rank2(rng, [(0, 0), (1, -1), (1, 0), (2, -3)], (3, 0))

    def _log2_ok(self, rng):
        return self._rank2(rng, [(0, 0), (1, -1), (1, 1)], (3, 0), first=Fraction(1))

    def _exp2_refuse(self, rng):
        return self._rank2(rng, [(0, 1), (1, 0)], (2, 0))

    def _inv2_refuse(self, rng):
        return self._rank2(rng, [(0, 0), (0, 1), (1, 0)], (1, 0))

    def _log2_refuse(self, rng):
        return self._rank2(rng, [(0, 0), (0, 1)], (1, 0), first=Fraction(1))

    # -- library calls

    def prepare(self, job):
        k, s = job.kind.split(".")[0], job.spec
        if k == "mul":
            f, g = lib_series(s[0]), lib_series(s[1])
            return lambda: f * g
        if k == "inv":
            f = lib_series(s)
            return lambda: f.inv()
        if k == "exp":
            f = lib_series(s)
            return lambda: A.exp(f)
        if k == "log":
            f = lib_series(s)
            if job.expect:
                return lambda: A.log(A.OneUnit(f))
            u = A.OneUnit(f)
            return lambda: A.log(u)
        if k == "pow":
            u, q = A.OneUnit(lib_series(s[0])), s[1]
            return lambda: A.unit_pow(u, q)
        if k == "hensel":
            q, r = lib_poly(s[0]), lib_series(s[1])
            return lambda: A.hensel_lift(q, r)
        if k == "ratrec":
            f, dn, dd = lib_series(s[0]), s[1], s[2]
            return lambda: A.rational_reconstruct(f, dn, dd)
        if k == "puiseux":
            q, prec = lib_poly(s[0]), s[1]
            return lambda: A.newton_puiseux(q, prec)
        raise ValueError(job.kind)

    # -- oracles

    def check(self, job, outcome, rng):
        done, msg = expect_outcome(job, outcome)
        if done:
            return msg
        out, k, s = outcome[1], job.kind.split(".")[0], job.spec
        if k == "mul":
            return diff(ref_out(out), R.mul(ref_spec(s[0]), ref_spec(s[1])))
        if k == "inv":
            return diff(ref_out(out), R.inv(ref_spec(s)))
        if k == "exp":
            return diff(ref_out(out.series), R.exp(ref_spec(s)))
        if k == "log":
            return diff(ref_out(out), R.log(ref_spec(s)))
        if k == "pow":
            return diff(ref_out(out.series), R.power(ref_spec(s[0]), s[1]))
        if k == "hensel":
            return check_root(out, s[0], s[2], None)
        if k == "ratrec":
            return check_ratrec(out, s[0], s[1], s[2])
        if k == "puiseux":
            return check_roots(out, s[0], s[1], s[2], None)
        raise ValueError(job.kind)


def _spec_of(x: Series) -> Spec:
    return Spec(tuple(sorted(x.terms.items())), x.prec)


def check_root(out, qspec, root, point):
    """A Hensel root: equals the planted root mod t^P and q(root) = 0."""
    want = ref_spec(root, point)
    msg = diff(ref_out(out, point), want, "root")
    if msg:
        return msg
    residual = R.eval_poly([ref_spec(c, point) for c in qspec], ref_out(out, point))
    if residual.terms:
        return f"q(root) has a term at {min(residual.terms)}"
    return None


def check_roots(out, qspec, prec, roots, point):
    """Puiseux roots: exactly the planted roots mod t^prec, each substituted back."""
    got = sorted(
        (tuple(sorted(ref_out(r, point).terms.items())), tuple(r.prec.coords)) for r in out
    )
    want = sorted(
        (tuple(sorted(ref_spec(Spec(s.terms, prec), point).terms.items())), prec) for s in roots
    )
    if got != want:
        return f"roots {got} != expected {want}"
    for r in out:
        residual = R.eval_poly([ref_spec(c, point) for c in qspec], ref_out(r, point))
        if residual.terms and min(residual.terms) < prec:
            return f"q(root) has a term at {min(residual.terms)}"
    return None


def check_ratrec(out, fspec, dn, dd):
    if out is None:
        return "no reconstruction found"
    num, den = (ref_out(x) for x in out)
    f = ref_spec(fspec)
    grid = R._grid([e[0] for e in f.terms] + [f.prec[0]])
    want_prec = (Fraction(max(dn, dd) + 1, grid),)
    if num.prec != want_prec or den.prec != want_prec:
        return f"prec {num.prec}/{den.prec} != expected {want_prec}"
    for part, deg in ((num, dn), (den, dd)):
        if any(e[0] * grid > deg or (e[0] * grid).denominator != 1 for e in part.terms):
            return f"support {sorted(part.terms)} exceeds degree {deg} on the 1/{grid} grid"
    if not den.terms or den.terms[min(den.terms)] != 1:
        return "denominator is not normalized"
    exact = lambda x: Series(x.terms, (f.prec[0] + 100,))
    residual = R.sub(R.mul(f, exact(den)), exact(num))
    if residual.terms:
        return f"f*den - num has a term at {min(residual.terms)}"
    return None


# ---------------------------------------------------------------------------
# symbolic-coeffs


def _mono(j, e=1):
    m = [0, 0, 0]
    m[j - 1] = e
    return tuple(m)


def ratio(i, j):
    """(a_i + k1) / (a_j - k2), i != j: a nontrivial denominator.

    The variables are fixed by the template and only the integers are
    random, so every pass costs about the same.
    """

    def make(rng) -> RatFun:
        k1, k2 = rng.randint(1, 5), rng.randint(1, 5)
        return RatFun(
            ((Fraction(1), _mono(i)), (Fraction(k1), (0, 0, 0))),
            ((Fraction(1), _mono(j)), (Fraction(-k2), (0, 0, 0))),
        )

    return make


def lin(i):
    return lambda rng: RatFun(((rq(rng, 5, 3), _mono(i)), (rq(rng, 5, 3), (0, 0, 0))))


def mono(i):
    return lambda rng: RatFun(((rq(rng, 5, 3), _mono(i)),))


def sym_series(pairs, prec) -> Spec:
    return Spec(tuple(((Fraction(e),), c) for e, c in pairs if nonzero(c)), (Fraction(prec),))


class SymbolicCoeffs(Workload):
    """Few terms, coefficients in Q(a1, a2, a3) with nontrivial denominators."""

    name = "symbolic-coeffs"
    pass_seconds = 0.27
    warmup_jobs = 8
    SYMPY_SHARE = 0.15

    def generate(self, rng, seen):
        jobs = []
        for kind, size, maker in self.TEMPLATES:
            jobs.append(Job(kind, size, fresh(rng, seen, maker)))
        return jobs

    # each template: (kind, precision, maker(rng) -> spec)
    TEMPLATES = (
        ("exp", 6, lambda r: sym_series([(1, ratio(1, 2)(r)), (3, mono(3)(r))], 6)),
        ("exp", 10, lambda r: sym_series([(2, ratio(2, 3)(r)), (3, lin(1)(r))], 10)),
        ("exp", 5, lambda r: sym_series([(1, mono(2)(r)), (2, ratio(3, 1)(r))], 5)),
        ("log", 8, lambda r: sym_series([(0, 1), (2, ratio(1, 3)(r)), (3, mono(2)(r))], 8)),
        ("log", 5, lambda r: sym_series([(0, 1), (1, ratio(2, 1)(r)), (2, lin(3)(r))], 5)),
        ("inv", 6, lambda r: sym_series([(0, 1), (1, ratio(3, 2)(r)), (3, mono(1)(r))], 6)),
        ("inv", 8, lambda r: sym_series([(0, lin(2)(r)), (2, mono(3)(r))], 8)),
        ("mul", 6, lambda r: (
            sym_series([(0, ratio(1, 2)(r)), (1, lin(3)(r)), (2, ratio(2, 3)(r)), (3, lin(1)(r))], 6),
            sym_series([(0, mono(2)(r)), (1, ratio(3, 1)(r)), (Fraction(5, 2), lin(2)(r)), (3, ratio(1, 3)(r))], 6),
        )),
        ("mul", 10, lambda r: (
            sym_series([(0, lin(1)(r)), (3, ratio(2, 1)(r)), (5, ratio(3, 2)(r))], 10),
            sym_series([(1, ratio(1, 3)(r)), (4, mono(2)(r))], 10),
        )),
        ("hensel", 4, lambda r: SymbolicCoeffs._hensel(r, 4, ratio(2, 3))),
        ("hensel", 6, lambda r: SymbolicCoeffs._hensel(r, 6, lin(1))),
        ("puiseux", 3, lambda r: SymbolicCoeffs._puiseux(r, 3)),
        ("puiseux", 4, lambda r: SymbolicCoeffs._puiseux(r, 4)),
        ("specialize", 6, lambda r: SymbolicCoeffs._specialize(r, 6, 1)),
        ("specialize", 10, lambda r: SymbolicCoeffs._specialize(r, 10, 2)),
    )

    @staticmethod
    def _hensel(rng, prec, c1):
        # q = y^2 + b y + c with q(1) = 0 mod t and q'(1) = 2 + b0 a unit
        b0 = rq(rng, 5, 2)
        while b0 == -2:
            b0 = rq(rng, 5, 2)
        b = sym_series([(0, b0), (1, mono(1)(rng))], prec)
        c = sym_series([(0, -(b0 + 1)), (1, c1(rng)), (2, mono(3)(rng))], prec)
        one = sym_series([(0, 1)], prec)
        return ((c, b, one), one)

    @staticmethod
    def _puiseux(rng, prec):
        # q = (y - s1)(y - s2), both of valuation 1: the initial form is
        # quadratic with a square discriminant, so poly_sqrt runs
        s1 = [(1, ratio(1, 2)(rng)), (2, mono(3)(rng))]
        s2 = [(1, mono(2)(rng)), (Fraction(3, 2), lin(1)(rng))]
        hi = 4 * prec
        c0 = {}
        for e1, x1 in s1:
            for e2, x2 in s2:
                e = Fraction(e1) + Fraction(e2)
                c0[e] = c0.get(e, 0) + x1 * x2
        c1 = {}
        for e, x in s1 + s2:
            c1[Fraction(e)] = c1.get(Fraction(e), 0) - x
        q = (
            sym_series(sorted(c0.items()), hi),
            sym_series(sorted(c1.items()), hi),
            sym_series([(0, 1)], hi),
        )
        return (q, (Fraction(prec),), (sym_series(s1, prec), sym_series(s2, prec)))

    @staticmethod
    def _specialize(rng, prec, var):
        makers = (ratio(1, 2), lin(3), mono(2), ratio(3, 1), lin(2), mono(1))
        f = sym_series([(Fraction(k, 2), makers[k % 6](rng)) for k in range(2 * prec)], prec)
        poles = {
            -c / den[0][0]
            for _, coeff in f.terms
            for den in [[t for t in coeff.den if t[1] == _mono(var)]]
            if den
            for c, m in coeff.den
            if m == (0, 0, 0)
        }
        q = rq(rng, 7, 3)
        while q in poles:
            q = rq(rng, 7, 3)
        return (f, var, q)

    def prepare(self, job):
        k, s = job.kind, job.spec
        if k == "exp":
            f = lib_series(s)
            return lambda: A.exp(f)
        if k == "log":
            u = A.OneUnit(lib_series(s))
            return lambda: A.log(u)
        if k == "inv":
            f = lib_series(s)
            return lambda: f.inv()
        if k == "mul":
            f, g = lib_series(s[0]), lib_series(s[1])
            return lambda: f * g
        if k == "hensel":
            q, r = lib_poly(s[0]), lib_series(s[1])
            return lambda: A.hensel_lift(q, r)
        if k == "puiseux":
            q, prec = lib_poly(s[0]), s[1]
            return lambda: A.newton_puiseux(q, prec)
        if k == "specialize":
            f, place = lib_series(s[0]), C.Place(s[1], s[2])
            return lambda: f.specialize(place)
        raise ValueError(k)

    def __init__(self):
        self.deferred = []

    def check(self, job, outcome, rng):
        done, msg = expect_outcome(job, outcome)
        if done:
            return msg
        out = outcome[1]
        msg = evaluate_checked(rng, lambda pt: self._check_at(job, out, pt))
        if msg is None and rng.random() < self.SYMPY_SHARE:
            # after the run, so importing sympy does not count in peak RSS
            self.deferred.append((job, out))
        return msg

    def finish(self):
        """(job, message) for the sympy checks deferred by check()."""
        done, self.deferred = self.deferred, []
        return [(job, sympy_check(job, out)) for job, out in done]

    def _check_at(self, job, out, pt):
        """Evaluation-homomorphism oracle: compare at a point of (a1, a2, a3)."""
        k, s = job.kind, job.spec
        if k == "exp":
            return diff(ref_out(out.series, pt), R.exp(ref_spec(s, pt)))
        if k == "log":
            return diff(ref_out(out, pt), R.log(ref_spec(s, pt)))
        if k == "inv":
            return diff(ref_out(out, pt), R.inv(ref_spec(s, pt)))
        if k == "mul":
            return diff(ref_out(out, pt), R.mul(ref_spec(s[0], pt), ref_spec(s[1], pt)))
        if k == "hensel":
            return check_hensel_unplanted(out, s[0], s[1], pt)
        if k == "puiseux":
            return check_roots(out, s[0], s[1], s[2], pt)
        if k == "specialize":
            f, var, q = s
            for _, c in out.terms:
                if var in R.printed_variables(str(c)):
                    return f"a{var} survives specialization in {c}"
            moved = tuple(q if i == var - 1 else x for i, x in enumerate(pt))
            return diff(ref_out(out, pt), ref_spec(f, moved, strict=False))
        raise ValueError(k)


def check_hensel_unplanted(out, qspec, rspec, pt):
    """Root of q near r: q(root) = 0 mod t^P and root = r below v(q(r))."""
    x, r = ref_out(out, pt), ref_spec(rspec, pt)
    if x.prec != r.prec:
        return f"root prec {x.prec} != expected {r.prec}"
    coeffs = [ref_spec(c, pt) for c in qspec]
    residual = R.eval_poly(coeffs, x)
    if residual.terms:
        return f"q(root) has a term at {min(residual.terms)}"
    start = R.eval_poly(coeffs, r)
    v0 = min(start.terms) if start.terms else start.prec
    low = lambda z: {e: c for e, c in z.terms.items() if e < v0}
    if low(x) != low(r):
        return "root does not lift the given approximation"
    return None


# -- sympy oracle (seeded subsample of symbolic jobs)

_SYMPY = {}


def _sympy_field():
    if not _SYMPY:
        import sympy

        syms = sympy.symbols("a1:4")
        _SYMPY.update(
            sympy=sympy,
            syms=syms,
            K=sympy.QQ.frac_field(*syms),
            locals={str(s): s for s in syms},
        )
    return _SYMPY


def _sympy_of_printed(text):
    f = _sympy_field()
    return f["sympy"].sympify(text.replace("^", "**"), locals=f["locals"])


def _canonical_problem(c):
    """Printed coefficients must be reduced: gcd(num, den) = 1."""
    sp = _sympy_field()["sympy"]
    num, den = sp.fraction(_sympy_of_printed(str(c)))
    if not sp.gcd(num, den).is_number:
        return f"coefficient {c} is not in lowest terms"
    return None


def _k_spec(spec: Spec, K):
    syms = _sympy_field()["syms"]
    terms = {}
    for e, c in spec.terms:
        value = K.from_sympy(c.to_sympy(syms)) if isinstance(c, RatFun) else K(Fraction(c).numerator) / K(Fraction(c).denominator)
        terms[e] = terms.get(e, K.zero) + value
    return R.make(terms, spec.prec)


def _k_out(f, K):
    for _, c in f.terms:
        msg = _canonical_problem(c)
        if msg:
            raise ValueError(msg)
    return Series(
        {tuple(e.coords): K.from_sympy(_sympy_of_printed(str(c))) for e, c in f.terms},
        tuple(f.prec.coords),
    )


def sympy_check(job, out):
    """Exact comparison in sympy's field Q(a1, a2, a3), plus lowest terms."""
    K = _sympy_field()["K"]
    k, s = job.kind, job.spec
    try:
        if k == "exp":
            return diff(_k_out(out.series, K), R.exp(_k_spec(s, K), unit=K.one), "sympy")
        if k == "log":
            return diff(_k_out(out, K), R.log(_k_spec(s, K)), "sympy")
        if k == "inv":
            return diff(_k_out(out, K), R.inv(_k_spec(s, K)), "sympy")
        if k == "mul":
            return diff(_k_out(out, K), R.mul(_k_spec(s[0], K), _k_spec(s[1], K)), "sympy")
        if k == "hensel":
            residual = R.eval_poly([_k_spec(c, K) for c in s[0]], _k_out(out, K))
            return f"sympy: q(root) has a term at {min(residual.terms)}" if residual.terms else None
        if k == "puiseux":
            got = sorted(repr(sorted(_k_out(r, K).terms.items())) for r in out)
            want = sorted(repr(sorted(_k_spec(Spec(x.terms, s[1]), K).terms.items())) for x in s[2])
            return None if got == want else "sympy: roots differ"
        if k == "specialize":
            f, var, q = s
            sp = _sympy_field()["sympy"]
            sym = _sympy_field()["syms"][var - 1]
            want = {
                e: K.from_sympy(sp.cancel(c.to_sympy(_sympy_field()["syms"]).subs(sym, sp.Rational(q.numerator, q.denominator))))
                if isinstance(c, RatFun) else K(c)
                for e, c in f.terms
            }
            return diff(_k_out(out, K), R.make(want, f.prec), "sympy")
    except ValueError as err:
        return str(err)
    raise ValueError(k)


# ---------------------------------------------------------------------------
# valuation-bases


def rf_var(j, e=1) -> RatFun:
    return RatFun(((Fraction(1), _mono(j, e)),))


def rf_pole(j, k) -> RatFun:
    """1 / (a_j - k)."""
    return RatFun(((Fraction(1), (0, 0, 0)),), ((Fraction(1), _mono(j)), (Fraction(-k), (0, 0, 0))))


# Structures (which variables, which poles, which exponents) are fixed by
# position and only the rational constants are random, so every pass
# costs about the same.


def independent_coeffs(rng, scalars, k, offset=0):
    """k coefficients, independent over Q (scalars == ()) or over Q(a1)."""
    if not scalars:
        pool = [Fraction(1), rf_var(1), rf_var(2), rf_var(1) * rf_var(2), rf_var(1, 2),
                rf_pole(1, 2), rf_var(2) * rf_pole(1, 3)]
        return [rq(rng, 5, 3) * pool[(offset + i) % len(pool)] for i in range(k)]
    pool = [Fraction(1), rf_var(2), rf_var(2, 2), rf_var(2, 3), rf_pole(2, 2)]
    factors = [RatFun(((Fraction(1), _mono(1)), (Fraction(rng.randint(1, 4)), (0, 0, 0)))),
               rf_pole(1, rng.randint(1, 4)), Fraction(rng.randint(1, 4))]
    return [factors[(offset + i) % 3] * pool[(offset + i) % len(pool)] for i in range(k)]


def scalar_of(rng, scalars, i=0):
    if not scalars or i % 2 == 0:
        return rq(rng, 5, 3)
    return rq(rng, 3, 2) * rf_var(1) + rng.randint(1, 3)


def family(rng, values, leads, prec, scalars, tail=2):
    """One series per (value, leading coefficient), with tails above it."""
    out = []
    for i, (v, c) in enumerate(zip(values, leads)):
        terms = [((Fraction(v),), c)]
        later = [Fraction(k, 2) for k in range(int(2 * v) + 1, int(2 * prec))]
        for j, e in enumerate(later[i % 2::2][:tail]):
            terms.append(((e,), independent_coeffs(rng, scalars, 1, offset=i + j)[0]))
        out.append(Spec(tuple(terms), (Fraction(prec),)))
    return out


def combine(specs, scalars_list):
    """Exact sum of scalar multiples of generated series (data level)."""
    acc = {}
    for s, lam in zip(specs, scalars_list):
        for e, c in s.terms:
            acc[e] = acc.get(e, 0) + lam * c
    prec = min(s.prec for s in specs)
    return tuple(sorted((e, c) for e, c in acc.items() if nonzero(c))), prec


def lib_scalars(scalars):
    return V.ScalarField.with_vars(scalars) if scalars else V.ScalarField.rationals()


def _class_rank(rng, coeffs, scalars):
    """Rank over Q(a_Y) of printed or generated coefficients, by evaluation.

    The Y variables get one random value, the others k + 2 random values;
    the rank of the value matrix never exceeds the true rank and equals it
    except on a measure-zero set of points.
    """
    if not coeffs:
        return 0

    def value(c, pt):
        if isinstance(c, (Fraction, int, RatFun)):
            return R.coeff_value(c, pt)
        return R.printed_value(str(c), pt)

    def attempt(_):
        rows = [[value(c, pt) for c in coeffs] for pt in _points_sharing(rng, scalars, len(coeffs) + 2)]
        return R.rank(rows)

    # an unlucky point can only lower the rank, so keep the best of a few
    best = 0
    for _ in range(RANK_TRIES):
        best = max(best, evaluate_checked(rng, attempt))
        if best == len(coeffs):
            break
    return best


RANK_TRIES = 4


def _points_sharing(rng, scalars, n):
    base = random_point(rng)
    pts = []
    for _ in range(n):
        free = random_point(rng)
        pts.append(tuple(base[i] if (i + 1) in scalars else free[i] for i in range(3)))
    return pts


def _in_span(cols, col):
    """Is col (a list of reference series, one per point) a constant
    combination of cols?  Exact for members; w.h.p. for non-members."""
    full = cols + [col]
    keys = sorted({(i, e) for c in full for i, y in enumerate(c) for e in y.terms})
    if not keys:
        return True
    m = [[c[i].terms.get(e, 0) for c in full] for i, e in keys]
    return R.rank(m) == R.rank([row[:-1] for row in m])


def _lead(series):
    return series.terms[0]


def _val_spec(spec, point):
    # the valuation oracles derive no precision from supports, so a
    # coefficient that happens to vanish at the point is simply dropped
    return ref_spec(spec, point, strict=False)


def _val_out(f, point):
    return ref_out(f, point, strict=False)


class ValuationBases(Workload):
    """Families over Q and over Q(a1) scalars: elimination and places."""

    name = "valuation-bases"
    pass_seconds = 0.12
    warmup_jobs = 8
    PREC = 5

    def generate(self, rng, seen):
        jobs = []
        for scalars in ((), (1,)):
            for dependent in (False, True):
                jobs.append(Job("indep", len(scalars), fresh(rng, seen, lambda r: self._indep(r, scalars, dependent))))
            jobs.append(Job("optapprox", len(scalars), fresh(rng, seen, lambda r: self._optapprox(r, scalars))))
        jobs.append(Job("chain", 3, fresh(rng, seen, self._chain)))
        jobs.append(Job("skeleton", 1, fresh(rng, seen, lambda r: (self._indep(r, (1,), False)[0], (1,)))))
        jobs.append(Job("tensor", 1, fresh(rng, seen, self._tensor)))
        for nvars in (2, 3):
            jobs.append(Job("inclexcl", nvars, fresh(rng, seen, lambda r: self._inclexcl(r, nvars))))
        jobs.append(Job("multinclexcl", 2, fresh(rng, seen, self._multinclexcl)))
        jobs.append(Job("restexp", 2, fresh(rng, seen, self._restexp)))
        return jobs

    # -- generators

    def _indep(self, rng, scalars, dependent):
        values = [1, 1, 1, Fraction(3, 2), Fraction(3, 2), 2, 2, 2]
        leads = (independent_coeffs(rng, scalars, 3, 0) + independent_coeffs(rng, scalars, 2, 3)
                 + independent_coeffs(rng, scalars, 3, 1))
        fam = family(rng, values, leads, self.PREC, scalars, tail=3)
        if dependent:
            # a third member at value 3/2 whose leading coefficient is a
            # scalar combination of the other two
            lam = [scalar_of(rng, scalars, 0), scalar_of(rng, scalars, 1)]
            lead = lam[0] * leads[3] + lam[1] * leads[4]
            extra = family(rng, [Fraction(3, 2)], [lead], self.PREC, scalars)[0]
            fam.insert(4, extra)
        return (tuple(fam), scalars, dependent)

    def _optapprox(self, rng, scalars):
        basis = list(self._indep(rng, scalars, False)[0])
        lam = [scalar_of(rng, scalars, i) for i in range(len(basis))]
        terms, prec = combine(basis, lam)
        # add a term whose coefficient is outside the span at its value
        extra = rf_var(3) * rq(rng)
        f = dict(terms)
        e = (Fraction(3, 2),)
        f[e] = f.get(e, 0) + extra
        return (Spec(tuple(sorted(f.items())), prec), tuple(basis), scalars)

    def _chain(self, rng):
        stage_vars = ((), (1,), (1, 2))
        stages = []
        earlier = []
        for s, allowed in enumerate(stage_vars):
            pool = [Fraction(1)] + [rf_var(j) for j in allowed] + [rf_pole(j, 2) for j in allowed]
            leads = [pool[(len(pool) - 1 - i) % len(pool)] * rq(rng, 5, 3) for i in range(2)]
            values = [Fraction(1 + s, 2), Fraction(2 + s, 1)]
            inputs = []
            for i, (v, c) in enumerate(zip(values, leads)):
                terms = [((v,), c)]
                for e in range(int(2 * v) + 1 + i, 2 * self.PREC, 3):
                    terms.append(((Fraction(e, 2),), pool[e % len(pool)] * rq(rng, 5, 3)))
                inputs.append(Spec(tuple(terms), (Fraction(self.PREC),)))
            if earlier:
                # one input in the span of earlier ones exercises reduction
                a, b = earlier[-2], earlier[-1]
                terms, prec = combine([a, b], [rq(rng, 4, 2), rq(rng, 4, 2)])
                if terms:
                    inputs.append(Spec(terms, prec))
            earlier.extend(inputs)
            stages.append(tuple(inputs))
        return (tuple(stages), stage_vars)

    def _tensor(self, rng):
        fam = self._indep(rng, (1,), False)[0]
        return (fam, (Fraction(1), rf_var(1) * rq(rng, 4, 2) + rng.randint(1, 3)))

    def _inclexcl(self, rng, nvars):
        listed = list(range(1, nvars + 1))
        # poles at 1, -1 and 2 make the place scan skip candidates
        pool = [rf_var(j) for j in listed] + [rf_pole(j, k) for j in listed for k in (1, -1, 2)]
        terms = []
        for k in range(1, 2 * self.PREC, 2):
            c = rq(rng, 5, 3)
            for j in range(1 + k % 3):
                c = c * pool[(k + 2 * j) % len(pool)]
            terms.append(((Fraction(k, 2),), c))
        return (Spec(tuple(terms), (Fraction(self.PREC),)), tuple(listed))

    def _multinclexcl(self, rng):
        # divisions by specialized copies blow up fast: keep the unit small
        pool = [rf_var(1), rf_pole(2, 1)]
        terms = (((Fraction(0),), Fraction(1)),) + tuple(
            ((Fraction(e),), rq(rng, 5, 3) * pool[e - 1]) for e in (1, 2)
        )
        return (Spec(terms, (Fraction(3),)), (1, 2))

    def _restexp(self, rng):
        # unit_pow of symbolic units is costly: values on the integer grid,
        # leading coefficients 1 and a1, constant tails
        prec = (Fraction(3),)
        leads = [rq(rng, 5, 3), rq(rng, 5, 3) * rf_var(1)]
        ratios = [rq(rng, 3, 2) for _ in leads]
        additive, units = [], []
        for v, c, r in zip((Fraction(1), Fraction(2)), leads, ratios):
            tail = (((Fraction(2),), rq(rng)),) if v == 1 else ()
            additive.append(Spec((((v,), c),) + tail, prec))
            units.append(Spec((((Fraction(0),), Fraction(1)), ((v,), c * (1 / r))) + tail, prec))
        qs = [rq(rng, 3, 2) for _ in leads]
        eps_terms, _ = combine(additive, qs)
        return (tuple(additive), tuple(units), tuple(ratios), tuple(qs), Spec(eps_terms, prec))

    # -- library calls

    def prepare(self, job):
        k, s = job.kind, job.spec
        if k == "indep":
            fam, field = [lib_series(x) for x in s[0]], lib_scalars(s[1])
            return lambda: V.is_valuation_independent(fam, field)
        if k == "optapprox":
            f = lib_series(s[0])
            basis = V.BasisFamily([lib_series(x) for x in s[1]], lib_scalars(s[2]))
            return lambda: V.optimal_approx(f, basis)
        if k == "chain":
            stages = [[lib_series(x) for x in st] for st in s[0]]
            return lambda: V.chain_basis_build(stages, s[1])
        if k == "skeleton":
            fam, field = [lib_series(x) for x in s[0]], lib_scalars(s[1])
            return lambda: V.skeleton_of(fam, field)
        if k == "tensor":
            basis = V.BasisFamily([lib_series(x) for x in s[0]], lib_scalars((1,)))
            coeffs = [lib_coeff(c) for c in s[1]]
            return lambda: V.tensor_basis(basis, coeffs, V.ScalarField.rationals())
        if k == "inclexcl":
            f = lib_series(s[0])
            return lambda: V.inclusion_exclusion_approx(f, list(s[1]))
        if k == "multinclexcl":
            u = A.OneUnit(lib_series(s[0]))
            return lambda: V.mult_inclusion_exclusion(u, list(s[1]))
        if k == "restexp":
            additive = [lib_series(x) for x in s[0]]
            units = [A.OneUnit(lib_series(x)) for x in s[1]]
            eps = lib_series(s[4])

            def run():
                basis = V.BasisFamily(additive, V.ScalarField.rationals())
                return V.build_restricted_exp(basis, units).apply(eps)

            return run
        raise ValueError(k)

    # -- oracles

    def check(self, job, outcome, rng):
        done, msg = expect_outcome(job, outcome)
        if done:
            return msg
        return getattr(self, "_check_" + job.kind)(job.spec, outcome[1], rng)

    def _check_indep(self, s, out, rng):
        fam, scalars, dependent = s
        if out.independent == dependent:
            return f"independent={out.independent}, planted dependent={dependent}"
        if out.independent:
            classes = {}
            for x in fam:
                classes.setdefault(_lead(x)[0], []).append(_lead(x)[1])
            for value, leads in classes.items():
                if _class_rank(rng, leads, scalars) != len(leads):
                    return f"leading coefficients at {value} are dependent"
            return None
        witness = out.witness
        if all(w.is_zero() for w in witness):
            return "zero witness"
        for w in witness:
            if not R.printed_variables(str(w)) <= set(scalars):
                return f"witness entry {w} is not a scalar"
        value = (Fraction(out.value.coords[0]),) if hasattr(out.value, "coords") else None

        def at(pt):
            acc = Series({}, (Fraction(self.PREC),))
            for x, w in zip(fam, witness):
                acc = R.add(acc, R.scale(_val_spec(x, pt), R.printed_value(str(w), pt)))
            low = [e for e in acc.terms if e <= value]
            return f"witness combination keeps a term at {low[0]}" if low else None

        return evaluate_checked(rng, at)

    def _check_optapprox(self, s, out, rng):
        f, basis, scalars = s
        if tuple(out.prec.coords) != f.prec:
            return f"prec {tuple(out.prec.coords)} != {f.prec}"

        def at_points(_):
            pts = _points_sharing(rng, scalars, 5)
            rems = [R.sub(_val_spec(f, p), _val_out(out, p)) for p in pts]
            # the approximation lies in the span: constant scalars fit the
            # points, which share the values of the scalar variables
            cols = [[_val_spec(b, p) for p in pts[:2]] for b in basis]
            if not _in_span(cols, [_val_out(out, p) for p in pts[:2]]):
                return "approximation is not in the span of the basis"
            exps = [e for r in rems for e in r.terms]
            if not exps:
                return None
            v = min(exps)
            members = [b for b in basis if _lead(b)[0] == v]
            rows = [[R.coeff_value(_lead(b)[1], p) for b in members] + [r.terms.get(v, 0)]
                    for p, r in zip(pts, rems)]
            if R.rank(rows) != len(members) + 1:
                return f"remainder is reducible at {v}"
            return None

        # an unlucky point can only make the remainder look reducible
        for _ in range(RANK_TRIES):
            msg = evaluate_checked(rng, at_points)
            if msg is None or "reducible" not in msg:
                return msg
        return msg

    def _check_chain(self, s, out, rng):
        stages, stage_vars = s
        if len(out) != len(stages):
            return "wrong number of stages"
        prev = []
        for basis, inputs in zip(out, stages):
            entries = list(basis.entries)
            if [str(x) for x in entries[: len(prev)]] != [str(x) for x in prev]:
                return "stage basis does not extend the previous one"
            classes = {}
            for x in entries:
                if tuple(x.prec.coords) != (Fraction(self.PREC),):
                    return "basis entry has the wrong prec"
                e, c = x.terms[0]
                classes.setdefault(tuple(e.coords), []).append(c)
            for value, leads in classes.items():
                if _class_rank(rng, leads, ()) != len(leads):
                    return f"stage basis is dependent at {value}"


            def spans(_):
                # walk the inputs in order: one in the span of the basis so
                # far adds nothing, any other adds the next entry, which is
                # the input minus a combination of the earlier entries
                pts = [random_point(rng) for _ in range(2)]
                basis = [[_val_out(b, p) for p in pts] for b in entries]
                used = len(prev)
                for x in inputs:
                    col = [_val_spec(x, p) for p in pts]
                    if _in_span(basis[:used], col):
                        continue
                    if used == len(entries):
                        return "an input outside the span added no basis entry"
                    rest = [R.sub(a, b) for a, b in zip(col, basis[used])]
                    if not _in_span(basis[:used], rest):
                        return f"basis entry {used} is not its input reduced by earlier entries"
                    used += 1
                if used != len(entries):
                    return "the stage basis has entries no input accounts for"
                return None

            msg = evaluate_checked(rng, spans)
            if msg:
                return msg
            prev = entries
        return None

    def _check_skeleton(self, s, out, rng):
        fam = s[0]
        grouped = {}
        for x in fam:
            grouped.setdefault(_lead(x)[0], []).append(_lead(x)[1])
        if [tuple(c.value.coords) for c in out.classes] != sorted(grouped):
            return "skeleton values differ"
        for cls in out.classes:
            want = grouped[tuple(cls.value.coords)]
            if cls.dim != len(want) or len(cls.leading) != len(want):
                return f"dimension at {cls.value} differs"
            ok = evaluate_checked(rng, lambda pt: all(
                R.printed_value(str(a), pt) == R.coeff_value(b, pt) for a, b in zip(cls.leading, want)))
            if not ok:
                return f"leading coefficients at {cls.value} differ"
        return None

    def _check_tensor(self, s, out, rng):
        fam, coeffs = s
        entries = list(out.entries)
        pairs = [(b, c) for b in fam for c in coeffs]
        if len(entries) != len(pairs):
            return f"{len(entries)} entries, expected {len(pairs)}"

        def at(pt):
            for got, (b, c) in zip(entries, pairs):
                msg = diff(_val_out(got, pt), R.scale(_val_spec(b, pt), R.coeff_value(c, pt)), "entry")
                if msg:
                    return msg
            return None

        msg = evaluate_checked(rng, at)
        if msg:
            return msg
        classes = {}
        for x in entries:
            e, c = x.terms[0]
            classes.setdefault(tuple(e.coords), []).append(c)
        for value, leads in classes.items():
            if _class_rank(rng, leads, ()) != len(leads):
                return f"tensor basis is dependent over Q at {value}"
        return None

    def _summands_omit(self, out, listed):
        for key, g in out.summands.items():
            series = g.series if hasattr(g, "series") else g
            chosen = {listed[i] for i, bit in enumerate(key) if bit == "1"}
            for _, c in series.terms:
                if R.printed_variables(str(c)) & chosen:
                    return f"summand {key} keeps a selected variable in {c}"
        if len(out.summands) != 2 ** len(listed) - 1:
            return f"{len(out.summands)} summands"
        return None

    def _place_point(self, key, places, pt):
        pt = list(pt)
        for bit, place in zip(key, places):
            if bit == "1":
                pt[place.var - 1] = Fraction(place.q)
        return tuple(pt)

    def _check_inclexcl(self, s, out, rng):
        f, listed = s
        msg = self._summands_omit(out, listed)
        if msg:
            return msg
        if tuple(out.h.prec.coords) != f.prec:
            return "h has the wrong prec"

        def at(pt):
            total = Series({}, f.prec)
            for key, g in out.summands.items():
                sign = (-1) ** key.count("1")
                want = R.scale(_val_spec(f, self._place_point(key, out.places, pt)), sign)
                msg = diff(_val_out(g, pt), want, f"summand {key}")
                if msg:
                    return msg
                total = R.sub(total, want)
            return diff(_val_out(out.h, pt), total, "h")

        msg = evaluate_checked(rng, at)
        if msg:
            return msg
        # where f's coefficient already misses a listed variable, h keeps it
        h = {tuple(e.coords): str(c) for e, c in out.h.terms}
        for e, c in f.terms:
            used = c.variables() if isinstance(c, RatFun) else set()
            if set(listed) - used:
                same = evaluate_checked(rng, lambda pt: R.printed_value(h.get(e, "0"), pt) == R.coeff_value(c, pt))
                if not same:
                    return f"h changes the coefficient at {e}, which already misses a variable"
        return None

    def _check_multinclexcl(self, s, out, rng):
        u, listed = s
        msg = self._summands_omit(out, listed)
        if msg:
            return msg
        h = out.h.series
        if tuple(h.prec.coords) != u.prec:
            return "h has the wrong prec"

        def at(pt):
            prod = _val_out(h, pt)
            for key, g in out.summands.items():
                img = _val_spec(u, self._place_point(key, out.places, pt))
                want = R.inv(img) if key.count("1") % 2 else img
                msg = diff(_val_out(g, pt), want, f"summand {key}")
                if msg:
                    return msg
                prod = R.mul(prod, want)
            one = R.one(prod.prec)
            return None if prod.terms == one.terms else "h times the summands is not 1"

        return evaluate_checked(rng, at)

    def _check_restexp(self, s, out, rng):
        additive, units, ratios, qs, eps = s

        def at(pt):
            want = R.one(eps.prec)
            for u, r, q in zip(units, ratios, qs):
                want = R.mul(want, R.power(_val_spec(u, pt), r * q))
            return diff(_val_out(out.series, pt), want, "image")

        return evaluate_checked(rng, at)


# ---------------------------------------------------------------------------
# cli-subprocess

GOLDEN_CASES = {
    "exp": ["--prec", "6", "exp", "t + t^2"],
    "log": ["--prec", "6", "log", "1 + t"],
    "pow": ["--prec", "5", "pow", "1 + t", "1/2"],
    "hensel": ["--prec", "6", "hensel", "y^2 - (1+t)", "--root", "1"],
    "puiseux": ["--prec", "6", "puiseux", "y^2 - y + t"],
    "ratrec": ["--prec", "12", "ratrec", "1/(1 - t)", "--deg-num", "0", "--deg-den", "1"],
    "vmin": ["--prec", "4", "vmin", "t^(-1/2) + 3"],
    "specialize": ["--prec", "6", "specialize", "a1^2*t + a2*t^2", "--var", "1", "--value", "3"],
    "splitneg": ["--prec", "5", "splitneg", "t^(-1) + 2 + 3*t"],
    "indep": ["--prec", "5", "indep", "t", "2*t"],
    "optapprox": ["--prec", "5", "optapprox", "t + t^2", "--basis", "t"],
    "inclexcl": ["--prec", "6", "inclexcl", "a1*a2*t", "--vars", "1,2"],
    "multinclexcl": ["--prec", "6", "multinclexcl", "1 + a1*t", "--vars", "1"],
    "skeleton": ["--prec", "5", "skeleton", "t", "a1*t", "t^2"],
    "tensor": ["--prec", "5", "tensor", "--basis", "t", "--coeff", "1", "--coeff", "a1",
               "--scalar-vars", "1"],
    "restexp": ["--prec", "6", "restexp", "--additive", "t", "--unit", "1 + t",
                "--apply", "2*t"],
    "chain": ["--prec", "5", "chain", "--stage", "|t", "--stage", "1|a1*t"],
}


def _command(argv):
    """The subcommand of a CLI argv."""
    return next(a for a in argv if a in GOLDEN_CASES)


def _q(x: Fraction) -> str:
    return f"({x})"


def _cli_series(rng, start, n, prec):
    """Text of a random series start*t^... plus its reference data."""
    terms = {}
    parts = []
    for k in range(n):
        e = Fraction(start + k)
        c = rq(rng, 5, 3)
        terms[(e,)] = c
        parts.append(f"{_q(c)}*t^{e}" if e else _q(c))
    return " + ".join(parts), terms


class CliSubprocess(Workload):
    """Sequential ``python -m hahnseries.cli`` runs, one child at a time."""

    name = "cli-subprocess"
    pass_seconds = 1.8
    warmup_jobs = 1

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.schema = None
        self.first_pass = True

    def generate(self, rng, seen):
        jobs = []
        if self.first_pass:
            self.first_pass = False
            for name in sorted(GOLDEN_CASES):
                seen.add(hash(repr(GOLDEN_CASES[name])))
                jobs.append(Job("golden", 0, (tuple(GOLDEN_CASES[name]), 0, name, None)))
        for maker in self.TEMPLATES:
            argv, code, ref = fresh(rng, seen, maker)
            jobs.append(Job(_command(argv), 0, (tuple(["--json"] + argv), code, None, ref)))
        return jobs

    # each template returns (argv, expected exit code, reference data or None)
    @staticmethod
    def _exp(rng):
        p = rng.randint(4, 6)
        text, terms = _cli_series(rng, 1, 2, p)
        return ["--prec", str(p), "exp", text], 0, ("exp", terms, p, None)

    @staticmethod
    def _log(rng):
        p = rng.randint(4, 6)
        text, terms = _cli_series(rng, 1, 2, p)
        terms[(Fraction(0),)] = Fraction(1)
        return ["--prec", str(p), "log", "1 + " + text], 0, ("log", terms, p, None)

    # Negative numbers are passed as a user types them (`pow "1 + t" -1/3`,
    # `--value -4/3`), one job of each per pass.  argparse reads such an
    # argument as an option, so these jobs fail until the CLI accepts them.

    @staticmethod
    def _pow(rng, exponents):
        p = rng.randint(4, 6)
        text, terms = _cli_series(rng, 1, 1, p)
        terms[(Fraction(0),)] = Fraction(1)
        q = rng.choice(exponents)
        return ["--prec", str(p), "pow", "1 + " + text, str(q)], 0, ("pow", terms, p, q)

    @staticmethod
    def _specialize(rng, sign):
        den = rng.choice((2, 3))
        value = sign * Fraction(den * rng.randint(0, 2) + rng.randint(1, den - 1), den)
        return ["--prec", str(rng.randint(4, 6)), "specialize", f"a1^2*t + {_q(rq(rng, 5, 3))}*a2*t^2",
                "--var", "1", "--value", str(value)], 0, None

    TEMPLATES = (
        _exp.__func__,
        _log.__func__,
        lambda r: CliSubprocess._pow(r, (Fraction(1, 2), Fraction(3, 2), Fraction(2, 5))),
        lambda r: CliSubprocess._pow(r, (Fraction(-1, 3), Fraction(-1, 2), Fraction(-3, 2))),
        lambda r: ([
            "--prec", str(r.randint(4, 6)), "hensel",
            f"y^2 - ({(k := r.randint(1, 4)) ** 2} + {_q(rq(r, 5, 3))}*t)", "--root", str(k)], 0, None),
        lambda r: (["--prec", str(r.randint(4, 6)), "puiseux", f"y^2 - y + {_q(rq(r, 5, 3))}*t"], 0, None),
        lambda r: (["--prec", str(r.randint(6, 10)), "ratrec", f"1/(1 - {_q(rq(r, 5, 3))}*t)",
                    "--deg-num", "0", "--deg-den", "1"], 0, None),
        lambda r: (["--prec", "4", "vmin", f"t^({rq(r, 3, 2)}) + {r.randint(1, 9)}"], 0, None),
        lambda r: CliSubprocess._specialize(r, 1),
        lambda r: CliSubprocess._specialize(r, -1),
        lambda r: (["--prec", "5", "splitneg", f"{_q(rq(r, 5, 3))}*t^(-1) + 2 + {_q(rq(r, 5, 3))}*t"], 0, None),
        lambda r: (["--prec", "5", "indep", "t", f"{_q(rq(r, 5, 3))}*t", "a1*t^2"], 0, None),
        lambda r: (["--prec", "5", "optapprox", f"t + {_q(rq(r, 5, 3))}*t^2", "--basis", "t",
                    "--basis", f"t^2 + {_q(rq(r, 5, 3))}*t^3"], 0, None),
        lambda r: (["--seed", str(r.randint(0, 99)), "--prec", "4", "inclexcl",
                    f"a1*a2*t + {_q(rq(r, 5, 3))}*a1*t^2", "--vars", "1,2"], 0, None),
        lambda r: (["--prec", "4", "multinclexcl", f"1 + {_q(rq(r, 5, 3))}*a1*t", "--vars", "1"], 0, None),
        lambda r: (["--prec", "5", "skeleton", "t", f"{_q(rq(r, 5, 3))}*a1*t", "t^2"], 0, None),
        lambda r: (["--prec", "5", "tensor", "--basis", f"{_q(rq(r, 5, 3))}*t", "--coeff", "1",
                    "--coeff", "a1", "--scalar-vars", "1"], 0, None),
        lambda r: (["--prec", "5", "restexp", "--additive", "t", "--unit", f"1 + {_q(rq(r, 5, 3))}*t",
                    "--apply", f"{_q(rq(r, 5, 3))}*t"], 0, None),
        lambda r: (["--prec", "5", "chain", "--stage", f"|{_q(rq(r, 5, 3))}*t",
                    "--stage", f"1|a1*t + {_q(rq(r, 5, 3))}*t^2"], 0, None),
        lambda r: (["--prec", "5", "exp", f"{r.randint(1, 9)} + t"], 2, None),
        lambda r: (["--prec", "5", "exp", f"t^^{r.randint(1, 99)}"], 3, None),
    )

    def prepare(self, job):
        cmd = [sys.executable, "-m", "hahnseries.cli", *job.spec[0]]
        root, env = self.root, self.env

        def run():
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=120)
            return done.returncode, done.stdout

        return run

    def gave_no_answer(self, job, outcome):
        return outcome[0] == "raised" or (job.spec[1] == 0 and outcome[1][0] != 0)

    def check(self, job, outcome, rng):
        done, msg = expect_outcome(job, outcome)
        if done:
            return msg
        argv, code, golden, ref = job.spec
        got_code, stdout = outcome[1]
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if golden is not None:
            want = (self.root / "tests" / "golden" / f"{golden}.txt").read_bytes()
            return None if stdout == want else f"output differs from golden {golden}"
        return self._check_json(argv, code, stdout, ref)

    def _check_json(self, argv, code, stdout, ref):
        import jsonschema

        if self.schema is None:
            path = self.root / "src" / "hahnseries" / "report_schema.json"
            self.schema = json.loads(path.read_text())
        try:
            payload = json.loads(stdout)
            jsonschema.validate(payload, self.schema)
        except (ValueError, jsonschema.ValidationError) as err:
            return f"invalid JSON report: {err}"
        command = _command(argv)
        if payload["command"] != command:
            return f"command {payload['command']!r} != {command!r}"
        if payload["status"] != ("ok" if code == 0 else "error"):
            return f"status {payload['status']}"
        if ref is None:
            return None
        kind, terms, p, q = ref
        from hahnseries.parsing import parse_expression

        # a high session precision lets the printed O(t^e) set the precision
        got = ref_out(parse_expression(payload["result"]["series"], default_prec=100 * p))
        arg = R.make(terms, (Fraction(p),))
        want = {"exp": R.exp, "log": R.log}.get(kind, lambda u: R.power(u, q))(arg)
        return diff(got, want)
