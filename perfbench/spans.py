"""Spans and counters recorded by wrapping the library from outside.

``Tracer.install()`` replaces every binding of each target function or
method, in every loaded ``hahnseries`` module and class, by a wrapper
that records a span (layer name, start, end, parent span, job id) and
the counters of that layer.  ``uninstall()`` puts the originals back.
Spans stay in memory, in flat arrays, until ``layer_metrics`` reads
them.  A span's self time is its duration minus the part of it covered
by its child spans.

``check_bindings`` runs a job under ``sys.setprofile`` and compares the
number of times each original code object ran with the number of calls
its wrappers saw, so a binding that was not wrapped shows up.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from importlib import import_module

# (layer, module, attribute path).  Several targets may share a layer.
TARGETS = (
    ("exponents.ops", "hahnseries.exponents", "Exponent.__add__"),
    ("exponents.ops", "hahnseries.exponents", "Exponent.__sub__"),
    ("exponents.ops", "hahnseries.exponents", "Exponent.__eq__"),
    ("exponents.ops", "hahnseries.exponents", "Exponent.__lt__"),
    ("exponents.ops", "hahnseries.exponents", "Exponent.__le__"),
    ("exponents.ops", "hahnseries.exponents", "Exponent.__gt__"),
    ("exponents.ops", "hahnseries.exponents", "Exponent.__ge__"),
    ("exponents.ops", "hahnseries.exponents", "compare"),
    ("polynomials.gcd", "hahnseries.polynomials", "poly_gcd"),
    ("polynomials.divexact", "hahnseries.polynomials", "divexact"),
    ("polynomials.mul", "hahnseries.polynomials", "Poly.__mul__"),
    ("polynomials.sqrt", "hahnseries.polynomials", "poly_sqrt"),
    ("coeffs.canon", "hahnseries.coeffs", "Coefficient.__init__"),
    ("coeffs.place", "hahnseries.coeffs", "apply_place"),
    ("coeffs.place_scan", "hahnseries.coeffs", "finite_place_for"),
    ("series.mul", "hahnseries.series", "TruncatedSeries.__mul__"),
    ("series.add", "hahnseries.series", "TruncatedSeries.__add__"),
    ("series.inv", "hahnseries.series", "TruncatedSeries.inv"),
    ("series.specialize", "hahnseries.series", "TruncatedSeries.specialize"),
    ("series.eval_poly", "hahnseries.series", "eval_poly"),
    ("analytic.exp", "hahnseries.analytic", "exp"),
    ("analytic.log", "hahnseries.analytic", "log"),
    ("analytic.pow", "hahnseries.analytic", "unit_pow"),
    ("analytic.hensel", "hahnseries.analytic", "hensel_lift"),
    ("analytic.puiseux", "hahnseries.analytic", "newton_puiseux"),
    ("analytic.ratrec", "hahnseries.analytic", "rational_reconstruct"),
    ("linalg.rref", "hahnseries.linalg", "rref"),
    ("linalg.span", "hahnseries.linalg", "in_span"),
    ("linalg.span", "hahnseries.linalg", "null_combination"),
    ("valuation_spaces.indep", "hahnseries.valuation_spaces", "is_valuation_independent"),
    ("valuation_spaces.optapprox", "hahnseries.valuation_spaces", "optimal_approx"),
    ("valuation_spaces.chain", "hahnseries.valuation_spaces", "chain_basis_build"),
    ("valuation_spaces.inclexcl", "hahnseries.valuation_spaces", "inclusion_exclusion_approx"),
    ("valuation_spaces.multinclexcl", "hahnseries.valuation_spaces", "mult_inclusion_exclusion"),
    ("valuation_spaces.restexp", "hahnseries.valuation_spaces", "build_restricted_exp"),
    ("valuation_spaces.restexp", "hahnseries.valuation_spaces", "RestrictedExpMap.apply"),
    ("valuation_spaces.skeleton", "hahnseries.valuation_spaces", "skeleton_of"),
    ("valuation_spaces.tensor", "hahnseries.valuation_spaces", "tensor_basis"),
    ("parsing.parse", "hahnseries.parsing", "parse_expression"),
    ("cli.main", "hahnseries.cli", "main"),
)

# Targets the library may drop: ROADMAP item 4 decides whether to keep
# the module-level alias ``compare``.  Missing ones are only reported.
OPTIONAL = {("hahnseries.exponents", "compare")}

JOB = "job"


def _resolve(module, path):
    obj = import_module(module)
    for part in path.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the union of child intervals.

    Spans are listed in the order they started, so the children of a
    span appear in start order and a running high-water mark per parent
    is enough to merge overlapping child intervals.
    """
    n = len(starts)
    covered = [0.0] * n
    mark = list(starts)  # per parent: end of the covered prefix so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], mark[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            mark[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.layers = []
        self._layer_id = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self._stack = [-1]
        self.job_id = -1
        self.counts = Counter()
        self.raw_calls = Counter()  # per original code object
        self._patches = []
        self._originals = {}
        self.unresolved = []  # required targets the library does not have
        self.absent = []  # optional targets the library does not have

    def reset(self):
        """Forget every span and count recorded so far."""
        for arr in (self.name, self.start, self.end, self.parent, self.job):
            del arr[:]
        self.counts.clear()
        self.raw_calls.clear()

    # -- spans

    def _lid(self, layer):
        if layer not in self._layer_id:
            self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_id[layer]

    def begin(self, layer_id):
        idx = len(self.start)
        self.name.append(layer_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id, call):
        """Run one job under a root span named "job"."""
        self.job_id = job_id
        idx = self.begin(self._lid(JOB))
        try:
            return call()
        finally:
            self.finish(idx)
            self.job_id = -1

    def parent_layer(self):
        top = self._stack[-1]
        return self.layers[self.name[top]] if top >= 0 else None

    # -- wrappers

    def _wrap(self, layer, fn):
        lid = self._lid(layer)
        hooks = _HOOKS.get(layer)
        tracer = self
        code = fn.__code__
        raw = self.raw_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            raw[code] += 1
            if hooks and hooks.skip and hooks.skip(args, kwargs):
                return fn(*args, **kwargs)
            if hooks and hooks.before:
                args, kwargs = hooks.before(tracer, args, kwargs)
            top_level = hooks and hooks.after and tracer.parent_layer() != layer
            idx = tracer.begin(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if hooks and hooks.after:
                hooks.after(tracer, args, result, top_level)
            return result

        return wrapper

    def install(self):
        import hahnseries  # noqa: F401  (loads every submodule)

        targets = {}
        for layer, module, path in TARGETS:
            try:
                fn = _resolve(module, path)
            except (KeyError, AttributeError):
                missing = self.absent if (module, path) in OPTIONAL else self.unresolved
                missing.append((module, path))
                continue
            targets[id(fn)] = (fn, self._wrap(layer, fn))
        self._originals = {fn.__code__: fn for fn, _ in targets.values()}
        owners = []
        for name, mod in list(sys.modules.items()):
            if name == "hahnseries" or name.startswith("hahnseries."):
                owners.append(mod)
                owners.extend(
                    v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__.startswith("hahnseries")
                )
        for owner in dict.fromkeys(owners):
            for attr, value in list(vars(owner).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, value))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def check_bindings(self, call):
        """Calls seen by sys.setprofile minus calls seen by the wrappers,
        per original function; empty when every binding is wrapped."""
        seen = Counter()
        originals = self._originals

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in originals:
                seen[frame.f_code] += 1

        before = Counter(self.raw_calls)
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        missed = {}
        for code, n in seen.items():
            wrapped = self.raw_calls[code] - before[code]
            if n != wrapped:
                missed[originals[code].__qualname__] = n - wrapped
        return missed

    # -- results

    def layer_totals(self, scale=None):
        """{layer: (span count, self seconds)} over every recorded span;
        scale maps a job id to the factor its times are multiplied by."""
        selfs = self_times(self.start, self.end, self.parent)
        calls, busy = Counter(), Counter()
        for i, s in enumerate(selfs):
            layer = self.layers[self.name[i]]
            calls[layer] += 1
            busy[layer] += s * (scale[self.job[i]] if scale else 1.0)
        return {layer: (calls[layer], busy[layer]) for layer in calls}


class _Hooks:
    def __init__(self, skip=None, before=None, after=None):
        self.skip, self.before, self.after = skip, before, after


def _is_canonical_call(args, kwargs):
    return bool(kwargs.get("_canonical", args[3] if len(args) > 3 else False))


def _canon_before(tracer, args, kwargs):
    """Count constructions whose input numerator and denominator are both
    constants: the calls a fast path for Q could take."""
    num = args[1] if len(args) > 1 else kwargs["num"]
    den = args[2] if len(args) > 2 else kwargs["den"]
    if num.is_const() and den.is_const():
        tracer.counts["coeffs.canon.const"] += 1
    return args, kwargs


def _gcd_after(tracer, args, result, top):
    if top:
        tracer.counts["polynomials.gcd.top"] += 1
        if str(result) != "1":
            tracer.counts["polynomials.gcd.top_nontrivial"] += 1


def _mul_after(tracer, args, result, top):
    other = args[1]
    n_other = len(other.terms) if hasattr(other, "prec") else 1
    tracer.counts["series.mul.term_pairs"] += len(args[0].terms) * n_other
    tracer.counts["series.mul.kept"] += len(result.terms)


def _rref_after(tracer, args, result, top):
    rows = args[0]
    tracer.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _scan_before(tracer, args, kwargs):
    """Count the places finite_place_for tries by feeding it its candidates."""
    args = list(args)
    if len(args) > 2:
        candidates = args.pop(2)
    else:
        candidates = kwargs.pop("candidates", None)
    if candidates is None:
        candidates = import_module("hahnseries.coeffs").default_candidates()

    def counting():
        for q in candidates:
            if q != 0:
                tracer.counts["coeffs.place_scan.tried"] += 1
            yield q

    kwargs["candidates"] = counting()
    return tuple(args), kwargs


def _scan_after(tracer, args, result, top):
    tracer.counts["coeffs.place_scan.found"] += 1


_HOOKS = {
    "coeffs.canon": _Hooks(skip=_is_canonical_call, before=_canon_before),
    "polynomials.gcd": _Hooks(after=_gcd_after),
    "series.mul": _Hooks(after=_mul_after),
    "linalg.rref": _Hooks(after=_rref_after),
    "coeffs.place_scan": _Hooks(before=_scan_before, after=_scan_after),
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, scale=None):
    """Per-layer metric values from the traced jobs (zeros where a layer
    did not run); scale as for Tracer.layer_totals."""
    totals = tracer.layer_totals(scale)
    counts = tracer.counts
    out = {}

    def calls(layer):
        return float(totals.get(layer, (0, 0.0))[0])

    def busy(layer):
        return totals.get(layer, (0, 0.0))[1]

    for layer in sorted({t[0] for t in TARGETS}):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = busy(layer)
    out["polynomials.gcd.nontrivial_frac"] = _ratio(
        counts["polynomials.gcd.top_nontrivial"], counts["polynomials.gcd.top"]
    )
    out["coeffs.canon.const_frac"] = _ratio(counts["coeffs.canon.const"], calls("coeffs.canon"))
    out["coeffs.place_scan.candidates"] = float(counts["coeffs.place_scan.tried"])
    out["coeffs.place_scan.hit_frac"] = _ratio(
        counts["coeffs.place_scan.found"], counts["coeffs.place_scan.tried"]
    )
    out["series.mul.term_pairs"] = float(counts["series.mul.term_pairs"])
    out["series.mul.kept_frac"] = _ratio(counts["series.mul.kept"], counts["series.mul.term_pairs"])
    out["linalg.rref.cells"] = float(counts["linalg.rref.cells"])
    return out
