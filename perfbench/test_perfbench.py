"""Tests of the benchmark itself: generators, oracles, spans and wrappers.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402

from hahnseries.analytic import OneUnit  # noqa: E402
from hahnseries.coeffs import Coefficient  # noqa: E402
from hahnseries.polynomials import Poly  # noqa: E402
from hahnseries.series import TruncatedSeries  # noqa: E402
from hahnseries.valuation_spaces import BasisFamily  # noqa: E402

IN_PROCESS = {
    "rational-dense": W.RationalDense,
    "symbolic-coeffs": W.SymbolicCoeffs,
    "valuation-bases": W.ValuationBases,
}


def small_pass(name, seed=1):
    """One pass of a workload, without the costly top of the ladder."""
    wl = IN_PROCESS[name]()
    jobs = wl.generate(random.Random(f"{name}/{seed}/0"), set())
    return wl, [j for j in jobs if j.size <= 8]


def run_jobs(wl, jobs):
    return [run.run_call(wl.prepare(j))[0] for j in jobs]


@pytest.mark.parametrize("name", sorted(IN_PROCESS) + ["cli-subprocess"])
def test_generators_are_seeded(name):
    def make():
        return IN_PROCESS[name]() if name in IN_PROCESS else W.CliSubprocess(HERE.parent)

    def data(seed):
        wl = make()
        return repr(wl.generate(random.Random(f"{name}/{seed}/0"), set()))

    assert data(1) == data(1)
    assert data(1) != data(2)


def test_no_input_repeats_within_a_run():
    wl = W.SymbolicCoeffs()
    seen = set()
    keys = []
    for p in range(20):
        keys += [repr(j.spec) for j in wl.generate(random.Random(f"x/{p}"), seen)]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("name", sorted(IN_PROCESS))
def test_every_job_passes_its_oracle(name):
    wl, jobs = small_pass(name)
    for i, (job, outcome) in enumerate(zip(jobs, run_jobs(wl, jobs))):
        assert wl.check(job, outcome, random.Random(i)) is None, job
    assert [msg for _, msg in wl.finish() if msg] == []


def test_sympy_oracle_flags_a_flipped_coefficient():
    wl, jobs = small_pass("symbolic-coeffs")
    job = next(j for j in jobs if j.kind == "exp")
    out = run.run_call(wl.prepare(job))[0][1]
    assert W.sympy_check(job, out) is None
    assert W.sympy_check(job, perturb(out, "flip")) is not None


# -- planted faults


def _grid_step(s):
    exps = [e.coords[0] for e, _ in s.terms] + [s.prec.coords[0]]
    den = 1
    for q in exps:
        den = den * q.denominator // math.gcd(den, q.denominator)
    return Fraction(1, den)


def _fault(s, mode):
    """A copy of series s with its last coefficient negated, or its prec
    raised by one step of its exponent grid; None if not applicable."""
    if mode == "flip":
        if not s.terms:
            return None
        terms = list(s.terms)
        e, c = terms[-1]
        terms[-1] = (e, -c)
        return TruncatedSeries(terms, s.prec)
    if s.rank != 1:
        return None
    return TruncatedSeries(s.terms, (s.prec.coords[0] + _grid_step(s),))


def perturb(out, mode):
    """out with one series inside it faulted; None if nothing to fault."""
    if isinstance(out, TruncatedSeries):
        return _fault(out, mode)
    if isinstance(out, OneUnit):
        s = _fault(out.series, mode)
        return OneUnit(s) if s is not None and len(out.series.terms) > 1 else None
    if isinstance(out, BasisFamily):
        entries = list(out.entries)
        s = _fault(entries[-1], mode)
        return None if s is None else BasisFamily(entries[:-1] + [s], out.scalars)
    if isinstance(out, (list, tuple)):
        for i in range(len(out) - 1, -1, -1):
            p = perturb(out[i], mode)
            if p is not None:
                return type(out)(list(out[:i]) + [p] + list(out[i + 1:]))
        return None
    if dataclasses.is_dataclass(out) and hasattr(out, "h"):
        p = perturb(out.h, mode)
        return None if p is None else dataclasses.replace(out, h=p)
    return None


@pytest.mark.parametrize("name", sorted(IN_PROCESS))
@pytest.mark.parametrize("mode", ["flip", "prec"])
def test_oracles_flag_planted_faults(name, mode):
    wl, jobs = small_pass(name)
    faulted = 0
    for i, (job, outcome) in enumerate(zip(jobs, run_jobs(wl, jobs))):
        if outcome[0] != "ok":
            continue
        bad = perturb(outcome[1], mode)
        if bad is None:
            continue
        faulted += 1
        assert wl.check(job, ("ok", bad), random.Random(i)) is not None, (job.kind, mode)
    assert faulted >= 5


def test_cli_oracle_flags_faults():
    wl = W.CliSubprocess(HERE.parent)
    jobs = wl.generate(random.Random("cli-subprocess/1/0"), set())
    golden = next(j for j in jobs if j.kind == "golden")
    good = (HERE.parent / "tests" / "golden" / f"{golden.spec[2]}.txt").read_bytes()
    assert wl.check(golden, ("ok", (0, good)), None) is None
    assert wl.check(golden, ("ok", (0, good[:-2] + b"9\n")), None) is not None
    assert wl.check(golden, ("ok", (2, good)), None) is not None
    exp_job = next(j for j in jobs if j.kind == "exp" and j.spec[3])
    code, out = run._in_process_cli(exp_job)()
    assert wl.check(exp_job, ("ok", (code, out)), None) is None
    payload = json.loads(out)
    payload["result"]["series"] = payload["result"]["series"].replace("O(t^", "O(t^1")
    assert wl.check(exp_job, ("ok", (0, json.dumps(payload).encode())), None) is not None
    payload["status"] = 7
    assert wl.check(exp_job, ("ok", (0, json.dumps(payload).encode())), None) is not None


def test_failed_operations_are_told_from_wrong_answers():
    wl = W.CliSubprocess(HERE.parent)
    jobs = wl.generate(random.Random("cli-subprocess/1/0"), set())
    ok_job = next(j for j in jobs if j.kind == "exp" and j.spec[1] == 0)
    refusal = next(j for j in jobs if j.spec[1] == 2)
    assert wl.gave_no_answer(ok_job, ("ok", (2, b"")))
    assert not wl.gave_no_answer(ok_job, ("ok", (0, b"{}")))
    assert not wl.gave_no_answer(refusal, ("ok", (0, b"{}")))
    records = [(ok_job, ("ok", (2, b""))), (refusal, ("ok", (0, b"{}")))]
    assert [wrong for _, wrong in run.verify(wl, 1, records, "test")] == [False, True]
    lib = W.RationalDense()
    job = next(j for j in lib.generate(random.Random("r/1/0"), set()) if j.expect)
    assert not lib.gave_no_answer(job, ("ok", None))
    assert lib.gave_no_answer(dataclasses.replace(job, expect=None), ("raised", ValueError()))


def test_reference_recurrences_agree_with_power_sums():
    rng = random.Random(5)
    e = R.make({(Fraction(k, 2),): W.rq(rng) for k in range(1, 7)}, (Fraction(4),))
    u = R.add(R.one(e.prec), e)
    as_rank2 = lambda s: R.make({(x[0], Fraction(0)): c for x, c in s.terms.items()}, (s.prec[0], Fraction(0)))
    for f in (R.exp, R.log, R.inv):
        arg = e if f is R.exp else u
        one_d, two_d = f(arg), f(as_rank2(arg))
        assert as_rank2(one_d) == two_d
    assert R.power(u, Fraction(1, 2)) == R.exp(R.scale(R.log(u), Fraction(1, 2)))


# -- spans


def test_self_time_arithmetic():
    # job [0, 10] > a [1, 4] > b [2, 3]; job > c [5, 9] > d [6, 12] (clipped at 9)
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, 3]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 1.0, 6.0]
    # overlapping children are merged, not counted twice
    assert self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0])[0] == 5.0


def test_const_frac_counts_constant_inputs_only():
    a1 = Coefficient.alpha(1)
    tracer = Tracer().install()
    try:
        tracer.run_job(0, lambda: Coefficient(Poly.const(Fraction(2)), Poly.const(Fraction(4))))
        tracer.run_job(1, lambda: Coefficient(a1.num, a1.num))  # constant only after cancelling
    finally:
        tracer.uninstall()
    assert tracer.unresolved == []
    m = layer_metrics(tracer)
    assert m["coeffs.canon.calls"] == 2
    assert m["coeffs.canon.const_frac"] == 0.5


# bindings made by `from .x import name` and class attributes bound to the same function
IMPORTED_BINDINGS = [
    ("coeffs", "poly_gcd"), ("coeffs", "divexact"), ("series", "apply_place"),
    ("analytic", "eval_poly"), ("analytic", "rref"), ("linalg", "divexact"),
    ("valuation_spaces", "finite_place_for"), ("valuation_spaces", "in_span"),
    ("valuation_spaces", "null_combination"), ("valuation_spaces", "unit_pow"),
    ("cli", "exp"), ("cli", "unit_pow"), ("cli", "parse_expression"), ("cli", "tensor_basis"),
]


def test_every_binding_of_a_target_is_wrapped():
    import importlib

    tracer = Tracer().install()
    try:
        assert tracer.unresolved == []
        for module, name in IMPORTED_BINDINGS:
            value = getattr(importlib.import_module(f"hahnseries.{module}"), name)
            assert hasattr(value, "__wrapped__"), f"{module}.{name}"
        assert hasattr(TruncatedSeries.__dict__["__radd__"], "__wrapped__")
        assert hasattr(TruncatedSeries.__dict__["__rmul__"], "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(TruncatedSeries.__dict__["__rmul__"], "__wrapped__")


def test_exact_call_counts_on_a_tiny_job():
    f = TruncatedSeries([(0, 1), (1, 2)], 4)
    g = TruncatedSeries([(0, 3), (2, 5)], 4)
    tracer = Tracer().install()
    try:
        missed = tracer.check_bindings(lambda: f * g)
        tracer.reset()
        tracer.run_job(0, lambda: f * g)
    finally:
        tracer.uninstall()
    assert missed == {}
    m = layer_metrics(tracer)
    assert m["series.mul.calls"] == 1
    assert m["series.mul.term_pairs"] == 4
    assert m["analytic.exp.calls"] == 0
    assert m["series.mul.kept_frac"] == 1.0
    assert TruncatedSeries.__mul__ is TruncatedSeries.__rmul__  # restored


def canon(x):
    if isinstance(x, BasisFamily):
        return ("basis", [str(e) for e in x.entries])
    if isinstance(x, (list, tuple)):
        return [canon(y) for y in x]
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    return repr(x)


@pytest.mark.parametrize("name", sorted(IN_PROCESS))
def test_wrappers_leave_outputs_identical(name):
    wl, jobs = small_pass(name)
    plain = [canon(o) for o in run_jobs(wl, jobs)]
    probes = [wl.prepare(j) for j in run.probe_jobs(wl, jobs)]
    tracer = Tracer().install()
    try:
        for probe in probes:
            assert tracer.check_bindings(lambda p=probe: run.run_call(p)) == {}
        traced = [canon(o) for o in run_jobs(wl, jobs)]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert len(tracer.start) > 0


def test_cli_replay_wraps_every_subcommand():
    wl = W.CliSubprocess(HERE.parent)
    jobs = wl.generate(random.Random("cli-subprocess/1/0"), set())
    probes = run.probe_jobs(wl, jobs)
    assert {j.kind for j in probes} >= set(W.GOLDEN_CASES)
    calls = [run._in_process_cli(j) for j in probes]
    tracer = Tracer().install()
    try:
        for call in calls:
            assert tracer.check_bindings(lambda c=call: run.run_call(c)) == {}
    finally:
        tracer.uninstall()


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
