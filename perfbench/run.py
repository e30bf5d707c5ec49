"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload rational-dense --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the library is imported from the
checkout's ``src`` directory and from nowhere else.  Each workload is a
closed loop with one client: the next job starts when the previous one
has returned.  The job list is fixed by the seed and ``--seconds``
(whole passes of equal composition, at least 100 jobs), so two commits
run the same jobs.  Outputs are verified outside the timed region.
Durations are wall times scaled by an interleaved calibration probe (see
``Clock``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same jobs untraced, then replays the first passes (about TRACE_SECONDS
of work) twice, plain and with every library layer wrapped, and prints
the per-layer metrics.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3
MIN_JOBS = 100
SETUP_REPEATS = 9
SPAWN_REPEATS = 5
CAL_ITERATIONS = 150
CAL_REF_S = 0.00055  # the loop's time on a quiet host of the kind used to build this
SPAWN_REF_S = 0.066  # `python -c pass` on that host, for the clock of cli-subprocess
TRACE_SECONDS = 2.0  # untraced work the traced replay covers, in whole passes

END_TO_END = {
    "total_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; the traced run reports all of them, with
# zeros for layers a workload does not reach
PER_LAYER = {}
for _layer in (
    "exponents.ops", "polynomials.gcd", "polynomials.divexact", "polynomials.mul",
    "polynomials.sqrt", "coeffs.canon", "coeffs.place", "coeffs.place_scan",
    "series.mul", "series.inv", "series.add", "series.specialize", "series.eval_poly",
    "analytic.exp", "analytic.log", "analytic.pow", "analytic.hensel",
    "analytic.puiseux", "analytic.ratrec", "linalg.rref", "linalg.span",
    "valuation_spaces.indep", "valuation_spaces.optapprox", "valuation_spaces.chain",
    "valuation_spaces.inclexcl", "valuation_spaces.multinclexcl",
    "valuation_spaces.restexp", "valuation_spaces.skeleton", "valuation_spaces.tensor",
    "parsing.parse",
):
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "polynomials.gcd.nontrivial_frac": "frac",
    "coeffs.canon.const_frac": "frac",
    "coeffs.place_scan.candidates": "count",
    "coeffs.place_scan.hit_frac": "frac",
    "series.mul.term_pairs": "count",
    "series.mul.kept_frac": "frac",
    "linalg.rref.cells": "count",
    "series.inv.slope": "ratio",
    "analytic.exp.slope": "ratio",
    "analytic.hensel.slope": "ratio",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.spawn_s": "s",
    "trace.overhead_frac": "frac",
})

# ladder kinds of rational-dense whose latency-vs-terms slope is reported
SLOPES = {"inv": "series.inv.slope", "exp": "analytic.exp.slope", "hensel": "analytic.hensel.slope"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import hahnseries from the checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hahnseries" / "__init__.py").is_file():
        fail(f"no library at {src / 'hahnseries'}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import hahnseries

    if Path(hahnseries.__file__).resolve().parent != (src / "hahnseries").resolve():
        fail(f"hahnseries was imported from {hahnseries.__file__}, not from {src}")


def child_seconds(code):
    """Wall time of ``python -c code`` run from the checkout, and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, timeout=120, check=True
    )
    return time.perf_counter() - t0, done.stdout


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hahnseries, hahnseries.cli; "
    "print(time.perf_counter() - t)"
)


WORKLOADS = {
    "rational-dense": lambda W: W.RationalDense(),
    "symbolic-coeffs": lambda W: W.SymbolicCoeffs(),
    "valuation-bases": lambda W: W.ValuationBases(),
    "cli-subprocess": lambda W: W.CliSubprocess(ROOT),
}


def make_workload(name):
    import workloads

    if name not in WORKLOADS:
        fail(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](workloads)


def pass_rng(workload, seed, index):
    return random.Random(f"{workload.name}/{seed}/{index}")


def _calibration_loop():
    """Fixed work of the same nature as the library's: Fraction
    arithmetic and dict stores of tuple keys, all pure Python."""
    acc, seen = Fraction(0), {}
    for i in range(1, CAL_ITERATIONS):
        acc += Fraction(i % 7 + 1, i)
        seen[(i, i % 5)] = acc
    return acc


def _best_loop():
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Wall time scaled to a reference host speed.

    The host's speed drifts by tens of percent within seconds (the CPU is
    shared), which swamps the differences the benchmark must resolve.  So
    a probe is timed before every job and at the end of each pass; a job's
    duration is its wall time times `ref` over the median of the `window`
    probes just before and the `window` just after it.  The default probe
    is a fixed pure-Python loop (best of three) with ref CAL_REF_S.  Raw
    wall times are printed alongside.
    """

    def __init__(self, probe=_best_loop, ref=CAL_REF_S, window=1):
        self.probe, self.ref, self.window = probe, ref, window
        self.marks = []  # (time, probe seconds)
        self.calibrate()

    def calibrate(self):
        seconds = self.probe()
        self.marks.append((time.perf_counter(), seconds))

    def scale(self, start, end):
        """Factor for a job that ran from start to end (before the next mark)."""
        i = max(bisect.bisect_right(self.marks, (start, math.inf)) - 1, 0)
        near = self.marks[max(i - self.window + 1, 0): i + 1 + self.window]
        return self.ref / statistics.median(s for _, s in near)


def job_clock(name):
    """The clock of a workload's set-up and timed jobs.  The in-process
    loop does not follow the speed at which a new interpreter starts (on
    the build host it ran 1.7x faster while child starts got slower), so
    cli-subprocess is scaled by the start of `python -c pass` instead,
    over three probes on each side to damp the noise of single spawns."""
    if name == "cli-subprocess":
        return Clock(lambda: child_seconds("pass")[0], SPAWN_REF_S, window=3)
    return Clock()


def run_call(call):
    """Run one job; returns (outcome, start, end).  Any exception is kept
    as the outcome, because the oracle decides whether it was expected."""
    t0 = time.perf_counter()
    try:
        outcome = ("ok", call())
    except Exception as err:  # noqa: BLE001  (judged by the oracle)
        outcome = ("raised", err)
        err.perfbench_traceback = traceback.format_exc()
    return outcome, t0, time.perf_counter()


def timed(clock, jobs, calls):
    """Run jobs in order; returns [(job, outcome, scaled seconds, wall seconds)]."""
    raw = []
    for job, call in zip(jobs, calls):
        clock.calibrate()
        raw.append((job, *run_call(call)))
    clock.calibrate()
    return [(job, out, (end - start) * clock.scale(start, end), end - start) for job, out, start, end in raw]


def setup_once(clock, name, seed):
    """One set-up: import (timed in a fresh child), generation of the first
    pass and a warm-up on jobs of another seed stream; scaled seconds."""
    clock.calibrate()
    import_s = float(child_seconds(IMPORT_PROBE)[1])
    t0 = time.perf_counter()
    workload = make_workload(name)
    seen = set()
    first = workload.generate(pass_rng(workload, seed, 0), seen)
    warm = make_workload(name).generate(random.Random(f"warm-up/{seed}"), set())
    warm = [j for j in warm if j.kind != "golden"][: workload.warmup_jobs]
    for job in warm:
        run_call(workload.prepare(job))
    end = time.perf_counter()
    clock.calibrate()
    scale = clock.scale(t0, end)
    return (import_s * scale, (end - t0) * scale), workload, seen, first


def run_untraced(clock, workload, seed, seconds, first, seen, keep):
    """The timed loop over whole passes.  Each pass is verified right after
    it ran, outside the timed region; then its outputs and input data are
    dropped, so memory and collector work do not grow with the run.

    Returns the records [(job without its data, None, scaled seconds, wall
    seconds)], the jobs of the first `keep` passes and the failures.
    """
    n_passes = max(MIN_PASSES, math.ceil(seconds / workload.pass_seconds))
    records, kept, failures, pass_sums = [], [], [], []
    jobs, index = first, 0
    while index < n_passes or len(records) < MIN_JOBS:
        calls = [workload.prepare(job) for job in jobs]
        # the collector then scans only what the pass itself allocates
        gc.collect()
        gc.freeze()
        done = timed(clock, jobs, calls)
        failures += verify(workload, seed, done, "untraced", len(records))
        pass_sums.append(sum(r[2] for r in done))
        records += [(dataclasses.replace(job, spec=None), None, scaled, wall) for job, _, scaled, wall in done]
        if index < keep:
            kept += jobs
        index += 1
        jobs = workload.generate(pass_rng(workload, seed, index), seen)
    wall = sum(r[3] for r in records)
    print(f"wall seconds of the timed jobs {wall:.4f}, scaled {sum(r[2] for r in records):.4f}")
    print("scaled seconds per pass: " + " ".join(f"{x:.4f}" for x in pass_sums))
    return records, kept, failures


def verify(workload, seed, records, tag, offset=0):
    """Oracle on every job, outside the timed region.

    Returns the failures as (line, wrong) pairs: wrong is False when the
    operation gave no answer where one was expected (an exception, or a
    CLI exit code other than 0) and True for a wrong answer, including a
    missing refusal and a crash of the oracle.
    """
    failures = []
    for i, (job, outcome, *_) in enumerate(records, start=offset):
        rng = random.Random(f"check/{tag}/{seed}/{i}")
        wrong = not workload.gave_no_answer(job, outcome)
        try:
            msg = workload.check(job, outcome, rng)
        except Exception:  # noqa: BLE001  (an oracle crash is a failed job)
            msg, wrong = "oracle crashed: " + traceback.format_exc(), True
        if msg is None:
            continue
        tb = getattr(outcome[1], "perfbench_traceback", "")
        failures.append((f"{job.kind}/{job.size} #{i}: {msg}\n{tb}".rstrip(), wrong))
    return failures


def finish(workload):
    """Failures (all wrong answers) of the checks a workload deferred to
    the end of the run."""
    return [(f"{job.kind}/{job.size} (deferred): {msg}", True) for job, msg in workload.finish() if msg]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def report_latencies(records):
    """Informational lines: per-kind and per-size medians."""
    by = {}
    for job, _, dt, _ in records:
        by.setdefault((job.kind, job.size), []).append(dt)
    for (kind, size), ds in sorted(by.items()):
        print(f"latency {kind} size={size}: median {statistics.median(ds) * 1e3:.3f} ms over {len(ds)}")


def slope(points):
    """Least-squares slope of log(latency) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ladder_slopes(records):
    out = {}
    for kind, metric in SLOPES.items():
        by = {}
        for job, _, dt, _ in records:
            if job.kind == kind and job.size:
                by.setdefault(job.size, []).append(dt)
        out[metric] = slope([(n, statistics.median(ds)) for n, ds in sorted(by.items())]) if len(by) > 1 else 0.0
    return out


def print_result(correct, attempted, failed, values, units):
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def end_to_end(records, failures, setups, rss):
    durations = [r[2] for r in records]
    p90 = percentile(durations, 90)
    beyond = sum(d > p90 for d in durations)
    print(f"jobs {len(records)}; p90 has {beyond} samples beyond it")
    return {
        "total_s": sum(durations),
        "job_p50_ms": statistics.median(durations) * 1e3,
        "job_p90_ms": p90 * 1e3,
        "ok_frac": (len(records) - len(failures)) / len(records),
        "setup_s": statistics.median(a + b for a, b in setups),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# traced run


def in_process_calls(workload, jobs):
    """Prepared calls; the CLI workload replays its argvs through
    hahnseries.cli.main in this process."""
    prepare = workload.prepare if workload.name != "cli-subprocess" else _in_process_cli
    return [prepare(job) for job in jobs]


def _in_process_cli(job):
    import hahnseries.cli as cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(job.spec[0]))
            except SystemExit as stop:  # argparse's usage errors
                code = stop.code
        return code, out.getvalue().encode()

    return run


def cli_spawn_costs(clock):
    def scaled(code):
        clock.calibrate()
        t0 = time.perf_counter()
        child_seconds(code)
        end = time.perf_counter()
        clock.calibrate()
        return (end - t0) * clock.scale(t0, end)

    spawn = statistics.median(scaled("pass") for _ in range(SPAWN_REPEATS))
    imported = statistics.median(scaled("import hahnseries.cli") for _ in range(SPAWN_REPEATS))
    return {"cli.spawn_s": spawn, "cli.import_s": imported - spawn}


def probe_jobs(workload, jobs):
    """The first job of every probe key: of every kind and size, apart
    from the ladder sizes, and for the CLI of every subcommand."""
    return list({workload.probe_key(job): job for job in reversed(jobs)}.values())


def traced(workload, jobs, records):
    """Per-layer values, the replayed records and the problems that make
    the traced run incorrect (unwrapped bindings, unresolved targets)."""
    from spans import Tracer, layer_metrics

    clock = Clock()  # the replay runs in this process, also for the CLI
    values = {k: 0.0 for k in PER_LAYER}
    if workload.name == "rational-dense":
        values.update(ladder_slopes(records))
    if workload.name == "cli-subprocess":
        values.update(cli_spawn_costs(clock))
    plain = timed(clock, jobs, in_process_calls(workload, jobs))
    # inputs are built before the wrappers go in, so only the jobs are traced
    probes = in_process_calls(workload, probe_jobs(workload, jobs))
    calls = in_process_calls(workload, jobs)
    tracer = Tracer().install()
    try:
        missed = Counter()
        for probe in probes:
            missed.update(tracer.check_bindings(lambda p=probe: run_call(p)))
        tracer.reset()
        spans = timed(clock, jobs, [lambda i=i, c=c: tracer.run_job(i, c) for i, c in enumerate(calls)])
    finally:
        tracer.uninstall()
    problems = [f"unwrapped binding: {name} ran {n} times outside the wrappers" for name, n in missed.items()]
    problems += [f"wrapper target not found: {module}.{path}" for module, path in tracer.unresolved]
    for line in problems + [f"optional wrapper target not found: {m}.{p}" for m, p in tracer.absent]:
        print(line)
    layer = layer_metrics(tracer, {i: r[2] / r[3] for i, r in enumerate(spans)})
    values.update({k: v for k, v in layer.items() if k in PER_LAYER})
    values["trace.overhead_frac"] = sum(r[2] for r in spans) / sum(r[2] for r in plain) - 1
    print(f"traced {len(spans)} jobs, {len(tracer.start)} spans, {len(probes)} jobs probed for bindings")
    return values, plain + spans, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    load_library()
    first_import = time.perf_counter() - t0

    clock = job_clock(args.workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, workload, seen, first = setup_once(clock, args.workload, args.seed)
        setups.append(seconds)
    print(f"in-process import {first_import:.4f} s; set-ups (s, import + rest): "
          + ", ".join(f"{a:.4f} + {b:.4f}" for a, b in setups))

    keep = math.ceil(TRACE_SECONDS / workload.pass_seconds) if args.trace else 0
    records, replayed, failures = run_untraced(clock, workload, args.seed, args.seconds, first, seen, keep)
    rss = peak_rss_mb(children=args.workload == "cli-subprocess")
    attempted = len(records)
    problems = []
    if args.trace == 0:
        failures += finish(workload)
        values, units = end_to_end(records, failures, setups, rss), END_TO_END
    else:
        values, extra, problems = traced(workload, replayed, records)
        failures += verify(workload, args.seed, extra, "traced") + finish(workload)
        attempted += len(extra)
        units = PER_LAYER
    report_latencies(records)
    for line, wrong in failures[:20]:
        print("WRONG" if wrong else "FAILED", line)
    wrong = sum(w for _, w in failures)
    print(f"{len(failures)} jobs failed, {wrong} of them with a wrong answer")
    print_result(not wrong and not problems, attempted, len(failures), values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
