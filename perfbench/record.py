"""Run the benchmark over several seeds and record the results as JSON.

    python3 perfbench/record.py --out perfbench/results/set-1.json --seeds 1-10
    python3 perfbench/record.py --out traced.json --seeds 1 --trace 1

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
from the root of the checkout.  For each workload and end-to-end metric
it reports the median, the quartiles and the spread (distance between
the first and third quartile over the median), and whether the spread is
below a third of the metric's bound in BENCHMARK.json.  The per-size
latency lines of every run are kept, so the size ladder can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAILURE_TAGS = ("FAILED", "WRONG")  # run.py's lines for failed jobs


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    result.update(
        workload=workload,
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
        notes=[ln for ln in lines[:-1] if not ln.startswith(FAILURE_TAGS)],
        failures=[ln for ln in lines[:-1] if ln.startswith(FAILURE_TAGS)],
    )
    return result


def summary(runs, bounds):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            if name in bounds:
                entry["spread_below_third_of_bound"] = entry["spread"] < bounds[name] / 3
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [one_run(name, s, spec["run_seconds"], args.trace) for s in seeds_of(args.seeds)]
        report["workloads"][name] = {"summary": summary(runs, bounds), "runs": runs}
        for metric, entry in report["workloads"][name]["summary"].items():
            print(f"{name} {metric}: median {entry['median']:.6g} spread {entry.get('spread', 0):.4f}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
