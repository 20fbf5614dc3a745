"""Benchmark of the howechar command line, end to end and layer by layer.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
src/ directory, nothing is installed.  A run is a series of rounds until
--seconds is used up (a round is started only if it is expected to end in
time; at least one always runs).  Each round is a fresh Python process
(bench_round.py) that runs the workload's op list once, so no cache carries over
and the import is paid every time, as a CLI user pays it.  Rounds run one
after another; each process runs with one BLAS thread and
HOWECHAR_THREADS=1.  Outputs are checked after each round, outside the
timed region, by the independent checks in checks.py.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics from layers.py.  Human-readable lines come first; the
last line of standard output is one JSON object.  The exit status is 0 when
every op of every round passed, 1 when any failed, 2 on a usage error or a
checkout without src/howechar.  Full results, and the spans of a traced run,
are written to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
ROUND = os.path.join(HERE, "bench_round.py")
ROUND_TIMEOUT_S = 150
# a run with fewer rounds than this adds empty process starts, so that its
# setup_s is always a median over several set-ups
MIN_SETUPS = 7
# integration points per order statistic for the Harrell-Davis weights
HD_GRID = 64

THREADS = "1"
PINNED_ENV = {
    "HOWECHAR_THREADS": THREADS,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = (
    ("round_s", "s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RoundFailed(Exception):
    """A round process crashed or printed no record."""


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "HOWECHAR_THREADS": THREADS,
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
    }


def run_round(ops: list[list[str]], trace: bool) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, ROUND] + (["--trace"] if trace else [])
    spawn = time.monotonic()
    proc = subprocess.run(
        cmd, input=json.dumps(ops), capture_output=True, text=True, env=env, cwd=ROOT, timeout=ROUND_TIMEOUT_S
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawn
    return record


def hd_median(xs) -> float:
    """Harrell-Davis estimate of the median (Biometrika 69, 1982).

    A weighted mean of the order statistics x_(1..n), the weight of x_(i)
    being the mass of Beta((n+1)/2, (n+1)/2) on [(i-1)/n, i/n].  It estimates
    the same median as the sample median but moves smoothly with the data:
    when the op times of a workload leave gaps of several ms between op kinds
    near the middle, the plain sample median jumps from one op kind to the
    next between runs, and this one does not.
    """
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    a = (n + 1) / 2
    t = (np.arange(n * HD_GRID) + 0.5) / (n * HD_GRID)
    log_pdf = (a - 1) * (np.log(t) + np.log1p(-t))
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, HD_GRID).sum(axis=1)
    return float(weights @ x / weights.sum())


def judge(plan: workloads.Plan, results: list[dict]) -> tuple[set[int], list[str]]:
    """Indices of the ops that failed (nonzero exit or a failed check) and why."""
    failed: set[int] = set()
    why: list[str] = []
    docs: list[dict | None] = []
    for i, r in enumerate(results):
        doc = None
        if r["rc"] != 0:
            failed.add(i)
            why.append(f"op {' '.join(plan.ops[i])} exited {r['rc']}: {r['err'].strip()[-300:]}")
        else:
            try:
                doc = json.loads(r["out"])
            except ValueError:
                failed.add(i)
                why.append(f"op {' '.join(plan.ops[i])} printed no JSON document")
        docs.append(doc)
    for check in plan.checks:
        if any(docs[i] is None for i in check.ops):
            continue
        try:
            check.fn(*(docs[i] for i in check.ops))
        except (checks.CheckFailed, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            failed.update(check.ops)
            why.append(f"check '{check.name}' failed: {type(exc).__name__}: {exc}")
    return failed, why


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plan = workloads.WORKLOADS[workload](seed)
    order = plan.order()
    ops = [plan.ops[i] for i in order]
    rounds, failures = [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        record = run_round(ops, trace)
        results = [None] * len(ops)
        for pos, i in enumerate(order):
            results[i] = record["ops"][pos]
        bad, why = judge(plan, results)
        attempted += len(ops)
        failed += len(bad)
        failures.extend(why)
        record["op_s"] = [r["s"] for r in results]
        del record["ops"]
        rounds.append(record)
        last = time.monotonic() - t
        if time.monotonic() - start + last > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(run_round([], False)["setup_s"])
    return summarize(workload, seed, seconds, trace, plan, rounds, setups, attempted, failed, failures)


def summarize(workload, seed, seconds, trace, plan, rounds, setups, attempted, failed, failures) -> dict:
    med = statistics.median
    op_s = [s for r in rounds for s in r["op_s"]]
    kinds: dict[str, list[float]] = {}
    for r in rounds:
        for argv, s in zip(plan.ops, r["op_s"]):
            kinds.setdefault(argv[0], []).append(s)
    end_to_end = {
        "round_s": med(r["round_s"] for r in rounds),
        "op_ms_p50": 1000 * hd_median(op_s),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["rss_kb"] for r in rounds) / 1024,
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "ops_per_round": len(plan.ops),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "environment": environment(),
        "end_to_end": end_to_end,
        "drift_ref_ms": 1000 * med(r["drift_s"] for r in rounds),
        "op_kind_ms_p50": {k: 1000 * med(v) for k, v in sorted(kinds.items())},
        "op_kind_count": {k: len(v) // len(rounds) for k, v in sorted(kinds.items())},
        "per_round": {key: [r[key] for r in rounds] for key in ("round_s", "rss_kb", "drift_s")},
        "setups_s": setups,
    }
    if trace:
        per_round = [r["layers"] for r in rounds]
        result["per_layer"] = {
            name: (per_round[0][name] if unit == "count" else med(p[name] for p in per_round))
            for name, unit in layers.PER_LAYER
        }
        result["unsteady_counts"] = [
            name for name, unit in layers.PER_LAYER if unit == "count" and len({p[name] for p in per_round}) > 1
        ]
        result["spans"] = [r["spans"] for r in rounds]
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines; return the object printed as the last line."""
    w = result["workload"]
    env = result["environment"]
    print(
        f"{w}: seed {result['seed']}, {result['rounds']} rounds of {result['ops_per_round']} ops, "
        f"trace {result['trace']}; python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"HOWECHAR_THREADS {env['HOWECHAR_THREADS']}, BLAS threads {env['blas_threads']}"
    )
    units = dict(END_TO_END)
    for name, v in result["end_to_end"].items():
        print(f"  {name:<12} {v:12.6g} {units[name]}")
    print(f"  drift_ref_ms {result['drift_ref_ms']:12.6g} ms  (pure-Python reference loop; printed, never gated)")
    for kind, v in result["op_kind_ms_p50"].items():
        print(f"  op {kind:<16} median {v:10.4g} ms over {result['op_kind_count'][kind]} ops/round")
    if result["trace"]:
        for name, unit in layers.PER_LAYER:
            print(f"  {name:<46} {result['per_layer'][name]:14.6g} {unit}")
        for name in result["unsteady_counts"]:
            print(f"  warning: count {name} differed between rounds")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": units[name]} for name, _ in END_TO_END}
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    for line in result["failures"]:
        print(f"  FAIL {line}")
    correct = result["failed"] == 0
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def save(result: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "-trace" if result["trace"] else ""
    path = os.path.join(OUT_DIR, f"{result['workload']}-seed{result['seed']}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "howechar", "cli.py")):
        print(f"no howechar sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            save(result)
            line = report(result)
            if len(names) == 1:
                summary = line
                break
            print(json.dumps(line))
            summary["correct"] &= line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            summary["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
