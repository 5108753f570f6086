"""Time-to-price benchmark of smoothquad.

    python3 perfbench/run.py --workload bs_asg|bs_sampling|cli_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs
in a fresh single-threaded Python process, one at a time; repetitions
go on until the next one would end after S seconds (there are always at
least two).  Every price is checked against a stored reference.
Per-case records and machine facts go to
``.perfbench/<workload>-seed<N>-trace<T>.json``.

The last line of standard output is one JSON object.  With ``--trace 0``
its metrics are the end-to-end medians over the repetitions, with times
scaled by the workers' speed probe (see worker.SpeedProbe); with
``--trace 1`` pairs of an untraced and a traced repetition run, at
least two and in alternating order, and the metrics are the per-layer
medians over the traced ones plus the tracing overhead, the median of
the paired differences in ``solve_s``.  See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from worker import EXPECTED_RECORDS, WORKLOADS, derive_seeds, reference_keys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
STORED_REFERENCES = HERE / "references.json"

# A price passes when its absolute error is within Z standard errors
# (sampling methods), or within the requested tolerance, which bounds the
# estimator sum eta in price units (adaptive methods), plus the
# reference's own uncertainty.
Z = 6.0
MEDIAN_SE_FACTOR = math.sqrt(math.pi / 2.0)
RUN_LIMIT_S = 170.0
# Least repetitions of a run, so that no run's figure is one sample
MIN_REPS = 2
TRACE_PAIRS = 2
SINGLE_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Cases that fail at the commit that added this benchmark, by case key.
# They count in ``failed``; any other failing case makes ``correct`` false.
KNOWN_FAILURES = {
    "api/aSG+CS2/bs:25:2/tol=0.001": "OrderOutOfRange: asks for Gauss-Hermite order 287",
    "api/aSG+CS2/bs:25:2/tol=0.01": "eta 9.9e-3 underestimates the error 1.05e-2",
    "vg/aSG+CS/vg:ls15/tol=0.01": "eta underestimates the error 4.9e-2",
}


class WorkerFailed(Exception):
    pass


def _run_worker(argv, log_path, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in SINGLE_THREAD_VARS})
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=WORK,
        )
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerFailed(f"worker ran out of time; log in {log_path}")
    if code != 0:
        raise WorkerFailed(f"worker exited with {code}; log in {log_path}")


def load_references(keys):
    """The stored references of the given instances."""
    table = json.loads(STORED_REFERENCES.read_text(encoding="utf-8"))
    return {key: table[key] for key in keys}


def run_rep(workload, seed, trace, index, deadline):
    out = WORK / f"rep-{workload}-{index}-trace{trace}.json"
    start = time.perf_counter()
    argv = ["rep", workload, str(seed), str(trace), repr(start), str(out)]
    _run_worker(argv, out.with_suffix(".log"), deadline)
    result = json.loads(out.read_text(encoding="utf-8"))
    result["wall_s"] = time.perf_counter() - start
    return result


def case_key(rec):
    size = f"tol={rec['tol']:g}" if "tol" in rec else f"n={rec.get('n', '-')}"
    return f"{rec.get('verb', 'api')}/{rec['method']}/{rec['instance']}/{size}"


def check(rec, refs):
    """Attach the errors and the bound; True if the price passes."""
    price = rec.get("price")
    if rec.get("status") != "ok" or price is None or not math.isfinite(price):
        return False
    ref = refs[rec["instance"]]
    value = ref["value"]
    if "tol" in rec:
        bound = rec["tol"] + ref["uncertainty"]
    else:
        se = ref["sigma"][rec["integrand"]] / math.sqrt(rec["n"])
        if rec["runs"] > 1:
            se *= MEDIAN_SE_FACTOR / math.sqrt(rec["runs"])
        bound = Z * se + ref["uncertainty"]
    rec["abs_err"] = abs(price - value)
    rec["rel_err"] = rec["abs_err"] / abs(value)
    rec["bound"] = bound
    return rec["abs_err"] <= bound


def _outputs(result):
    """Everything a repetition computed, without its timings."""
    return [{k: v for k, v in r.items() if k != "seconds"} for r in result["records"]]


def _machine():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def _print_cases(records):
    for r in records:
        size = f"tol={r['tol']:.0e}" if "tol" in r else f"n={r.get('n', '')}"
        err = f"{r['abs_err']:.2e}" if "abs_err" in r else "-"
        bound = f"{r['bound']:.2e}" if "bound" in r else "-"
        price = "-" if r.get("price") is None else repr(r["price"])
        if r["passed"]:
            verdict = "passed"
        else:
            verdict = "known-failure" if case_key(r) in KNOWN_FAILURES else "FAILED"
        print(
            f"case {r.get('verb', 'api'):8s} {r['method']:9s} {r['instance']:12s} "
            f"{size:10s} price={price} abs_err={err} bound={bound} "
            f"seconds={r['seconds']:.3f} status={r['status']} {verdict}"
        )


def _repeat(run, seconds, deadline, minimum):
    """Call ``run(i)`` until the next call would end after ``seconds``."""
    results = []
    begin = time.monotonic()
    while True:
        results.append(run(len(results)))
        if len(results) < minimum:
            continue
        longest = max(r["wall_s"] for r in results)
        now = time.monotonic()
        if now - begin + longest > seconds or now + longest > deadline:
            return results


def _pair(workload, seed, index, deadline):
    """An untraced and a traced repetition; odd pairs run the traced one first."""
    order = (1, 0) if index % 2 else (0, 1)
    reps = {trace: run_rep(workload, seed, trace, index, deadline) for trace in order}
    return {"untraced": reps[0], "traced": reps[1],
            "wall_s": reps[0]["wall_s"] + reps[1]["wall_s"]}


def _median_metrics(per_rep):
    return {
        name: {
            "value": statistics.median(m[name]["value"] for m in per_rep),
            "unit": per_rep[0][name]["unit"],
        }
        for name in per_rep[0]
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "smoothquad" / "__init__.py").is_file():
        print(f"perfbench: no smoothquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    seeds = derive_seeds(args.seed)
    machine = _machine()
    refs = load_references(reference_keys(args.workload))
    try:
        if args.trace:
            pairs = _repeat(
                lambda i: _pair(args.workload, args.seed, i, deadline),
                args.seconds, deadline, TRACE_PAIRS,
            )
            untraced = [p["untraced"] for p in pairs]
            traced = [p["traced"] for p in pairs]
        else:
            untraced = _repeat(
                lambda i: run_rep(args.workload, args.seed, 0, i, deadline),
                args.seconds, deadline, MIN_REPS,
            )
            traced = []
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    reps = untraced + traced

    attempted = failed = 0
    unexpected = []
    expected = EXPECTED_RECORDS[args.workload]
    counts_ok = all(len(r["records"]) == expected for r in reps)
    for result in reps:
        for rec in result["records"]:
            attempted += 1
            rec["passed"] = check(rec, refs)
            if not rec["passed"]:
                failed += 1
                if case_key(rec) not in KNOWN_FAILURES:
                    unexpected.append(case_key(rec))
    # repetitions of one seed, traced or not, must compute the same things
    same = all(_outputs(r) == _outputs(reps[0]) for r in reps[1:])
    restored = all(r["restored"] for r in reps)
    correct = counts_ok and not unexpected and same and restored
    errors = [rec["rel_err"] for r in reps for rec in r["records"] if "rel_err" in rec]

    summary = {
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "solve_s": statistics.median(r["solve_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "failed_frac": failed / attempted,
        "max_rel_err": max(errors, default=float("nan")),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in untraced),
        "solve_wall_s": statistics.median(r["solve_wall_s"] for r in untraced),
        "speed": statistics.median(r["speed"] for r in untraced),
    }
    units = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
             "failed_frac": "ratio", "max_rel_err": "ratio",
             "setup_wall_s": "s", "solve_wall_s": "s", "speed": "ratio"}
    _print_cases(reps[0]["records"])
    for key in sorted(set(unexpected)):
        print(f"perfbench: unexpected failure {key}", file=sys.stderr)
    if not counts_ok:
        print(f"perfbench: a repetition did not give {expected} records", file=sys.stderr)
    print(
        f"summary workload={args.workload} seed={args.seed} reps={len(untraced)} "
        + " ".join(f"{k}={v:.6g} {units[k]}" for k, v in summary.items())
    )
    if args.trace:
        metrics = _median_metrics([layer_metrics(r["spans"]) for r in traced])
        diffs = [t["solve_s"] - u["solve_s"] for u, t in zip(untraced, traced)]
        overhead = statistics.median(diffs)
        spread = max(r["solve_s"] for r in untraced) - min(r["solve_s"] for r in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for hook in traced[0]["missing_hooks"]:
            print(f"perfbench: traced name {hook} not found", file=sys.stderr)
        resolved = "" if abs(overhead) > spread else " (unresolved: within the untraced spread)"
        print(
            f"trace identical={same} restored={restored} pairs={len(traced)} "
            f"overhead_s={overhead:.4f} untraced_spread_s={spread:.4f}{resolved}"
        )
    else:
        metrics = {
            k: {"value": summary[k], "unit": units[k]}
            for k in ("setup_s", "solve_s", "peak_rss_mb")
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "derived_seeds": seeds,
        "trace": args.trace,
        "machine": machine,
        "references": refs,
        "summary": summary,
        "identical_reps": same,
        "unexpected_failures": unexpected,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"records {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
