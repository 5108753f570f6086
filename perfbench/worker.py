"""One benchmark repetition, or the reference computation, in a fresh process.

    python3 perfbench/worker.py rep WORKLOAD SEED TRACE T0 OUT
    python3 perfbench/worker.py refs OUT KEY [KEY ...]

``run.py`` starts it with the checkout's ``src`` on PYTHONPATH.  ``rep``
builds the workload's inputs from the seed, times set-up from ``T0`` (the
parent's ``time.perf_counter()`` just before the process started) and every
pricing call, both as wall time and scaled by a speed probe, and writes the
case records as JSON to OUT.  ``refs``
computes reference prices with their provenance and the per-sample
standard deviations the price checks need; ``perfbench/references.json``
is its output for the benchmark's instances.  The package is imported only
inside functions, so ``run.py`` can import the workload table and seeds
without it.
"""

import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# Seed 0 reproduces the documented streams: MC stream seed 55 and MC
# seed 4 for the ls15 example.  Any other seed derives fresh ones.
DEFAULT_SEEDS = {"mc_stream": 55, "vg_mc": 4}

# The instances are the same for every seed, because their sparse-grid
# work varies far more across instances than any time bound could absorb:
# at d=8, 41,381 to 3,365,809 evaluations at tol 1e-8 over eight instance
# seeds; at d=25, 160,775 to 625,131 at tol 1e-4 over instance seeds 2-7.
# The cli's converge sweep also takes its MC streams from the instance
# seed, so its streams stay fixed too.
BS8_SEED = 208
BS25_SEED = 2

MC_N = 3 * 6**6  # 139,968 samples per Monte Carlo run
QMC_N = 2**18
CV_N = 2**16
PILOT_N = 2**16
PILOT_SEED = 7_000_003
REF_MAX_EVALS = 2 * 10**7
# VG reference tolerances, finest first; the first feasible one is used
VG_REF_TOLS = (1e-7, 1e-6, 1e-5)

ASG_TOLS = (1e-2, 1e-4, 1e-6, 1e-8)
BS25_TOL = 3e-3
CONVERGE_BUDGETS = tuple(3 * 6**q for q in range(1, 6))
VG_BUDGETS = tuple(3 * 6**q for q in range(2, 6))
# The cli prices its VG reference at tol_schedule's minimum / 100, so 1e-2
# keeps it at 1e-4: still cold Laguerre builds, a few seconds in all.
VG_TOLS = (1e-2,)
CONVERGE_METHODS = {
    "MC": ("raw", 20),
    "QMC": ("raw", 1),
    "QMC+CS": ("cs", 1),
    "aSG+CS": None,
    "aSG+CS2": None,
    "MC+CS+CV": ("cv_res", 20),
}
VG_METHODS = {
    "MC": ("vg_raw", 20),
    "MC+CS": ("vg_cs", 20),
    "aSG+CS": None,
    "aSG+CS2": None,
}


def _asg_step(method, key, integrand, tol):
    from smoothquad import pricing
    from smoothquad.errors import BudgetExhausted

    def step():
        try:
            value, state = pricing.price_asg(integrand, tol)
            status = "ok"
        except BudgetExhausted as exc:
            value, state, status = exc.state.value, exc.state, "BudgetExhausted"
        return [
            {
                "price": value,
                "eta": state.eta,
                "evaluations": state.evaluations,
                "distinct_points": state.distinct_points,
                "status": status,
            }
        ]

    return {"method": method, "instance": key, "tol": tol}, step


def _smoothed(d, seed):
    from smoothquad import linalg, models, pricing

    prob = models.effective_bs(models.random_instance(d, seed))
    dec = linalg.rank_one_reduce(prob.Sigma)
    return prob, dec, pricing.smoothed_integrand(prob, dec)


def bs_asg(seeds, work):
    from smoothquad import linalg, pricing

    key8 = f"bs:8:{BS8_SEED}"
    key25 = f"bs:25:{BS25_SEED}"
    _, _, g8 = _smoothed(8, BS8_SEED)
    p25, _, g25 = _smoothed(25, BS25_SEED)
    v, _ = linalg.best_binary_v(p25.Sigma)
    g25v = pricing.smoothed_integrand_v(p25, v, linalg.rank_one_reduce(p25.Sigma, v))
    steps = [_asg_step("aSG+CS", key8, g8, tol) for tol in ASG_TOLS]
    steps.append(_asg_step("aSG+CS", key25, g25, BS25_TOL))
    steps += [_asg_step("aSG+CS2", key25, g25v, tol) for tol in (1e-2, 1e-3)]
    return steps


def bs_sampling(seeds, work):
    from smoothquad import pricing, sampling

    key = f"bs:25:{BS25_SEED}"
    prob, dec, g = _smoothed(25, BS25_SEED)
    f = pricing.raw_integrand(prob, dec)

    def mc(integrand):
        def step():
            median, runs = pricing.price_mc(
                integrand, MC_N, sampling.RngSpec(seeds["mc_stream"])
            )
            return [{"price": median, "runs": len(runs), "samples": MC_N * len(runs)}]

        return step

    def single(price_call, n):
        return lambda: [{"price": price_call(), "runs": 1, "samples": n}]

    base = {"instance": key}
    return [
        ({**base, "method": "MC", "integrand": "raw", "n": MC_N}, mc(f)),
        ({**base, "method": "MC+CS", "integrand": "cs", "n": MC_N}, mc(g)),
        (
            {**base, "method": "QMC", "integrand": "raw", "n": QMC_N},
            single(lambda: pricing.price_qmc(f, QMC_N), QMC_N),
        ),
        (
            {**base, "method": "QMC+CS", "integrand": "cs", "n": QMC_N},
            single(lambda: pricing.price_qmc(g, QMC_N), QMC_N),
        ),
        (
            {**base, "method": "QMC+CS+CV", "integrand": "cv_res", "n": CV_N},
            single(lambda: pricing.price_cv(g, CV_N, mode="qmc"), CV_N),
        ),
    ]


def _config(lines, methods, budgets, tols, output):
    lines = list(lines)
    lines += [f"methods = {m}" for m in methods]
    lines += [f"budgets = {n}" for n in budgets]
    lines += [f"tol_schedule = {t!r}" for t in tols]
    lines.append(f"output = {output}")
    return "\n".join(lines) + "\n"


def _cli_step(verb, key, head, methods, budgets, tols, work):
    """One ``cli.main`` call with default flags; one record per CSV row."""
    from smoothquad import cli

    config = work / f"{verb}.conf"
    output = work / verb
    config.write_text(_config(head, methods, budgets, tols, output), encoding="utf-8")
    expected = []
    for method, sampled in methods.items():
        for x in budgets if sampled else tols:
            row = {"method": method}
            if sampled:
                row.update(integrand=sampled[0], runs=sampled[1], n=x, samples=x * sampled[1])
            else:
                row["tol"] = x
            expected.append(row)

    def step():
        code = cli.main([verb, "--config", str(config)])
        if code != 0:
            return [{"price": None, "status": f"exit {code}"}]
        text = Path(f"{output}.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != [e["method"] for e in expected]:
            return [{"price": None, "status": "unexpected rows"}]
        out = []
        for exp, (_, n_points, estimate, _, seconds, status) in zip(expected, rows):
            rec = dict(exp, price=float(estimate) if estimate else None, status=status)
            rec["seconds"] = float(seconds)
            if "tol" in exp:
                rec["evaluations"] = int(n_points)
            out.append(rec)
        # the CSV without its seconds column, for the traced-run comparison
        out[0]["csv"] = "\n".join(",".join(r[:4] + r[5:]) for r in rows)
        return out

    return {"verb": verb, "method": verb, "instance": key}, step


def cli_sweep(seeds, work):
    converge = _cli_step(
        "converge",
        f"bs:8:{BS8_SEED}",
        ["model = bs", "d = 8", f"seed = {BS8_SEED}", "strike_mode = atm"],
        CONVERGE_METHODS,
        CONVERGE_BUDGETS,
        ASG_TOLS,
        work,
    )
    vg = _cli_step(
        "vg",
        "vg:ls15",
        ["example = ls15", f"seed = {seeds['vg_mc']}"],
        VG_METHODS,
        VG_BUDGETS,
        VG_TOLS,
        work,
    )
    return [converge, vg]


WORKLOADS = {"bs_asg": bs_asg, "bs_sampling": bs_sampling, "cli_sweep": cli_sweep}
# Records one repetition of each workload writes when every call returns
EXPECTED_RECORDS = {
    "bs_asg": len(ASG_TOLS) + 3,
    "bs_sampling": 5,
    "cli_sweep": sum(
        len(budgets if sampled else tols)
        for methods, budgets, tols in (
            (CONVERGE_METHODS, CONVERGE_BUDGETS, ASG_TOLS),
            (VG_METHODS, VG_BUDGETS, VG_TOLS),
        )
        for sampled in methods.values()
    ),
}


def derive_seeds(seed: int) -> dict:
    """Stream seeds of one benchmark seed."""
    if seed == 0:
        return dict(DEFAULT_SEEDS)
    return {
        role: int.from_bytes(
            hashlib.sha256(f"{seed}/{role}".encode()).digest()[:4], "little"
        )
        for role in DEFAULT_SEEDS
    }


def reference_keys(workload: str) -> list:
    """Keys of the reference instances the workload's cases are checked on."""
    bs8, bs25 = f"bs:8:{BS8_SEED}", f"bs:25:{BS25_SEED}"
    return {
        "bs_asg": [bs8, bs25],
        "bs_sampling": [bs25],
        "cli_sweep": [bs8, "vg:ls15"],
    }[workload]


# On a virtual machine whose host also runs other tenants, their load can
# slow the same work by up to 2x, for seconds to hours at a time.
# A fixed pure-Python loop, timed from a SIGALRM handler every
# PROBE_INTERVAL_S all through a repetition, follows that slow-down, and
# every time the benchmark reports is scaled by it to the speed at which
# the loop takes PROBE_REF_S (see ``SpeedProbe``).  Wall times are kept
# beside the scaled ones.
PROBE_INTERVAL_S = 0.02
PROBE_LOOP = 1500
PROBE_REF_S = 1.3e-4
# Probes in the running median that gauges the speed, against outliers
PROBE_WINDOW = 5


class SpeedProbe:
    """Gauge of the core's speed over a repetition, from a timed loop."""

    def __init__(self):
        self.samples = []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        """Stop probing; build the scaled clock from the samples."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if exc[0] is not None:
            return
        if len(self.samples) < 2:
            raise SystemExit("too few speed probes; the repetition was too short")
        seconds = [d for _, d in self.samples]
        half = PROBE_WINDOW // 2
        # speed k holds from edge k-1 to edge k, halfway between probes
        self._speed = [
            PROBE_REF_S / statistics.median(seconds[max(0, k - half) : k + half + 1])
            for k in range(len(seconds))
        ]
        starts = [t for t, _ in self.samples]
        self._edges = [(a + b) / 2 for a, b in zip(starts, starts[1:])]
        self._at_edge = [0.0]
        for k in range(1, len(self._edges)):
            span = self._edges[k] - self._edges[k - 1]
            self._at_edge.append(self._at_edge[-1] + span * self._speed[k])

    def clock(self, t):
        """Scaled time at ``time.perf_counter()`` reading ``t``; it grows
        with ``t`` at the gauged speed, so differences are scaled seconds."""
        k = bisect.bisect_right(self._edges, t)
        if k == 0:
            return (t - self._edges[0]) * self._speed[0]
        return self._at_edge[k - 1] + (t - self._edges[k - 1]) * self._speed[k]

    def scaled(self, start, end):
        return self.clock(end) - self.clock(start)

    def median_speed(self, start, end):
        inside = [v for (t, _), v in zip(self.samples, self._speed) if start <= t <= end]
        return statistics.median(inside) if inside else float("nan")


def _import_package():
    import smoothquad

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(smoothquad.__file__).resolve().parents:
        raise SystemExit(f"smoothquad imported from {smoothquad.__file__}, not {src}")
    return smoothquad


def rep(workload, seed, trace, t0, out):
    with SpeedProbe() as probe:
        load_start = os.getloadavg()
        smoothquad = _import_package()
        from smoothquad.errors import SmoothQuadError

        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()

        def span(name):
            return tracer.open(name) if tracer else None

        def end(idx):
            if tracer:
                tracer.close(idx)

        idx = span("bench.setup")
        steps = WORKLOADS[workload](derive_seeds(seed), out.parent)
        end(idx)
        ready = time.perf_counter()

        records = []
        cases = []
        for base, step in steps:
            idx = span("bench.case")
            start = time.perf_counter()
            try:
                updates = step()
            except SmoothQuadError as exc:
                updates = [{"price": None, "status": type(exc).__name__}]
            finish = time.perf_counter()
            end(idx)
            cases.append((start, finish))
            records += [{**base, "seconds": finish - start, "status": "ok", **u} for u in updates]
        restored = tracer.restore() if tracer else True
    spans = []
    if tracer:
        spans = [[n, probe.clock(a), probe.clock(b), p, at] for n, a, b, p, at in tracer.spans]

    import numpy
    import scipy

    result = {
        "setup_s": probe.scaled(t0, ready),
        "solve_s": sum(probe.scaled(a, b) for a, b in cases),
        "setup_wall_s": ready - t0,
        "solve_wall_s": sum(b - a for a, b in cases),
        "speed": probe.median_speed(cases[0][0], cases[-1][1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "smoothquad": smoothquad.__version__,
        },
        "loadavg": [load_start, os.getloadavg()],
        "restored": restored,
        "missing_hooks": tracer.missing if tracer else [],
        "spans": spans,
    }
    out.write_text(json.dumps(result), encoding="utf-8")


def _sigma(integrand):
    from smoothquad import pricing, sampling

    _, se = pricing.mc_mean_se(integrand, PILOT_N, sampling.RngSpec(PILOT_SEED))
    return se * math.sqrt(PILOT_N)


def _bs_reference(d, seed):
    from smoothquad import pricing, sparsegrid
    from smoothquad.errors import BudgetExhausted

    prob, dec, g = _smoothed(d, seed)
    tol = pricing.reference_tolerance(d)
    start = time.perf_counter()
    try:
        value, state = pricing.price_asg(g, tol, max_evals=REF_MAX_EVALS)
        status = "ok"
    except BudgetExhausted as exc:
        value, state, status = exc.state.value, exc.state, "BudgetExhausted"
    seconds = time.perf_counter() - start
    interp, _ = sparsegrid.interpolant_total_degree(g, g.dim, q=2)
    residual = pricing.Integrand(g.dim, lambda p: g(p) - interp(p), "residual")
    sigma = {
        "raw": _sigma(pricing.raw_integrand(prob, dec)),
        "cs": _sigma(g),
        "cv_res": _sigma(residual),
    }
    return {
        "method": "aSG+CS",
        "value": value,
        "tol": tol,
        "eta": state.eta,
        "evaluations": state.evaluations,
        "distinct_points": state.distinct_points,
        "max_evals": REF_MAX_EVALS,
        "status": status,
        "uncertainty": state.eta,
        "seconds": seconds,
        "sigma": sigma,
    }


def _vg_attempts(model, v):
    """First feasible tolerance of VG_REF_TOLS, with the attempts made."""
    from smoothquad import pricing
    from smoothquad.errors import OrderOutOfRange

    attempts = []
    for tol in VG_REF_TOLS:
        start = time.perf_counter()
        try:
            value, state = pricing.price_vg_smoothed(model, tol, v=v)
        except OrderOutOfRange as exc:
            attempts.append({"tol": tol, "status": type(exc).__name__})
            continue
        attempts.append({"tol": tol, "status": "ok"})
        return {
            "value": value,
            "tol": tol,
            "eta": state.eta,
            "evaluations": state.evaluations,
            "distinct_points": state.distinct_points,
            "status": "ok",
            "seconds": time.perf_counter() - start,
            "attempts": attempts,
        }
    raise SystemExit(f"no feasible VG reference tolerance in {VG_REF_TOLS}")


def _vg_reference():
    """aSG+CS reference, cross-checked with the binary-direction smoothing.

    The two smoothings integrate the same price, yet at their finest
    feasible tolerances they disagree by far more than either eta, so the
    reference's uncertainty is the larger of its eta and that disagreement.
    """
    from smoothquad import linalg, models, pricing, sampling

    model = models.vg_example()
    ref = dict(method="aSG+CS", **_vg_attempts(model, None))
    v, _ = linalg.best_binary_v(models.vg_base_matrix(model))
    cross = dict(method="aSG+CS2", **_vg_attempts(model, v))
    ref["cross_check"] = cross
    ref["uncertainty"] = max(ref["eta"], abs(ref["value"] - cross["value"]))
    ref["sigma"] = {}
    for name, raw in (("vg_raw", True), ("vg_cs", False)):
        _, se = pricing.price_vg_mc(
            model, PILOT_N, sampling.RngSpec(PILOT_SEED), raw=raw, return_se=True
        )
        ref["sigma"][name] = se * math.sqrt(PILOT_N)
    return ref


def refs(out, keys):
    smoothquad = _import_package()
    table = {}
    for key in keys:
        if key == "vg:ls15":
            table[key] = _vg_reference()
        else:
            _, d, seed = key.split(":")
            table[key] = _bs_reference(int(d), int(seed))
        table[key]["pilot"] = {"n": PILOT_N, "seed": PILOT_SEED}
        table[key]["smoothquad"] = smoothquad.__version__
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv):
    if argv[:1] == ["rep"] and len(argv) == 6:
        rep(argv[1], int(argv[2]), argv[3] == "1", float(argv[4]), Path(argv[5]))
    elif argv[:1] == ["refs"] and len(argv) >= 3:
        refs(Path(argv[1]), argv[2:])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
