"""Command line experiment runner.

Verbs: ``price`` (reference price of one instance), ``converge``
(method sweep over budgets and tolerances, CSV output), ``vg`` (the
same for Variance-Gamma instances), ``decomp`` (covariance smoothing
report) and ``plot`` (gnuplot script from a results CSV).  Configuration
is a flat key=value file; repeated keys build lists.  Identical
configurations produce byte-identical CSV output except for the
seconds column; a row that fails records its error as its status.
"""

import argparse
import csv
import functools
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from . import linalg, models, pricing
from .errors import (
    BudgetExhausted,
    ConfigInvalid,
    DimensionTooLarge,
    OrderOutOfRange,
    SmoothQuadError,
)
from .sampling import RngSpec

ACRONYMS = (
    "MC",
    "QMC",
    "aSG",
    "MC+CS",
    "QMC+CS",
    "aSG+CS",
    "aSG+CS2",
    "MC+CS+CV",
    "QMC+CS+CV",
)
VG_ACRONYMS = ("MC", "MC+CS", "aSG+CS", "aSG+CS2")
SAMPLING_METHODS = ("MC", "QMC", "MC+CS", "QMC+CS", "MC+CS+CV", "QMC+CS+CV")
ADAPTIVE_METHODS = ("aSG", "aSG+CS", "aSG+CS2")
MC_RUNS = 20
CSV_HEADER = "method,n_points,estimate,rel_error,seconds,status"

PLOT_STYLE = {
    "MC": ("#1f77b4", 7),
    "QMC": ("#ff7f0e", 5),
    "aSG": ("#2ca02c", 9),
    "MC+CS": ("#d62728", 11),
    "QMC+CS": ("#9467bd", 13),
    "aSG+CS": ("#8c564b", 4),
    "aSG+CS2": ("#e377c2", 6),
    "MC+CS+CV": ("#7f7f7f", 8),
    "QMC+CS+CV": ("#bcbd22", 10),
}

DEFAULT_BUDGETS = [3 * 6**q for q in range(1, 9)]
DEFAULT_TOLS = [10.0**-k for k in range(2, 10)]


@dataclass
class ExperimentConfig:
    """Parsed experiment description with filled defaults."""

    model: str = "bs"
    d: Optional[int] = None
    seed: Optional[int] = None
    strike_mode: str = "atm"
    methods: List[str] = field(default_factory=list)
    budgets: List[int] = field(default_factory=lambda: list(DEFAULT_BUDGETS))
    tol_schedule: List[float] = field(default_factory=lambda: list(DEFAULT_TOLS))
    nu: float = 0.3
    theta_range: List[float] = field(default_factory=lambda: [-0.1, 0.05])
    theta: List[float] = field(default_factory=list)
    example: Optional[str] = None
    output: str = "results"


_LIST_KEYS = {"methods", "budgets", "tol_schedule", "theta", "theta_range"}
_SCALAR_KEYS = {"model", "d", "seed", "strike_mode", "nu", "example", "output"}


def parse_config(path) -> ExperimentConfig:
    """Read a flat key=value file into an ExperimentConfig.

    Lines starting with # and blank lines are skipped; a key listed in
    the list-valued set may repeat, scalar keys may not.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigInvalid(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _LIST_KEYS and key not in _SCALAR_KEYS:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
        if key in _SCALAR_KEYS and key in raw:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r}")
        raw.setdefault(key, []).append(value)
    return _build_config(raw)


def _parse_int(value, key):
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigInvalid(f"{key} must be an integer, got {value!r}") from exc


def _parse_float(value, key):
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigInvalid(f"{key} must be a number, got {value!r}") from exc


def _parse_seed(value) -> int:
    """Seed from a config file or ``--seed``; must fit in 64 unsigned bits."""
    seed = _parse_int(value, "seed")
    if not 0 <= seed < 2**64:
        raise ConfigInvalid(f"seed must fit in 64 bits, got {seed}")
    return seed


def _build_config(raw) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if "model" in raw:
        cfg.model = raw["model"][0]
        if cfg.model not in ("bs", "vg"):
            raise ConfigInvalid(f"model must be bs or vg, got {cfg.model!r}")
    if "example" in raw:
        cfg.example = raw["example"][0]
        if cfg.example not in ("ls15", "ls15_modified"):
            raise ConfigInvalid(
                f"example must be ls15 or ls15_modified, got {cfg.example!r}"
            )
        cfg.model = "vg"
    if "d" in raw:
        cfg.d = _parse_int(raw["d"][0], "d")
        if cfg.d < 1:
            raise ConfigInvalid(f"d must be positive, got {cfg.d}")
    if "seed" in raw:
        cfg.seed = _parse_seed(raw["seed"][0])
    if "strike_mode" in raw:
        cfg.strike_mode = raw["strike_mode"][0]
        if cfg.strike_mode not in (models.ATM, models.ITM, models.OTM):
            raise ConfigInvalid(f"unknown strike_mode {cfg.strike_mode!r}")
    if "methods" in raw:
        cfg.methods = list(raw["methods"])
        bad = [m for m in cfg.methods if m not in ACRONYMS]
        if bad:
            raise ConfigInvalid(f"unknown methods {bad}; allowed: {list(ACRONYMS)}")
        if len(set(cfg.methods)) != len(cfg.methods):
            raise ConfigInvalid("methods must not repeat")
    if "budgets" in raw:
        cfg.budgets = [_parse_int(v, "budgets") for v in raw["budgets"]]
    if any(n < 1 for n in cfg.budgets):
        raise ConfigInvalid("budgets must be positive")
    if any(b >= a for b, a in zip(cfg.budgets, cfg.budgets[1:])):
        raise ConfigInvalid("budgets must be strictly increasing")
    if "tol_schedule" in raw:
        cfg.tol_schedule = [_parse_float(v, "tol_schedule") for v in raw["tol_schedule"]]
    if any(not 0.0 < t < 1.0 for t in cfg.tol_schedule):
        raise ConfigInvalid("tolerances must lie in (0, 1)")
    if "nu" in raw:
        cfg.nu = _parse_float(raw["nu"][0], "nu")
        if cfg.nu <= 0.0:
            raise ConfigInvalid(f"nu must be positive, got {cfg.nu}")
    if "theta_range" in raw:
        cfg.theta_range = [_parse_float(v, "theta_range") for v in raw["theta_range"]]
        if len(cfg.theta_range) != 2 or cfg.theta_range[0] > cfg.theta_range[1]:
            raise ConfigInvalid("theta_range needs two ordered values")
    if "theta" in raw:
        cfg.theta = [_parse_float(v, "theta") for v in raw["theta"]]
    if "output" in raw:
        cfg.output = raw["output"][0]
    if cfg.example is None:
        if cfg.d is None or cfg.seed is None:
            raise ConfigInvalid("d and seed are required without an example")
        if cfg.theta and len(cfg.theta) != cfg.d:
            raise ConfigInvalid(f"theta needs exactly d = {cfg.d} entries")
    return cfg


def build_instance(cfg: ExperimentConfig):
    """Materialize the configured model instance."""
    if cfg.example is not None:
        return models.vg_example(modified=cfg.example == "ls15_modified")
    if cfg.model == "bs":
        return models.random_instance(cfg.d, cfg.seed, cfg.strike_mode)
    if cfg.theta:
        bs = models.random_instance(cfg.d, cfg.seed, cfg.strike_mode)
        return models.VarianceGammaBasket(
            S0=bs.S0,
            sigma=bs.sigma,
            rho=bs.rho,
            c=bs.c,
            K=bs.K,
            theta=np.asarray(cfg.theta, dtype=float),
            nu=cfg.nu,
            T=bs.T,
        )
    return models.random_vg_instance(
        cfg.d, cfg.seed, cfg.strike_mode, cfg.nu, tuple(cfg.theta_range)
    )


def _partial_reference(exc: BudgetExhausted, tol: float) -> float:
    """Partial value of a reference that ran out of budget, reported on stderr."""
    state = exc.state
    print(
        f"reference not converged: BudgetExhausted at tol {tol:g}, "
        f"eta {state.eta:.3e} after {state.evaluations} evaluations",
        file=sys.stderr,
    )
    return state.value


def _bs_reference(model) -> float:
    try:
        return pricing.reference_price(model)
    except BudgetExhausted as exc:
        return _partial_reference(exc, pricing.reference_tolerance(model.d))


def _vg_reference(model, tol_schedule, v=None) -> float:
    tol_min = min(tol_schedule)
    for factor in (100.0, 10.0, 1.0):
        tol = tol_min / factor
        try:
            value, _ = pricing.price_vg_smoothed(model, tol, v=v)
            return value
        except OrderOutOfRange:
            continue
        except BudgetExhausted as exc:
            return _partial_reference(exc, tol)
    raise SmoothQuadError(
        f"no feasible reference tolerance at or below {tol_min}"
    )


def _median_of_runs(one_run: Callable[[int], float]) -> float:
    return float(np.median([one_run(run) for run in range(MC_RUNS)]))


def _trace_writer(enabled):
    if not enabled:
        return None
    return lambda line: print(line, file=sys.stderr)


def _bs_row_tasks(cfg, model, trace):
    """Build one closure per CSV row, in config order."""
    prob = models.effective_bs(model)
    dec = linalg.rank_one_reduce(prob.Sigma)
    f_raw = pricing.raw_integrand(prob, dec)
    g_cs = pricing.smoothed_integrand(prob, dec)
    seed = cfg.seed if cfg.seed is not None else 0
    tasks = []

    def estimator(method):
        if method == "MC":
            return lambda n: pricing.price_mc(f_raw, n, RngSpec(seed))[0]
        if method == "QMC":
            return lambda n: pricing.price_qmc(f_raw, n)
        if method == "MC+CS":
            return lambda n: pricing.price_mc(g_cs, n, RngSpec(seed))[0]
        if method == "QMC+CS":
            return lambda n: pricing.price_qmc(g_cs, n)
        if method == "MC+CS+CV":
            return lambda n: _median_of_runs(
                lambda run: pricing.price_cv(
                    g_cs, n, mode="mc", rng=RngSpec(seed, stream_id=run)
                )
            )
        if method == "QMC+CS+CV":
            return lambda n: pricing.price_cv(g_cs, n, mode="qmc")
        raise ConfigInvalid(f"method {method} is not a sampling method")

    def adaptive(method):
        if method == "aSG+CS2":
            try:
                v, _ = linalg.best_binary_v(prob.Sigma)
            except DimensionTooLarge as exc:
                return functools.partial(_raise, exc)
            f = pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(prob.Sigma, v))
        else:
            f = f_raw if method == "aSG" else g_cs
        return functools.partial(pricing.price_asg, f, trace=trace)

    for method in cfg.methods:
        if method in SAMPLING_METHODS:
            est = estimator(method)
            tasks.extend(_sampling_task(method, est, n) for n in cfg.budgets)
        else:
            price = adaptive(method)
            tasks.extend(_adaptive_task(method, price, tol) for tol in cfg.tol_schedule)
    return tasks


def _raise(exc, *args):
    """Row pricer for a method that could not be set up: raise its error."""
    raise exc


def _sampling_task(method, est, n):
    def run(ref):
        start = time.monotonic()
        try:
            value = est(n)
        except SmoothQuadError as exc:
            return pricing.EstimateRecord(
                method, n, math.nan, None, time.monotonic() - start,
                status=type(exc).__name__,
            )
        seconds = time.monotonic() - start
        rel = abs(value / ref - 1.0) if ref else None
        return pricing.EstimateRecord(method, n, value, rel, seconds)

    return run


def _adaptive_task(method, price, tol):
    """Row closure for one adaptive run; ``price(tol)`` returns (value, state)."""

    def run(ref):
        start = time.monotonic()
        try:
            value, state = price(tol)
            status = "ok"
        except BudgetExhausted as exc:
            value, state = exc.state.value, exc.state
            status = "BudgetExhausted"
        except SmoothQuadError as exc:
            return pricing.EstimateRecord(
                method, 0, math.nan, None, time.monotonic() - start,
                status=type(exc).__name__,
            )
        seconds = time.monotonic() - start
        rel = abs(value / ref - 1.0) if ref else None
        return pricing.EstimateRecord(
            method, state.evaluations, value, rel, seconds, status=status
        )

    return run


def _vg_row_tasks(cfg, model, base, trace):
    """Row closures for a vg sweep, in config order.

    Only an ``aSG+CS2`` method runs the binary direction search on the
    base covariance ``base`` (and prints its result); above the search's
    cap its rows get the status ``DimensionTooLarge``.
    """
    seed = cfg.seed if cfg.seed is not None else 0
    tasks = []
    for method in cfg.methods:
        if method not in VG_ACRONYMS:
            raise ConfigInvalid(
                f"method {method} is not available for vg runs; "
                f"allowed: {list(VG_ACRONYMS)}"
            )
        if method in ("MC", "MC+CS"):
            raw = method == "MC"

            def est(n, raw=raw):
                return _median_of_runs(
                    lambda run: pricing.price_vg_mc(
                        model, n, RngSpec(seed, stream_id=run), raw=raw
                    )
                )

            tasks.extend(_sampling_task(method, est, n) for n in cfg.budgets)
        else:
            price = functools.partial(pricing.price_vg_smoothed, model, trace=trace)
            if method == "aSG+CS2":
                try:
                    v, lam1_v = linalg.best_binary_v(base)
                except DimensionTooLarge as exc:
                    price = functools.partial(_raise, exc)
                else:
                    print(f"best v {np.asarray(v, dtype=int).tolist()} lambda1_sq {lam1_v:.5f}")
                    price = functools.partial(price, v=v)
            tasks.extend(_adaptive_task(method, price, tol) for tol in cfg.tol_schedule)
    return tasks


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(float(value))


def _records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                [
                    rec.method,
                    str(rec.n_points),
                    _format_cell(rec.estimate),
                    _format_cell(rec.rel_error),
                    f"{rec.seconds:.3f}",
                    rec.status,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _run_tasks(tasks, ref):
    return [task(ref) for task in tasks]


def _sweep(cfg: ExperimentConfig, kind: str, wrong_model: str, prepare) -> str:
    """Check, run and write a ``converge`` or ``vg`` sweep; returns the CSV path.

    ``prepare(model)`` returns the row closures, in config order, and the
    reference price.
    """
    if not cfg.methods:
        raise ConfigInvalid("methods list must not be empty")
    model = build_instance(cfg)
    if cfg.model != kind:
        raise ConfigInvalid(wrong_model)
    tasks, ref = prepare(model)
    records = _run_tasks(tasks, ref)
    out = Path(f"{cfg.output}.csv")
    out.write_text(_records_to_csv(records), encoding="utf-8")
    print(f"reference {ref!r}")
    print(f"wrote {out}")
    return str(out)


def run_convergence(cfg: ExperimentConfig, trace=None) -> str:
    """Run the configured Black-Scholes sweep and write the CSV."""
    wrong = "converge expects a bs model; use the vg verb instead"
    return _sweep(
        cfg, "bs", wrong, lambda m: (_bs_row_tasks(cfg, m, trace), _bs_reference(m))
    )


def run_vg(cfg: ExperimentConfig, trace=None) -> str:
    """Run the configured Variance-Gamma sweep and write the CSV."""

    def prepare(model):
        base = models.vg_base_matrix(model)
        lams = "/".join(f"{x:.5f}" for x in linalg.rank_one_reduce(base).lambda_sq)
        print(f"lambda_sq {lams}")
        return _vg_row_tasks(cfg, model, base, trace), _vg_reference(model, cfg.tol_schedule)

    return _sweep(cfg, "vg", "vg expects a vg model or an example", prepare)


def report_decomposition(cfg: ExperimentConfig) -> str:
    """Smoothing report: eigenvalues for v = 1 and the best binary v."""
    model = build_instance(cfg)
    if isinstance(model, models.VarianceGammaBasket):
        sigma = models.vg_base_matrix(model)
    else:
        sigma = models.effective_bs(model).Sigma
    dec = linalg.rank_one_reduce(sigma)
    v, lam1_v = linalg.best_binary_v(sigma)
    lines = [
        "lambda_sq (v = 1): " + " / ".join(f"{x:.5f}" for x in dec.lambda_sq),
        f"best v: {np.asarray(v, dtype=int).tolist()}",
        f"lambda1_sq (best v): {lam1_v:.5f}",
    ]
    return "\n".join(lines)


def price_instance(cfg: ExperimentConfig) -> str:
    """Reference price and basic facts for the configured instance."""
    model = build_instance(cfg)
    if isinstance(model, models.VarianceGammaBasket):
        ref = _vg_reference(model, cfg.tol_schedule)
        kind = "vg"
    else:
        ref = _bs_reference(model)
        kind = "bs"
    lines = [
        f"model {kind} d {model.d}",
        f"forward {model.forward()!r}",
        f"strike {model.K!r}",
        f"price {ref!r}",
    ]
    return "\n".join(lines)


def emit_plot(csv_path, out_path=None) -> str:
    """Write a gnuplot script with one log-log series per method."""
    path = Path(csv_path)
    if not path.exists():
        raise FileNotFoundError(f"no such CSV: {csv_path}")
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    methods = []
    for row in rows:
        m = row["method"]
        if m not in methods and row.get("rel_error"):
            methods.append(m)
    out = Path(out_path) if out_path else path.with_suffix(".gp")
    lines = [
        f"# relative error against evaluation count from {path.name}",
        'set datafile separator ","',
        "set logscale xy",
        'set xlabel "evaluations"',
        'set ylabel "relative error"',
        "set key outside",
    ]
    if not methods:
        lines.append("# warning: CSV has no plottable rows")
    else:
        series = []
        for m in methods:
            color, point = PLOT_STYLE[m]
            series.append(
                f'"{path.name}" using (strcol(1) eq "{m}" ? $2 : NaN):4 '
                f'with linespoints lc rgb "{color}" pt {point} title "{m}"'
            )
        lines.append("plot \\\n    " + ", \\\n    ".join(series))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(out)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothquad",
        description="Basket option pricing by payoff smoothing",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("price", "converge", "vg", "decomp"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--trace", action="store_true")
    p = sub.add_parser("plot")
    p.add_argument("csv")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.verb == "plot":
            out = emit_plot(args.csv, args.out)
            print(f"wrote {out}")
            return 0
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = _parse_seed(args.seed)
        if args.out is not None:
            cfg.output = args.out
        trace = _trace_writer(args.trace)
        if args.verb == "price":
            print(price_instance(cfg))
        elif args.verb == "converge":
            run_convergence(cfg, trace=trace)
        elif args.verb == "vg":
            run_vg(cfg, trace=trace)
        elif args.verb == "decomp":
            print(report_decomposition(cfg))
        return 0
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SmoothQuadError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
