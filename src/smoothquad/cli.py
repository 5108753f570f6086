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
from typing import List, Optional

import numpy as np

from . import linalg, models, pricing
from .errors import BudgetExhausted, ConfigInvalid, DimensionTooLarge, SmoothQuadError
from .sampling import RngSpec

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
ACRONYMS = tuple(PLOT_STYLE)
SAMPLING_METHODS = ("MC", "QMC", "MC+CS", "QMC+CS", "MC+CS+CV", "QMC+CS+CV")
CSV_HEADER = "method,n_points,estimate,rel_error,seconds,status"

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
        number = float(value)
    except ValueError:
        number = math.nan
    if math.isfinite(number):
        return number
    raise ConfigInvalid(f"{key} must be a finite number, got {value!r}")


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
        if cfg.model == "bs" and "model" in raw:
            raise ConfigInvalid("an example is a vg instance; model = bs does not apply")
        cfg.model = "vg"
    if "d" in raw:
        cfg.d = _parse_int(raw["d"][0], "d")
        if cfg.d < 2:
            raise ConfigInvalid(f"d must be at least 2, got {cfg.d}")
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
    if cfg.example is not None:
        ignored, owner = ("d", "strike_mode", "nu", "theta", "theta_range"), "an example"
    elif cfg.model == "bs":
        ignored, owner = ("nu", "theta", "theta_range"), "a bs model"
    else:
        ignored, owner = ("theta_range",) if cfg.theta else (), "an explicit theta"
    for key in ignored:
        if key in raw:
            raise ConfigInvalid(f"{key} does not apply to {owner}")
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
        return models.VarianceGammaBasket(**vars(bs), theta=np.asarray(cfg.theta), nu=cfg.nu)
    return models.random_vg_instance(
        cfg.d, cfg.seed, cfg.strike_mode, cfg.nu, tuple(cfg.theta_range)
    )


def _settle(run):
    """State of ``run()``, which returns (value, state), or the partial state of a budget stop.

    Any error other than BudgetExhausted propagates.
    """
    try:
        return run()[1]
    except BudgetExhausted as exc:
        return exc.state


def _reference(run) -> float:
    """Value of a reference run, after printing its state as one stdout record."""
    state = _settle(run)
    print(
        f"reference {state.value!r} status {state.status} tol {state.tol:g} "
        f"eta {state.eta:.3e} evaluations {state.evaluations} "
        f"distinct_points {state.distinct_points}"
    )
    return state.value


def _bs_reference(model) -> float:
    return _reference(lambda: pricing.reference_price(model))


def _vg_reference(model, tol_schedule) -> float:
    return _reference(lambda: pricing.price_vg_smoothed(model, min(tol_schedule) / 100.0))


def _reference_of(cfg, model) -> float:
    """Reference price of the configured instance of either model."""
    if cfg.model == "bs":
        return _bs_reference(model)
    return _vg_reference(model, cfg.tol_schedule)


def _trace_writer(enabled):
    """``--trace`` hook: one ``alpha | g | evaluations | eta`` line per accepted index."""
    if not enabled:
        return None

    def write(state, alpha, g):
        print(f"{alpha} | {g:.6e} | {state.evaluations} | {state.eta:.6e}", file=sys.stderr)

    return write


def _mc_row(cfg, f):
    """MC row pricer of ``f``: the median of ``price_mc`` on the configured seed, or 0."""
    rng = RngSpec(cfg.seed if cfg.seed is not None else 0)
    return lambda n: pricing.price_mc(f, n, rng)[0]


def _bs_methods(cfg, model, trace):
    """Method table of a ``converge`` sweep, and the covariance it smooths.

    Each sampling method maps to a pricer of a budget n, each adaptive
    one to a pricer of a tolerance returning (value, state); ``aSG+CS2``
    maps to a factory taking the found direction and its lambda1^2.
    """
    prob = models.effective_bs(model)
    dec = linalg.rank_one_reduce(prob.Sigma)
    f_raw = pricing.raw_integrand(prob, dec)
    g_cs = pricing.smoothed_integrand(prob, dec)
    mc = functools.partial(_mc_row, cfg)
    # built once, in the first control-variate row, so a failure is that row's status
    control_variate = functools.cache(lambda: pricing.control_variate(g_cs))

    def qmc(f):
        return lambda n: pricing.price_qmc(f, n)

    def with_cv(sample):
        def price(n):
            residual, mean = control_variate()
            return mean + sample(residual)(n)

        return price

    def asg(f):
        return functools.partial(pricing.price_asg, f, trace=trace)

    def cs2(v, _):
        return asg(pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(prob.Sigma, v)))

    table = {
        "MC": mc(f_raw),
        "QMC": qmc(f_raw),
        "aSG": asg(f_raw),
        "MC+CS": mc(g_cs),
        "QMC+CS": qmc(g_cs),
        "aSG+CS": asg(g_cs),
        "aSG+CS2": cs2,
        "MC+CS+CV": with_cv(mc),
        "QMC+CS+CV": with_cv(qmc),
    }
    return table, prob.Sigma


def _vg_methods(cfg, model, trace):
    """Method table of a ``vg`` sweep, as in :func:`_bs_methods`, and the base covariance.

    Prints the base covariance's eigenvalues; the ``aSG+CS2`` factory
    prints the direction it is given.
    """
    base = models.vg_base_matrix(model)
    lams = "/".join(f"{x:.5f}" for x in linalg.rank_one_reduce(base).lambda_sq)
    print(f"lambda_sq {lams}")
    f_raw, g_cs = pricing.vg_raw_integrand(model), pricing.vg_smoothed_integrand(model)
    mc = functools.partial(_mc_row, cfg)
    asg = functools.partial(pricing.price_vg_smoothed, model, trace=trace)

    def cs2(v, lam1_sq):
        print(f"best v {np.asarray(v, dtype=int).tolist()} lambda1_sq {lam1_sq:.5f}")
        return functools.partial(asg, v=v)

    return {"MC": mc(f_raw), "MC+CS": mc(g_cs), "aSG+CS": asg, "aSG+CS2": cs2}, base


def _row_tasks(cfg, table, sigma):
    """One closure per CSV row, in config order, from a method table.

    A sampling method gives one row per budget, an adaptive one one row
    per tolerance.  The binary direction search on ``sigma`` runs only
    for ``aSG+CS2``; above the search's cap its rows get the status
    ``DimensionTooLarge``.
    """
    missing = [m for m in cfg.methods if m not in table]
    if missing:
        raise ConfigInvalid(
            f"method {missing[0]} is not available for {cfg.model} runs; allowed: {list(table)}"
        )
    tasks = []
    for method in cfg.methods:
        price = table[method]
        if method == "aSG+CS2":
            try:
                price = price(*linalg.best_binary_v(sigma))
            except DimensionTooLarge as exc:
                price = functools.partial(_raise, exc)
        xs = cfg.budgets if method in SAMPLING_METHODS else cfg.tol_schedule
        tasks.extend(_task(method, price, x) for x in xs)
    return tasks


def _raise(exc, *args):
    """Row pricer for a method that could not be set up: raise its error."""
    raise exc


def _task(method, price, x):
    """Row closure pricing at ``x``: a budget for a sampling method, a tolerance otherwise.

    A sampling row counts its budget.  An adaptive ``price(tol)``
    returns (value, state), read by :func:`_settle`, and its row counts
    the run's evaluations.  A row that raises gets its error as its
    status and no estimate; an adaptive one then counts 0.
    """
    sampling = method in SAMPLING_METHODS

    def run(ref):
        start = time.monotonic()
        n = x if sampling else 0
        try:
            if sampling:
                value, status = price(x), "ok"
            else:
                state = _settle(lambda: price(x))
                value, n, status = state.value, state.evaluations, state.status
            rel = abs(value / ref - 1.0) if ref else None
        except SmoothQuadError as exc:
            value, rel, status = math.nan, None, type(exc).__name__
        seconds = time.monotonic() - start
        return pricing.EstimateRecord(method, n, value, rel, seconds, status=status)

    return run


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


def _sweep(cfg: ExperimentConfig, kind: str, wrong_model: str, methods) -> str:
    """Check, run and write a ``converge`` or ``vg`` sweep; returns the CSV path.

    ``methods(model)`` returns the method table and the covariance of the
    direction search; the rows are measured against :func:`_reference_of`.
    """
    if not cfg.methods:
        raise ConfigInvalid("methods list must not be empty")
    model = build_instance(cfg)
    if cfg.model != kind:
        raise ConfigInvalid(wrong_model)
    tasks = _row_tasks(cfg, *methods(model))
    ref = _reference_of(cfg, model)
    records = _run_tasks(tasks, ref)
    out = Path(f"{cfg.output}.csv")
    out.write_text(_records_to_csv(records), encoding="utf-8")
    print(f"wrote {out}")
    return str(out)


def run_convergence(cfg: ExperimentConfig, trace=None) -> str:
    """Run the configured Black-Scholes sweep and write the CSV."""
    wrong = "converge expects a bs model; use the vg verb instead"
    return _sweep(cfg, "bs", wrong, lambda m: _bs_methods(cfg, m, trace))


def run_vg(cfg: ExperimentConfig, trace=None) -> str:
    """Run the configured Variance-Gamma sweep and write the CSV."""
    wrong = "vg expects a vg model or an example"
    return _sweep(cfg, "vg", wrong, lambda m: _vg_methods(cfg, m, trace))


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
    ref = _reference_of(cfg, model)
    lines = [
        f"model {cfg.model} d {model.d}",
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
        reader = csv.DictReader(handle)
        missing = [c for c in ("method", "rel_error") if c not in (reader.fieldnames or [])]
        if missing:
            raise ConfigInvalid(f"{path.name} has no {' or '.join(missing)} column")
        rows = list(reader)
    methods = []
    for row in rows:
        m = row["method"]
        if m not in PLOT_STYLE:
            raise ConfigInvalid(f"{path.name} has unknown method {m!r}")
        if m not in methods and row["rel_error"]:
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
        p.add_argument("--seed", default=None)
        if verb in ("converge", "vg"):
            p.add_argument("--out", default=None)
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
        # an example is fixed, and neither report draws a random stream
        report = args.verb in ("price", "decomp")
        if report and cfg.example is not None and cfg.seed is not None:
            raise ConfigInvalid(f"seed does not apply to {args.verb} on an example")
        if args.verb == "price":
            print(price_instance(cfg))
        elif args.verb == "decomp":
            print(report_decomposition(cfg))
        else:
            if args.out is not None:
                cfg.output = args.out
            sweep = run_convergence if args.verb == "converge" else run_vg
            sweep(cfg, trace=_trace_writer(args.trace))
        return 0
    except (ConfigInvalid, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SmoothQuadError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
