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
import collections
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
from .errors import ConfigInvalid, SmoothQuadError
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
        if not 2 <= cfg.d <= linalg.MAX_DIM:
            raise ConfigInvalid(f"d must lie in [2, {linalg.MAX_DIM}], got {cfg.d}")
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


# what a row and the reference record read of an adaptive state
_Mark = collections.namedtuple("_Mark", "value status tol eta evaluations distinct_points")


def _checkpoints(run, tols, trace):
    """Reader of one adaptive run at each tolerance of ``tols``.

    ``run(tol, trace=hook)`` returns (value, state) as
    :func:`pricing.price_asg` does.  It runs once, on the first read,
    at the smallest of ``tols``.  The loop is deterministic and a run at
    tolerance t stops after the first round whose ``eta`` is at most t,
    so ``hook`` takes t's checkpoint there; a tolerance never reached
    gets the run's final state, or its error, as its own run would.
    ``at(tol)`` returns the checkpoint and its seconds from the run's
    start, or raises the error.
    """

    @functools.cache
    def marks():
        pending = sorted(set(tols), reverse=True)
        out = {}
        start = time.monotonic()

        def snapshot(state):
            return _Mark(*(getattr(state, f) for f in _Mark._fields)), time.monotonic() - start

        def hook(state, alpha, g):
            if trace is not None:
                trace(state, alpha, g)
            while pending and state.eta <= pending[0]:
                out[pending.pop(0)] = snapshot(state)

        try:
            end = snapshot(run(min(tols), trace=hook)[1])
        except Exception as exc:  # raised again by each read past it, as by its own run
            end = exc, None
        return {**out, **dict.fromkeys(pending, end)}

    def at(tol):
        state, seconds = marks()[tol]
        if isinstance(state, Exception):
            raise state
        return state._replace(tol=tol), seconds

    return at


def _reference(at, tol) -> float:
    """Value of the aSG+CS run ``at`` at ``tol``, after printing its state as one stdout record."""
    state, _ = at(tol)
    print(
        f"reference {state.value!r} status {state.status} tol {state.tol:g} "
        f"eta {state.eta:.3e} evaluations {state.evaluations} "
        f"distinct_points {state.distinct_points}"
    )
    return state.value


# one name per model, so that a profiler can time either reference step
_bs_reference = _vg_reference = _reference


def _reference_of(cfg, model):
    """Reference tolerance of the configured instance, and its model's reference step."""
    if cfg.model == "bs":
        return pricing.reference_tolerance(model.d), _bs_reference
    return min(cfg.tol_schedule) / 100.0, _vg_reference


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


def _covariance(cfg, model):
    """Covariance whose smoothing a ``decomp`` report states and aSG+CS2 searches."""
    if cfg.model == "vg":
        return models.vg_base_matrix(model)
    return models.effective_bs(model).Sigma


def _methods(cfg, model):
    """Method table of a ``converge`` or ``vg`` sweep; building it prints nothing.

    Each sampling method maps to a pricer of a budget n, each adaptive
    one to a run ``run(tol, trace=hook)`` read by :func:`_checkpoints`.
    The model sets the integrands and the covariance aSG+CS2 searches;
    a ``vg`` aSG+CS2 run prints the direction it found.
    """
    vg = cfg.model == "vg"
    sigma = _covariance(cfg, model)
    if vg:
        f_raw, g_cs = pricing.vg_raw_integrand(model), pricing.vg_smoothed_integrand(model)
        along = functools.partial(pricing.vg_smoothed_integrand, model)
    else:
        prob = models.effective_bs(model)
        dec = linalg.rank_one_reduce(sigma)
        f_raw, g_cs = pricing.raw_integrand(prob, dec), pricing.smoothed_integrand(prob, dec)

        def along(v):
            return pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(sigma, v))

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
        return functools.partial(pricing.price_asg, f)

    # searched once, in the aSG+CS2 run, so DimensionTooLarge is the status of its rows
    @functools.cache
    def cs2():
        v, lam1_sq = linalg.best_binary_v(sigma)
        if vg:
            print(f"best v {np.asarray(v, dtype=int).tolist()} lambda1_sq {lam1_sq:.5f}")
        return asg(along(v))

    return {
        "MC": mc(f_raw),
        "QMC": qmc(f_raw),
        "aSG": asg(f_raw),
        "MC+CS": mc(g_cs),
        "QMC+CS": qmc(g_cs),
        "aSG+CS": asg(g_cs),
        "aSG+CS2": lambda tol, trace: cs2()(tol, trace=trace),
        "MC+CS+CV": with_cv(mc),
        "QMC+CS+CV": with_cv(qmc),
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(float(value))


def _records_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for method, n_points, estimate, rel_error, seconds, status in rows:
        cells = [method, str(n_points), _format_cell(estimate), _format_cell(rel_error)]
        lines.append(",".join([*cells, f"{seconds:.3f}", status]))
    return "\n".join(lines) + "\n"


def _run_tasks(cfg, table, reads, ref):
    """The CSV rows of a sweep, in config order, as plain tuples.

    Each row is ``(method, n_points, estimate, rel_error, seconds,
    status)``, which :func:`_records_to_csv` writes.  A sampling method
    gives one row per budget, priced by its ``table`` entry, and counts
    the budget.  An adaptive one gives one row per tolerance, the run's
    checkpoint from its :func:`_checkpoints` reader in ``reads``, and
    counts the run's evaluations and seconds up to it.  A row that
    raises gets its error as its status, no estimate and 0 points.
    """
    rows = []
    for method in cfg.methods:
        sampling = method in SAMPLING_METHODS
        for x in cfg.budgets if sampling else cfg.tol_schedule:
            start, seconds = time.monotonic(), None
            try:
                if sampling:
                    value, n, status = table[method](x), x, "ok"
                else:
                    state, seconds = reads[method](x)
                    value, n, status = state.value, state.evaluations, state.status
                rel = abs(value / ref - 1.0) if ref else None
            except SmoothQuadError as exc:
                value, n, rel, status = math.nan, 0, None, type(exc).__name__
            seconds = time.monotonic() - start if seconds is None else seconds
            rows.append((method, n, value, rel, seconds, status))
    return rows


# the model each sweep verb runs on, and the error for any other
_VERB_MODEL = {
    "converge": ("bs", "converge expects a bs model; use the vg verb instead"),
    "vg": ("vg", "vg expects a vg model or an example"),
}
# the methods a sweep on each model offers
_OFFERED = {"bs": ACRONYMS, "vg": ("MC", "MC+CS", "aSG+CS", "aSG+CS2")}


def _sweep(cfg: ExperimentConfig, verb: str, trace) -> str:
    """Check, run and write a ``converge`` or ``vg`` sweep; returns the CSV path.

    Every config error comes before the instance is built: no methods, a
    model other than the verb's, or a method its model does not offer.
    A ``vg`` sweep then prints the base covariance's eigenvalues.  Each
    adaptive method runs once, at its smallest tolerance, and the rows of
    :func:`_methods`' table are measured against the reference, a
    checkpoint of the aSG+CS run.
    """
    kind, wrong_model = _VERB_MODEL[verb]
    if not cfg.methods:
        raise ConfigInvalid("methods list must not be empty")
    if cfg.model != kind:
        raise ConfigInvalid(wrong_model)
    offered = _OFFERED[kind]
    missing = [m for m in cfg.methods if m not in offered]
    if missing:
        raise ConfigInvalid(
            f"method {missing[0]} is not available for {kind} runs; allowed: {list(offered)}"
        )
    model = build_instance(cfg)
    if kind == "vg":
        lams = linalg.rank_one_reduce(_covariance(cfg, model)).lambda_sq
        print("lambda_sq " + "/".join(f"{x:.5f}" for x in lams))
    table = _methods(cfg, model)
    tol, reference = _reference_of(cfg, model)
    tols = {m: list(cfg.tol_schedule) for m in cfg.methods if m not in SAMPLING_METHODS}
    tols.setdefault("aSG+CS", []).append(tol)
    reads = {m: _checkpoints(table[m], ts, trace) for m, ts in tols.items()}
    ref = reference(reads["aSG+CS"], tol)
    rows = _run_tasks(cfg, table, reads, ref)
    out = Path(f"{cfg.output}.csv")
    out.write_text(_records_to_csv(rows), encoding="utf-8")
    print(f"wrote {out}")
    return str(out)


def report_decomposition(cfg: ExperimentConfig) -> str:
    """Smoothing report: eigenvalues for v = 1 and the best binary v."""
    sigma = _covariance(cfg, build_instance(cfg))
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
    tol, reference = _reference_of(cfg, model)
    ref = reference(_checkpoints(_methods(cfg, model)["aSG+CS"], [tol], None), tol)
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
            _sweep(cfg, args.verb, _trace_writer(args.trace))
        return 0
    except (ConfigInvalid, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SmoothQuadError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
