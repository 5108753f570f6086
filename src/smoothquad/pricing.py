"""Integrands and estimators for basket option prices.

The raw payoff integrand has a kink along the exercise boundary.
Conditioning on the rank-one factor of the covariance replaces it with
a smooth integrand (the Black-Scholes formula evaluated along the
remaining factors), which Monte Carlo, quasi-Monte Carlo, adaptive
sparse grids and an interpolation control variate then integrate.  The
Variance-Gamma variants add the Gamma variable u of the time change
y = nu u, handled by generalized Gauss-Laguerre differences; an
integrand carries its sampler and rules.  Every smoothed builder maps
its points to an exponent and shares one conditional-call kernel;
Black-Scholes is the case y = 1, theta = 0.

The kernel's normal CDF is ``scipy.special.ndtr``, taken from
``sampling``, which loads it and ``ndtri`` without the rest of
``scipy.special``.
"""

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import OutOfDomain
from .models import BlackScholesBasket, EffectiveProblem, VarianceGammaBasket
from .models import effective_bs, smoothing_split
from .rules1d import RuleSequence, genz_keister_sequence, laguerre_sequence
from .sampling import RngSpec, SobolStream, inv_norm_cdf, ndtr
from .sparsegrid import (
    DEFAULT_MAX_EVALS,
    adaptive_quadrature,
    interpolant_total_degree,
)

_DRAW = 1 << 16
_BLOCK = 1 << 13
_D_CLAMP = 38.0
_PRICE_FLOOR = 1e-300
MC_RUNS = 20  # seeded runs a Monte Carlo price takes the median of


def _normal_sampler(gen, n, dim):
    """Sampler of ``dim``-column standard normals, each block landing in one buffer.

    Each block is drawn and assigned, so the draw is freed before the
    integrand runs: only one block-sized temporary is alive at a time,
    and the allocator reuses its memory instead of returning it to the
    system and faulting it back in on every block.  (Drawing with
    ``out=`` would save the copy, but perfbench's tracer wraps
    ``standard_normal`` with a ``size`` argument only.)
    """
    buf = np.empty((min(n, _BLOCK), dim))

    def sampler(m):
        out = buf[:m]
        out[...] = gen.standard_normal(out.shape)
        return out

    return sampler


@dataclass(frozen=True)
class Integrand:
    """Batched integrand with its dimension, a label and the law of its points.

    ``func`` maps an (n, dim) array of points to n values; payoff
    integrands are nonnegative by construction.  ``sampler(gen, n, dim)``
    builds the Monte Carlo sampler of the points, and ``seqs`` holds the
    rule sequences of :func:`price_asg`, one for every coordinate or a
    tuple of one per coordinate: standard normals and Genz-Keister by default.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    label: str
    sampler: Callable = _normal_sampler
    seqs: RuleSequence | tuple = genz_keister_sequence()

    def __call__(self, points):
        return self.func(points)


def _bs_call_core(s0, k, sigma):
    """Vectorized zero-rate Black-Scholes call with guarded branches.

    Handles nonpositive strikes (price s0 - k), zero volatility
    (intrinsic value), clamps the d-arguments to +-38 to keep extreme
    nodes finite, and never returns less than the intrinsic value.
    """
    s0 = np.asarray(s0, dtype=float)
    k = np.asarray(k, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    # the live formula over every entry; the others are overwritten below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lg = np.log(s0 / k)
        half = 0.5 * sigma * sigma
        # clamped in place (asarray keeps 0-d results arrays); nan passes through
        d1 = np.asarray((lg + half) / sigma)
        d2 = np.asarray((lg - half) / sigma)
        for d in (d1, d2):
            np.minimum(np.maximum(d, -_D_CLAMP, out=d), _D_CLAMP, out=d)
        price = np.asarray(ndtr(d1) * s0 - ndtr(d2) * k)
        intrinsic = np.maximum(s0 - k, 0.0)
        np.maximum(price, intrinsic, out=price)
        np.minimum(price, s0, out=price)
        price[price < _PRICE_FLOOR] = 0.0
        live = (k > 0.0) & (sigma > 0.0) & (s0 > 0.0)
        if not live.all():
            np.copyto(price, np.where(k <= 0.0, s0 - k, intrinsic), where=~live)
    return price


def bs_call(s0, k, sigma):
    """Zero-rate Black-Scholes call price with unit maturity.

    For positive strike and volatility this is Phi(d1) s0 - Phi(d2) k
    with d_{1,2} = (log(s0/k) +- sigma^2/2) / sigma; a nonpositive
    strike pays s0 - k surely, zero volatility pays the intrinsic
    value.  The result always lies between max(s0 - k, 0) and s0.
    """
    scalar = np.isscalar(s0) and np.isscalar(k) and np.isscalar(sigma)
    s0a = np.asarray(s0, dtype=float)
    if np.any(s0a <= 0.0) or not np.all(np.isfinite(s0a)):
        raise OutOfDomain(f"spot must be positive and finite, got {s0}")
    ka = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(ka)):
        raise OutOfDomain(f"strike must be finite, got {k}")
    siga = np.asarray(sigma, dtype=float)
    if np.any(siga < 0.0) or not np.all(np.isfinite(siga)):
        raise ValueError(f"volatility must be nonnegative, got {sigma}")
    out = _bs_call_core(s0a, ka, siga)
    return float(out) if scalar else out


def _payoff(x, w, K):
    """Basket payoff (sum_i w_i e^{x_i} - K)^+ for each row of log-returns x.

    Exponentiates ``x`` in place.
    """
    return np.maximum(np.exp(x, out=x) @ w - K, 0.0)


def _split_weights(w, v):
    """``(w_sel, w_rest)`` for direction v; ``w_rest`` is None if v is None or all ones."""
    if v is None:
        return w, None
    v = np.asarray(v, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"direction must have length {w.size}")
    if not np.all((v == 0.0) | (v == 1.0)) or not np.any(v):
        raise ValueError("direction must be binary and nonzero")
    return w * v, None if np.all(v == 1.0) else w * (1.0 - v)


def _conditional_call(tilt, w_sel, w_rest, K, growth, lam1):
    """bs_call(h1 growth, K - h2, lam1) with h1 = tilt w_sel, h2 = tilt w_rest.

    ``tilt`` is e^x per point (row) and asset (column), x the exponent
    along the non-smoothing factors.
    """
    k = K if w_rest is None else K - tilt @ w_rest
    return _bs_call_core((tilt @ w_sel) * growth, k, lam1)


def raw_integrand(prob: EffectiveProblem, dec: linalg.SmoothingDecomposition) -> Integrand:
    """Kinked payoff integrand in the rotated factor coordinates.

    Maps z to (sum_i w_i exp(X_i) - K)^+ with X = V (sqrt(lambda^2) z),
    so the first coordinate is exactly the factor that the smoothed
    integrand conditions away; raw and smoothed share coordinates,
    which makes paired comparisons exact.
    """
    transform = dec.V * np.sqrt(dec.lambda_sq)
    w = prob.w
    K = prob.K

    def func(points):
        return _payoff(np.asarray(points, dtype=float) @ transform.T, w, K)

    return Integrand(dim=prob.d, func=func, label="raw")


def _bs_conditional(prob, dec, v):
    """Black-Scholes smoothed integrand: exponent zbar L^T, fixed growth and lambda1."""
    loadings = dec.V[:, 1:] * np.sqrt(dec.lambda_sq[1:])
    lam1 = math.sqrt(dec.lambda_sq[0])
    growth = math.exp(0.5 * dec.lambda_sq[0])
    w_sel, w_rest = _split_weights(prob.w, v)
    if not np.array_equal(np.ones(prob.d) if v is None else v, dec.v):
        raise ValueError("direction differs from the decomposition's")
    K = prob.K

    def func(points):
        tilt = np.asarray(points, dtype=float) @ loadings.T
        return _conditional_call(np.exp(tilt, out=tilt), w_sel, w_rest, K, growth, lam1)

    return Integrand(dim=prob.d - 1, func=func, label="CS" if v is None else "CS2")


def smoothed_integrand(prob: EffectiveProblem, dec: linalg.SmoothingDecomposition) -> Integrand:
    """Conditional-expectation integrand over the last d-1 factors.

    g(zbar) = bs_call(h(zbar) e^{lambda1^2/2}, K, lambda1) with h the
    weighted exponential sum over the non-smoothing factor loadings.
    Infinitely differentiable and strictly positive.  ``dec`` is along v = 1.
    """
    return _bs_conditional(prob, dec, None)


def smoothed_integrand_v(
    prob: EffectiveProblem, v, dec: linalg.SmoothingDecomposition
) -> Integrand:
    """Smoothed integrand for a binary smoothing direction.

    Only the assets with v_i = 1 load on the conditioned factor, so
    the others enter as a state-dependent strike shift: the value is
    bs_call(h1 e^{lambda1^2/2}, K - h2, lambda1) with h1 summing the
    selected and h2 the remaining assets.  A shifted strike below zero
    uses the sure-payoff branch of the call formula.  ``dec`` must be
    the decomposition along ``v`` itself.
    """
    return _bs_conditional(prob, dec, v)


def _sobol_normal_sampler(dim, n):
    """Sampler of Sobol points mapped to normals in place, in the stream's block.

    Row ``lo`` of the run is the Sobol point of index ``1 + lo``, and
    ``sampler.seek(lo)`` moves the stream there, so any block can be
    drawn on its own: :func:`_sample_runs` spreads the blocks over its
    workers, each with one stream.
    """
    stream = SobolStream(dim, block=min(n, _BLOCK))

    def sampler(m):
        u = stream.points(m)
        return inv_norm_cdf(u, out=u)

    def seek(lo):
        stream.next_index = 1 + lo

    sampler.seek = seek
    return sampler


def _vg_sampler(shape, gen, n, dim):
    """Sampler of ``dim``-column (u, z) rows for Variance-Gamma, each block in one buffer.

    Column 0 takes the standard Gamma(shape, 1) variables u = y / nu of each
    ``_DRAW``-row batch of the ``n`` rows, drawn at the batch's first
    block and before any of its normals; the other columns take each
    block's own normal draw.  Normals do not depend on how a stream is
    split, so the rows are those of one Gamma and then one normal draw
    per batch.  ``_DRAW`` is a multiple of ``_BLOCK``, so no block
    straddles two batches.
    """
    buf = np.empty((min(n, _BLOCK), dim))
    u = None
    served = 0

    def sampler(m):
        nonlocal u, served
        at = served % _DRAW
        if at == 0:
            u = gen.gamma(shape, 1.0, min(_DRAW, n - served))
        out = buf[:m]
        out[:, 0] = u[at : at + m]
        out[:, 1:] = gen.standard_normal((m, dim - 1))
        served += m
        return out

    return sampler


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS numpy ships, or None.

    Looked up on first use, so importing the package does not load it.
    Only the ``scipy-openblas`` library of a numpy wheel is known; any
    other BLAS (MKL, Accelerate, a system OpenBLAS) gives None.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


_blas_lock = threading.Lock()
_blas_holds = 0
_blas_before = None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS at one thread inside the block, where it can be controlled.

    Workers that each multiply their own block would otherwise queue on
    the BLAS's threads instead of running side by side.  Holds are
    counted under a lock: the first sets one thread and the last puts
    back the count the first read, so nested and concurrent holds do
    not release one another.  Where the BLAS cannot be controlled the
    block runs as it is.
    """
    global _blas_holds, _blas_before
    with _blas_lock:
        blas = _openblas_threads()
        if blas is not None:
            if _blas_holds == 0:
                _blas_before = blas[0]()
                blas[1](1)
            _blas_holds += 1
    try:
        yield
    finally:
        if blas is not None:
            with _blas_lock:
                _blas_holds -= 1
                if _blas_holds == 0:
                    blas[1](_blas_before)


def _usable_cores():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _sample_runs(integrand, n, sampler_of, runs=1):
    """``(mean, se)`` of ``integrand`` over ``n`` sampled points, for each run.

    ``sampler_of(run)`` builds a sampler of run ``run``'s points, which
    is asked for one ``_BLOCK``-row block at a time (the last block
    holds the rest), so a worker's working set is two blocks, whatever
    ``n`` is: the points, and the integrand's exponent built from them
    (1.6 MB each at d = 25).  A sampler with a ``seek(lo)``
    method (Sobol) can start at any row, so each of its blocks is a
    unit of work; any other sampler (Philox, whose ziggurat normals use
    a varying number of words) is drawn in order, one unit per run.
    The units are spread over the usable cores: the calling thread and
    one helper thread per further core each take every ``workers``-th
    unit, building a sampler whenever their run changes, so a single
    unit stays on the calling thread.  While the helpers run, numpy's
    BLAS is held at one thread (:func:`_one_blas_thread`); Philox draws
    and numpy's block-sized kernels release the interpreter lock, so
    the units overlap.  Each block's two sums land at the block's own
    index and a run's are added with ``math.fsum``, which rounds once,
    so the results are the same for any number of workers.  An
    exception from any unit is raised here, after every helper has
    finished.
    """
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    if runs < 1:
        raise ValueError(f"run count {runs} must be at least 1")
    starts = range(0, n, _BLOCK)
    sums = [[None] * len(starts) for _ in range(runs)]
    # run 0's sampler says how to split, and the calling thread draws
    # with it; popped from the list, it is freed when that thread moves on
    first = [sampler_of(0)]
    split = hasattr(first[0], "seek")
    if split:
        units = [(run, (lo,)) for run in range(runs) for lo in starts]
    else:
        units = [(run, starts) for run in range(runs)]
    workers = min(_usable_cores(), len(units))

    def work(at, sampler=None, of=None):
        for run, unit in units[at::workers]:
            if run != of:
                sampler = None  # the last run's buffers go before the next run's come
                sampler, of = sampler_of(run), run
            if split:
                sampler.seek(unit[0])
            for lo in unit:
                vals = np.asarray(integrand(sampler(min(_BLOCK, n - lo))), dtype=float)
                sums[run][lo // _BLOCK] = float(np.sum(vals)), float(np.sum(vals * vals))

    if workers == 1:
        work(0, first.pop(), 0)
    else:
        with _one_blas_thread(), ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(work, at) for at in range(1, workers)]
            work(0, first.pop(), 0)
            for helper in helpers:
                helper.result()
    results = []
    for blocks in sums:
        mean = math.fsum(s for s, _ in blocks) / n
        var = max(math.fsum(q for _, q in blocks) / n - mean * mean, 0.0)
        results.append((mean, math.sqrt(var / n)))
    return results


def price_mc(integrand: Integrand, n: int, rng: RngSpec, runs: int = MC_RUNS):
    """Monte Carlo price: median over independent seeded runs.

    Each run averages n evaluations at points drawn by
    ``integrand.sampler`` from its own stream (stream id equal to the run
    index), and the median of the run estimates is reported together
    with all of them.  The runs are spread over the usable cores; every
    value is the same for any core count.
    """

    def sampler_of(run):
        return integrand.sampler(rng.stream(run).generator(), n, integrand.dim)

    estimates = np.array([mean for mean, _ in _sample_runs(integrand, n, sampler_of, runs)])
    return _median(estimates), estimates


def _median(a) -> float:
    """``np.median`` of a nonempty 1-d float array, bit for bit.

    The mean of the middle entry or the middle pair of the sorted array,
    as ``np.mean`` sums it, from ``0.0``, and nan if any entry is nan
    (nan sorts last).  ``np.median`` imports ``numpy.ma`` for its nan
    check, 9-15 ms the first time in a process.
    """
    s = np.sort(a)
    if np.isnan(s[-1]):
        return float("nan")
    k = s.size // 2
    return float(0.0 + s[k] if s.size % 2 else (0.0 + s[k - 1] + s[k]) / 2)


def mc_mean_se(integrand: Integrand, n: int, rng: RngSpec):
    """Single-stream Monte Carlo mean with its standard error, drawn from ``integrand.sampler``."""
    dim = integrand.dim
    return _sample_runs(integrand, n, lambda _: integrand.sampler(rng.generator(), n, dim))[0]


def _require_normal(integrand):
    """Raise ValueError unless the integrand's points are standard normals."""
    if integrand.sampler is not _normal_sampler:
        raise ValueError(f"{integrand.label} integrand is not over standard normal points")


def price_qmc(integrand: Integrand, n: int) -> float:
    """Deterministic quasi-Monte Carlo price over mapped Sobol points.

    The points stream through one block of the Sobol stream's own
    arrays, mapped to normals in place, so memory does not grow with n.
    The blocks are spread over the usable cores, each worker with its
    own stream, and the price is the same for any core count.  A
    zero-dimensional integrand is its value at the one point.  Any
    integrand not over standard normals raises ValueError.
    """
    _require_normal(integrand)
    if integrand.dim == 0 and n >= 1:  # the driver rejects n < 1
        return float(np.asarray(integrand(np.zeros((1, 0))))[0])
    return _sample_runs(integrand, n, lambda run: _sobol_normal_sampler(integrand.dim, n))[0][0]


def price_asg(
    integrand: Integrand, tol: float, max_evals: int = DEFAULT_MAX_EVALS, trace=None
):
    """Adaptive sparse-grid price over ``integrand.seqs``; returns the estimate and the state.

    ``state.status`` is ``"ok"``, or how the run stopped short of
    ``tol``: ``"saturated"`` at the rule-order cap or
    ``"BudgetExhausted"`` past ``max_evals``.
    """
    value, _, state = adaptive_quadrature(
        integrand, integrand.dim, tol, integrand.seqs, max_evals=max_evals, trace=trace
    )
    return value, state


def control_variate(integrand: Integrand):
    """Residual f - g of the interpolation control variate, and E[g(Z)].

    g is the total-degree-2 sparse-grid interpolant of the integrand,
    built once; its Gaussian mean is exact, so the mean of the residual
    under any sampler plus ``mean`` estimates the price; like that mean,
    the integrand must be over standard normals.
    """
    _require_normal(integrand)
    g, mean = interpolant_total_degree(integrand, integrand.dim)

    def residual(points):
        return np.asarray(integrand(points), dtype=float) - g(points)

    return Integrand(dim=integrand.dim, func=residual, label=f"{integrand.label}-CV"), mean


def price_cv(
    integrand: Integrand,
    n: int,
    mode: str = "mc",
    rng: Optional[RngSpec] = None,
) -> float:
    """Control-variate price: exact interpolant mean plus residual mean.

    Samples only the residual of :func:`control_variate` with unit
    coefficient, over one Monte Carlo stream (``mode="mc"``, seeded by
    ``rng``, drawn in order on the calling thread) or the Sobol points
    (``mode="qmc"``, whose blocks are spread over the usable cores as
    in :func:`price_qmc`).  Integrands inside the interpolation space
    are priced with zero sampling error.
    """
    if mode not in ("mc", "qmc"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "mc" and rng is None:
        raise ValueError("mc mode needs an rng specification")
    if integrand.dim == 0:
        return price_qmc(integrand, n)
    residual, mean = control_variate(integrand)
    if mode == "qmc":
        return mean + price_qmc(residual, n)
    return mean + mc_mean_se(residual, n, rng)[0]


def _vg_law(model, dim):
    """Sampler and rule sequences of ``dim``-column (u, z) points, u ~ Gamma(T/nu, 1).

    The Gamma density is the generalized Laguerre weight with alpha = T/nu - 1.
    """
    shape = model.T / model.nu
    seqs = (laguerre_sequence(shape - 1.0),) + (genz_keister_sequence(),) * (dim - 1)
    return functools.partial(_vg_sampler, shape), seqs


def vg_smoothed_integrand(model: VarianceGammaBasket, v=None) -> Integrand:
    """Smoothed Variance-Gamma integrand over (u, zbar).

    The first coordinate is the standard Gamma(T/nu, 1) variable u of
    the time change y = nu u; the rest are the non-smoothing Gaussian
    factors; ``sampler`` and ``seqs`` carry both laws.  Given y it is the
    Black-Scholes conditional call with exponent theta y + sqrt(y) zbar L^T,
    growth e^{y lambda1^2/2} and volatility sqrt(y) lambda1, discounted,
    where L and lambda1 come from the time-free base covariance
    (decomposed once); y = 1 with theta = 0 is the Black-Scholes case.
    A binary direction v produces the shifted-strike variant.
    """
    w, base = smoothing_split(model)
    disc = math.exp(-model.r * model.T)
    w_sel, w_rest = _split_weights(w, v)
    dec = linalg.rank_one_reduce(base, v)
    loadings = dec.V[:, 1:] * np.sqrt(dec.lambda_sq[1:])
    lam1_sq = dec.lambda_sq[0]
    lam1 = math.sqrt(lam1_sq)
    theta = model.theta
    nu = model.nu
    K = model.K

    def func(points):
        points = np.asarray(points, dtype=float)
        y = nu * points[:, 0]
        root = np.sqrt(y)
        tilt = points[:, 1:] @ loadings.T
        tilt *= root[:, None]
        tilt += theta * y[:, None]
        np.exp(tilt, out=tilt)
        growth = np.exp(0.5 * y * lam1_sq)
        return disc * _conditional_call(tilt, w_sel, w_rest, K, growth, root * lam1)

    label = "VG-CS" if v is None else "VG-CS2"
    return Integrand(model.d, func, label, *_vg_law(model, model.d))


def vg_raw_integrand(model: VarianceGammaBasket) -> Integrand:
    """Kinked Variance-Gamma payoff over (u, z) in rotated coordinates, y = nu u."""
    w, base = smoothing_split(model)
    disc = math.exp(-model.r * model.T)
    dec = linalg.rank_one_reduce(base)
    transform = dec.V * np.sqrt(dec.lambda_sq)
    theta = model.theta
    nu = model.nu
    K = model.K

    def func(points):
        points = np.asarray(points, dtype=float)
        y = nu * points[:, 0]
        x = points[:, 1:] @ transform.T
        x *= np.sqrt(y)[:, None]
        x += theta * y[:, None]
        return disc * _payoff(x, w, K)

    return Integrand(model.d + 1, func, "VG-raw", *_vg_law(model, model.d + 1))


def price_vg_smoothed(model: VarianceGammaBasket, tol: float, v=None):
    """Adaptive sparse-grid price of a Variance-Gamma basket at the default budget.

    :func:`price_asg` on :func:`vg_smoothed_integrand`, Laguerre rules in
    the Gamma variable; returns the estimate and the adaptive state.
    """
    return price_asg(vg_smoothed_integrand(model, v), tol)


def price_vg_mc(
    model: VarianceGammaBasket,
    n: int,
    rng: RngSpec,
    raw: bool = False,
    return_se: bool = False,
):
    """Monte Carlo price of a Variance-Gamma basket: :func:`mc_mean_se` on its integrand.

    The integrand is the smoothed one, or the raw payoff when ``raw`` is
    set; both carry the Gamma-then-normal law of :func:`_vg_sampler`.
    """
    integrand = vg_raw_integrand(model) if raw else vg_smoothed_integrand(model)
    mean, se = mc_mean_se(integrand, n, rng)
    return (mean, se) if return_se else mean


def reference_tolerance(d: int) -> float:
    """Adaptive tolerance schedule for reference prices.

    Ten to the minus eleven at dimension three, loosened along a
    log-linear schedule to 1e-9 at dimension eight and 1e-7 at
    dimension twenty-five, rounded to a decade.
    """
    if d < 1:
        raise ValueError(f"dimension {d} must be positive")
    exponent = round(
        11.0 - 4.0 * (math.log(d) - math.log(3.0)) / (math.log(25.0) - math.log(3.0))
    )
    return 10.0 ** (-exponent)


def reference_price(model: BlackScholesBasket, max_evals: int = DEFAULT_MAX_EVALS):
    """High-accuracy smoothed adaptive sparse-grid price; returns the estimate and the state.

    Runs :func:`price_asg` on the smoothed integrand at
    :func:`reference_tolerance`; a run stopped at the rule-order cap
    has the status ``"saturated"``, and one past ``max_evals``
    ``"BudgetExhausted"``.
    """
    prob = effective_bs(model)
    integrand = smoothed_integrand(prob, linalg.rank_one_reduce(prob.Sigma))
    return price_asg(integrand, reference_tolerance(model.d), max_evals=max_evals)
