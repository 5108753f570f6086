"""Integrands and estimators for basket option prices.

The raw payoff integrand has a kink along the exercise boundary.
Conditioning on the rank-one factor of the covariance replaces it with
a smooth integrand (the Black-Scholes formula evaluated along the
remaining factors), which Monte Carlo, quasi-Monte Carlo, adaptive
sparse grids and an interpolation control variate then integrate.  The
Variance-Gamma variants add the time change y as an extra integration
variable handled by generalized Gauss-Laguerre differences.  Every
smoothed builder maps its points to an exponent and shares one
conditional-call kernel; Black-Scholes is the case y = 1, theta = 0.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr

from . import linalg
from .errors import OutOfDomain
from .models import BlackScholesBasket, EffectiveProblem, VarianceGammaBasket
from .models import effective_bs, vg_base_matrix
from .rules1d import genz_keister_sequence, laguerre_sequence
from .sampling import RngSpec, SobolStream, inv_norm_cdf
from .sparsegrid import (
    DEFAULT_MAX_EVALS,
    AdaptiveState,
    adaptive_quadrature,
    interpolant_total_degree,
)

_CHUNK = 1 << 16
_D_CLAMP = 38.0
_PRICE_FLOOR = 1e-300


@dataclass(frozen=True)
class Integrand:
    """Batched integrand together with its dimension and a label.

    ``func`` maps an (n, dim) array of points to n values; payoff
    integrands are nonnegative by construction.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    label: str

    def __call__(self, points):
        return self.func(points)


@dataclass
class EstimateRecord:
    """One row of an estimator study: method, cost, value, accuracy."""

    method: str
    n_points: int
    estimate: float
    rel_error: Optional[float]
    seconds: float
    status: str = "ok"


def norm_cdf(x):
    """Standard normal distribution function, accurate to 1e-14."""
    out = ndtr(x)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _bs_call_core(s0, k, sigma):
    """Vectorized zero-rate Black-Scholes call with guarded branches.

    Handles nonpositive strikes (price s0 - k), zero volatility
    (intrinsic value), clamps the d-arguments to +-38 to keep extreme
    nodes finite, and never returns less than the intrinsic value.
    """
    s0 = np.asarray(s0, dtype=float)
    k = np.asarray(k, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s0, k, sigma = np.broadcast_arrays(s0, k, sigma)
    intrinsic = np.maximum(s0 - k, 0.0)
    out = np.where(k <= 0.0, s0 - k, intrinsic)
    live = (k > 0.0) & (sigma > 0.0) & (s0 > 0.0)
    if np.any(live):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lg = np.log(np.where(live, s0, 1.0) / np.where(live, k, 1.0))
            half = 0.5 * sigma * sigma
            sig = np.where(live, sigma, 1.0)
            d1 = np.clip((lg + half) / sig, -_D_CLAMP, _D_CLAMP)
            d2 = np.clip((lg - half) / sig, -_D_CLAMP, _D_CLAMP)
            price = ndtr(d1) * s0 - ndtr(d2) * k
        price = np.maximum(price, intrinsic)
        price = np.minimum(price, s0)
        price = np.where(price < _PRICE_FLOOR, 0.0, price)
        out = np.where(live, price, out)
    return out


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
    siga = np.asarray(sigma, dtype=float)
    if np.any(siga < 0.0) or not np.all(np.isfinite(siga)):
        raise ValueError(f"volatility must be nonnegative, got {sigma}")
    out = _bs_call_core(s0a, k, siga)
    return float(out) if scalar else out


def _payoff(x, w, K):
    """Basket payoff (sum_i w_i e^{x_i} - K)^+ for each row of log-returns x."""
    return np.maximum(np.exp(x) @ w - K, 0.0)


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
    K = prob.K

    def func(points):
        tilt = np.exp(np.asarray(points, dtype=float) @ loadings.T)
        return _conditional_call(tilt, w_sel, w_rest, K, growth, lam1)

    return Integrand(dim=prob.d - 1, func=func, label="CS" if v is None else "CS2")


def smoothed_integrand(prob: EffectiveProblem, dec: linalg.SmoothingDecomposition) -> Integrand:
    """Conditional-expectation integrand over the last d-1 factors.

    g(zbar) = bs_call(h(zbar) e^{lambda1^2/2}, K, lambda1) with h the
    weighted exponential sum over the non-smoothing factor loadings.
    Infinitely differentiable and strictly positive.
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
    uses the sure-payoff branch of the call formula.
    """
    return _bs_conditional(prob, dec, v)


def _mean_se_of(f, sampler, n, chunk=_CHUNK):
    """Mean of ``f`` over ``n`` sampled points, and its standard error."""
    sums = []
    squares = []
    done = 0
    while done < n:
        m = min(chunk, n - done)
        vals = np.asarray(f(sampler(m)), dtype=float)
        sums.append(float(np.sum(vals)))
        squares.append(float(np.sum(vals * vals)))
        done += m
    mean = math.fsum(sums) / n
    second = math.fsum(squares) / n
    var = max(second - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _normal_sampler(gen, dim):
    return lambda m: gen.standard_normal((m, dim))


def price_mc(integrand: Integrand, n: int, rng: RngSpec, runs: int = 20):
    """Monte Carlo price: median over independent seeded runs.

    Each run averages n evaluations at standard-normal points from its
    own stream (stream id equal to the run index), and the median of
    the run estimates is reported together with all of them.
    """
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    if runs < 1:
        raise ValueError(f"run count {runs} must be at least 1")
    estimates = np.empty(runs)
    for run in range(runs):
        gen = RngSpec(base_seed=rng.base_seed, stream_id=run).generator()
        sampler = _normal_sampler(gen, integrand.dim)
        estimates[run] = _mean_se_of(integrand, sampler, n)[0]
    return float(np.median(estimates)), estimates


def mc_mean_se(integrand: Integrand, n: int, rng: RngSpec):
    """Single-stream Monte Carlo mean with its standard error."""
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    gen = rng.generator()
    return _mean_se_of(integrand, _normal_sampler(gen, integrand.dim), n)


def price_qmc(integrand: Integrand, n: int) -> float:
    """Deterministic quasi-Monte Carlo price over mapped Sobol points."""
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    if integrand.dim == 0:
        return float(np.asarray(integrand(np.zeros((1, 0))))[0])
    stream = SobolStream(integrand.dim)
    return _mean_se_of(integrand, lambda m: inv_norm_cdf(stream.points(m)), n)[0]


def price_asg(
    integrand: Integrand,
    tol: float,
    seqs=None,
    max_evals: int = DEFAULT_MAX_EVALS,
    trace=None,
):
    """Adaptive sparse-grid price; returns the estimate and the state.

    Defaults to the nested Genz-Keister sequence in every dimension,
    which keeps the distinct-point count low on smooth integrands.
    """
    if integrand.dim == 0:
        value = float(np.asarray(integrand(np.zeros((1, 0))))[0])
        state = AdaptiveState(dim=0, old_set={()}, value=value)
        state.evaluations = 1
        state.distinct_points = 1
        return value, state
    if seqs is None:
        seqs = genz_keister_sequence()
    value, _, state = adaptive_quadrature(
        integrand, integrand.dim, tol, seqs, max_evals=max_evals, trace=trace
    )
    return value, state


def price_cv(
    integrand: Integrand,
    n: int,
    mode: str = "mc",
    rng: Optional[RngSpec] = None,
    level: int = 2,
) -> float:
    """Control-variate price: exact interpolant mean plus residual mean.

    Builds the total-degree sparse-grid interpolant g of the integrand,
    takes its Gaussian mean exactly, and samples only the residual
    f - g with unit coefficient.  Integrands inside the interpolation
    space are priced with zero sampling error.
    """
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    if integrand.dim == 0:
        return float(np.asarray(integrand(np.zeros((1, 0))))[0])
    g, mean = interpolant_total_degree(integrand, integrand.dim, q=level)

    def residual(points):
        return np.asarray(integrand(points), dtype=float) - np.asarray(
            g(points), dtype=float
        )

    if mode == "mc":
        if rng is None:
            raise ValueError("mc mode needs an rng specification")
        sampler = _normal_sampler(rng.generator(), integrand.dim)
    elif mode == "qmc":
        stream = SobolStream(integrand.dim)
        sampler = lambda m: inv_norm_cdf(stream.points(m))
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return mean + _mean_se_of(residual, sampler, n)[0]


def _vg_forward_weights(model):
    """Weights c_i S0_i e^{(r + omega_i) T} and the discount factor e^{-rT}."""
    w = model.c * model.S0 * np.exp((model.r + model.omegas()) * model.T)
    return w, math.exp(-model.r * model.T)


def vg_smoothed_integrand(
    model: VarianceGammaBasket,
    dec: Optional[linalg.SmoothingDecomposition] = None,
    v=None,
) -> Integrand:
    """Smoothed Variance-Gamma integrand over (y, zbar).

    The first coordinate is the Gamma time change value y; the rest
    are the non-smoothing Gaussian factors.  Given y it is the
    Black-Scholes conditional call with exponent theta y + sqrt(y) zbar L^T,
    growth e^{y lambda1^2/2} and volatility sqrt(y) lambda1, discounted,
    where L and lambda1 come from the time-free base covariance
    (decomposed once); y = 1 with theta = 0 is the Black-Scholes case.
    A binary direction v produces the shifted-strike variant.
    """
    w, disc = _vg_forward_weights(model)
    w_sel, w_rest = _split_weights(w, v)
    if dec is None:
        dec = linalg.rank_one_reduce(vg_base_matrix(model), v)
    loadings = dec.V[:, 1:] * np.sqrt(dec.lambda_sq[1:])
    lam1_sq = dec.lambda_sq[0]
    lam1 = math.sqrt(lam1_sq)
    theta = model.theta
    K = model.K

    def func(points):
        points = np.asarray(points, dtype=float)
        y = points[:, 0]
        root = np.sqrt(y)
        tilt = np.exp(theta * y[:, None] + root[:, None] * (points[:, 1:] @ loadings.T))
        growth = np.exp(0.5 * y * lam1_sq)
        return disc * _conditional_call(tilt, w_sel, w_rest, K, growth, root * lam1)

    return Integrand(dim=model.d, func=func, label="VG-CS" if v is None else "VG-CS2")


def vg_raw_integrand(
    model: VarianceGammaBasket,
    dec: Optional[linalg.SmoothingDecomposition] = None,
) -> Integrand:
    """Kinked Variance-Gamma payoff over (y, z) in rotated coordinates."""
    w, disc = _vg_forward_weights(model)
    if dec is None:
        dec = linalg.rank_one_reduce(vg_base_matrix(model))
    transform = dec.V * np.sqrt(dec.lambda_sq)
    theta = model.theta
    K = model.K

    def func(points):
        points = np.asarray(points, dtype=float)
        y = points[:, 0]
        x = theta * y[:, None] + np.sqrt(y)[:, None] * (points[:, 1:] @ transform.T)
        return disc * _payoff(x, w, K)

    return Integrand(dim=model.d + 1, func=func, label="VG-raw")


def price_vg_smoothed(
    model: VarianceGammaBasket,
    tol: float,
    v=None,
    max_evals: int = DEFAULT_MAX_EVALS,
    trace=None,
):
    """Adaptive sparse-grid price of a Variance-Gamma basket.

    The time change is integrated with generalized Gauss-Laguerre
    differences after substituting y = nu u, which maps the Gamma
    density exactly onto the Laguerre weight with alpha = T/nu - 1;
    the Gaussian factors use the Genz-Keister sequence.  Returns the
    estimate and the adaptive state.
    """
    g = vg_smoothed_integrand(model, v=v)
    nu = model.nu
    alpha = model.T / nu - 1.0

    def substituted(points):
        pts = np.array(points, dtype=float, copy=True)
        pts[:, 0] *= nu
        return g(pts)

    wrapped = Integrand(dim=model.d, func=substituted, label=g.label)
    seqs = [laguerre_sequence(alpha)] + [genz_keister_sequence()] * (model.d - 1)
    return price_asg(wrapped, tol, seqs=seqs, max_evals=max_evals, trace=trace)


def price_vg_mc(
    model: VarianceGammaBasket,
    n: int,
    rng: RngSpec,
    v=None,
    raw: bool = False,
    return_se: bool = False,
):
    """Monte Carlo price of a Variance-Gamma basket.

    Draws the time change from its Gamma law and the Gaussian factors
    from the standard normal, then averages the smoothed integrand
    (or the raw payoff when ``raw`` is set, using the full factor
    vector).
    """
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    integrand = (
        vg_raw_integrand(model) if raw else vg_smoothed_integrand(model, v=v)
    )
    gen = rng.generator()
    shape = model.T / model.nu
    scale = model.nu
    inner = integrand.dim - 1

    def sampler(m):
        y = gen.gamma(shape, scale, m)
        z = gen.standard_normal((m, inner))
        return np.column_stack([y, z])

    mean, se = _mean_se_of(integrand, sampler, n)
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


def reference_price(
    model: BlackScholesBasket, max_evals: int = DEFAULT_MAX_EVALS
) -> float:
    """High-accuracy smoothed adaptive sparse-grid price."""
    prob = effective_bs(model)
    dec = linalg.rank_one_reduce(prob.Sigma)
    integrand = smoothed_integrand(prob, dec)
    value, _ = price_asg(
        integrand, reference_tolerance(model.d), max_evals=max_evals
    )
    return value
