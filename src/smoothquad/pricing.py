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
    adaptive_quadrature,
    interpolant_total_degree,
)

_DRAW = 1 << 16
_BLOCK = 1 << 13
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
        d1 = np.clip((lg + half) / sigma, -_D_CLAMP, _D_CLAMP)
        d2 = np.clip((lg - half) / sigma, -_D_CLAMP, _D_CLAMP)
        price = np.asarray(ndtr(d1) * s0 - ndtr(d2) * k)
        intrinsic = np.maximum(s0 - k, 0.0)
        np.maximum(price, intrinsic, out=price)
        np.minimum(price, s0, out=price)
        price[price < _PRICE_FLOOR] = 0.0
        live = (k > 0.0) & (sigma > 0.0) & (s0 > 0.0)
        if not np.all(live):
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
    siga = np.asarray(sigma, dtype=float)
    if np.any(siga < 0.0) or not np.all(np.isfinite(siga)):
        raise ValueError(f"volatility must be nonnegative, got {sigma}")
    out = _bs_call_core(s0a, k, siga)
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
    K = prob.K

    def func(points):
        tilt = np.asarray(points, dtype=float) @ loadings.T
        return _conditional_call(np.exp(tilt, out=tilt), w_sel, w_rest, K, growth, lam1)

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


def _mean_se_of(f, sampler, n):
    """Mean of ``f`` over ``n`` sampled points, and its standard error.

    The sampler is asked for ``_BLOCK`` rows at a time (the last block
    holds the rest), and ``f`` and its two sums run over each block as
    it comes, so the working set is one block of points, 1.6 MB at
    d = 25, whatever ``n`` is.  Philox normals and Sobol points do not
    depend on how a stream is split, so the draws are the same for any
    block size; a sampler whose draws do depend on it (the Variance-Gamma
    one) draws ``_DRAW`` rows at a time and serves blocks from them.
    """
    sums = []
    squares = []
    for lo in range(0, n, _BLOCK):
        vals = np.asarray(f(sampler(min(_BLOCK, n - lo))), dtype=float)
        sums.append(float(np.sum(vals)))
        squares.append(float(np.sum(vals * vals)))
    mean = math.fsum(sums) / n
    second = math.fsum(squares) / n
    var = max(second - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _in_batches(draw, n):
    """Sampler serving blocks from ``draw(m)`` batches of ``_DRAW`` rows.

    For draws that depend on the batch size: the batches are those of
    ``_DRAW`` rows and then the rest of ``n``, whatever blocks are asked
    for.  ``_DRAW`` is a multiple of ``_BLOCK``, so no block straddles
    two batches.
    """
    batch = np.empty((0, 0))
    taken = 0
    drawn = 0

    def sampler(m):
        nonlocal batch, taken, drawn
        if taken == batch.shape[0]:
            batch = None  # the spent batch goes before the next is drawn
            batch = draw(min(_DRAW, n - drawn))
            drawn += batch.shape[0]
            taken = 0
        taken += m
        return batch[taken - m : taken]

    return sampler


def _block_buffer(n, dim):
    """Working buffer for the blocks of an ``n``-point estimate."""
    return np.empty((min(n, _BLOCK), dim))


def _normal_sampler(gen, buf):
    """Sampler of standard normals, each block landing in the leading rows of ``buf``.

    Each block is drawn and assigned, so the draw is freed before the
    integrand runs: only one block-sized temporary is alive at a time,
    and the allocator reuses its memory instead of returning it to the
    system and faulting it back in on every block.  (Drawing with
    ``out=`` would save the copy, but perfbench's tracer wraps
    ``standard_normal`` with a ``size`` argument only.)
    """

    def sampler(m):
        out = buf[:m]
        out[...] = gen.standard_normal(out.shape)
        return out

    return sampler


def _sobol_normal_sampler(dim, n):
    """Sampler of Sobol points mapped to normals in place, in the stream's block."""
    stream = SobolStream(dim, block=min(n, _BLOCK))

    def sampler(m):
        u = stream.points(m)
        return inv_norm_cdf(u, out=u)

    return sampler


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
    buf = _block_buffer(n, integrand.dim)
    for run in range(runs):
        gen = RngSpec(base_seed=rng.base_seed, stream_id=run).generator()
        sampler = _normal_sampler(gen, buf)
        estimates[run] = _mean_se_of(integrand, sampler, n)[0]
    return float(np.median(estimates)), estimates


def mc_mean_se(integrand: Integrand, n: int, rng: RngSpec):
    """Single-stream Monte Carlo mean with its standard error."""
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    sampler = _normal_sampler(rng.generator(), _block_buffer(n, integrand.dim))
    return _mean_se_of(integrand, sampler, n)


def price_qmc(integrand: Integrand, n: int) -> float:
    """Deterministic quasi-Monte Carlo price over mapped Sobol points.

    The points stream through one block of the Sobol stream's own
    arrays, mapped to normals in place, so memory does not grow with n.
    """
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    if integrand.dim == 0:
        return float(np.asarray(integrand(np.zeros((1, 0))))[0])
    return _mean_se_of(integrand, _sobol_normal_sampler(integrand.dim, n), n)[0]


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
    if seqs is None:
        seqs = genz_keister_sequence()
    value, _, state = adaptive_quadrature(
        integrand, integrand.dim, tol, seqs, max_evals=max_evals, trace=trace
    )
    return value, state


def control_variate(integrand: Integrand):
    """Residual f - g of the interpolation control variate, and E[g(Z)].

    g is the total-degree-2 sparse-grid interpolant of the integrand,
    built once; its Gaussian mean is exact, so the mean of the residual
    under any sampler plus ``mean`` estimates the price.
    """
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
    ``rng``) or the Sobol points (``mode="qmc"``).  Integrands inside
    the interpolation space are priced with zero sampling error.
    """
    if n < 1:
        raise ValueError(f"sample count {n} must be at least 1")
    if mode not in ("mc", "qmc"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "mc" and rng is None:
        raise ValueError("mc mode needs an rng specification")
    if integrand.dim == 0:
        return float(np.asarray(integrand(np.zeros((1, 0))))[0])
    residual, mean = control_variate(integrand)
    if mode == "qmc":
        return mean + price_qmc(residual, n)
    return mean + mc_mean_se(residual, n, rng)[0]


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
        tilt = points[:, 1:] @ loadings.T
        tilt *= root[:, None]
        tilt += theta * y[:, None]
        np.exp(tilt, out=tilt)
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
        x = points[:, 1:] @ transform.T
        x *= np.sqrt(y)[:, None]
        x += theta * y[:, None]
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

    def draw(m):
        y = gen.gamma(shape, scale, m)
        z = gen.standard_normal((m, inner))
        return np.column_stack([y, z])

    mean, se = _mean_se_of(integrand, _in_batches(draw, n), n)
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
