"""Basket problem definitions and reductions to effective (w, Sigma) form.

Two model families: multivariate Black-Scholes (driftless lognormals
under the pricing measure with zero rate) and the Variance-Gamma model,
where the correlated Brownian driver is evaluated at an independent
Gamma-process time change.  Both reduce to pricing E[(sum w_i e^{X_i} -
K)^+] with X Gaussian; in the VG case the reduction holds conditionally
on the time change y, with weights tilted by e^{theta_i y} and the
covariance scaled by y.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OmegaUndefined, OutOfDomain
from .sampling import RngSpec

ATM = "atm"
ITM = "itm"
OTM = "otm"
STRIKE_FACTORS = {ATM: 1.0, ITM: 0.8, OTM: 1.2}

# instance-parameter draws use dedicated stream ids far above any
# per-run Monte Carlo stream
_INSTANCE_STREAM = 10**9
_THETA_STREAM = 10**9 + 1


def _frozen_vector(a, name, positive=False):
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if positive and not np.all(arr > 0.0):
        raise ValueError(f"{name} must be strictly positive")
    arr.setflags(write=False)
    return arr


def _frozen_correlation(rho, d):
    arr = np.asarray(rho, dtype=float)
    if arr.shape != (d, d):
        raise ValueError(f"correlation must be {d}x{d}, got {arr.shape}")
    if np.max(np.abs(arr - arr.T)) > 1e-12:
        raise ValueError("correlation matrix is not symmetric")
    if np.max(np.abs(np.diag(arr) - 1.0)) > 1e-12:
        raise ValueError("correlation diagonal must be one")
    arr = 0.5 * (arr + arr.T)
    arr.setflags(write=False)
    return arr


def doust_correlation(x) -> np.ndarray:
    """Correlation matrix from d-1 parameters via cumulative products.

    Column k of the lower-triangular factor tau starts with k-1 zeros,
    carries sqrt(1 - x_{k-1}^2) times one, and continues with that scale
    times the running products x_k, x_k x_{k+1}, ...; the first column
    is one followed by the cumulative products of x itself.  The result
    tau tau^T is a correlation matrix for any x in [-1, 1]^{d-1}.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError("parameter vector must be one-dimensional")
    if x.size and np.max(np.abs(x)) > 1.0:
        raise OutOfDomain("correlation parameters must lie in [-1, 1]")
    d = x.size + 1
    tau = np.zeros((d, d))
    for k in range(d):
        scale = 1.0 if k == 0 else math.sqrt(1.0 - x[k - 1] ** 2)
        tau[k:, k] = np.cumprod(np.concatenate(([scale], x[k:])))
    rho = tau @ tau.T
    rho = 0.5 * (rho + rho.T)
    rho.setflags(write=False)
    return rho


def omega(theta: float, sigma: float, nu: float) -> float:
    """Martingale drift correction of the Variance-Gamma exponent."""
    if not nu > 0.0:
        raise ValueError(f"nu = {nu} must be positive")
    arg = 1.0 - theta * nu - 0.5 * sigma * sigma * nu
    if not arg > 0.0:
        raise OmegaUndefined(
            f"log argument {arg} <= 0 for theta={theta}, sigma={sigma}, nu={nu}"
        )
    return math.log(arg) / nu


@dataclass(frozen=True)
class BlackScholesBasket:
    """European basket call under driftless multivariate Black-Scholes."""

    S0: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    c: np.ndarray
    K: float
    T: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "S0", _frozen_vector(self.S0, "S0", positive=True))
        d = self.S0.size
        object.__setattr__(
            self, "sigma", _frozen_vector(self.sigma, "sigma", positive=True)
        )
        object.__setattr__(self, "c", _frozen_vector(self.c, "c", positive=True))
        if self.sigma.size != d or self.c.size != d:
            raise ValueError("S0, sigma and c must share one length")
        object.__setattr__(self, "rho", _frozen_correlation(self.rho, d))
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"strike {self.K} must be positive and finite")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"maturity {self.T} must be positive and finite")

    @property
    def d(self) -> int:
        return self.S0.size

    def forward(self) -> float:
        """Forward basket value c^T S0."""
        return float(self.c @ self.S0)


@dataclass(frozen=True, kw_only=True)
class VarianceGammaBasket(BlackScholesBasket):
    """Basket call under the multivariate Variance-Gamma model.

    The Black-Scholes basket, with its checks, run on a Gamma time change
    of variance rate ``nu``; ``theta`` holds the per-asset skews and
    ``r`` the rate.
    """

    theta: np.ndarray
    nu: float
    r: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "theta", _frozen_vector(self.theta, "theta"))
        if self.theta.size != self.d:
            raise ValueError("theta must have one skew per asset")
        if not self.nu > 0.0:
            raise ValueError(f"nu = {self.nu} must be positive")
        if not math.isfinite(self.r):
            raise ValueError(f"rate {self.r} must be finite")
        # omega existence doubles as the model validity check
        self.omegas()

    def omegas(self) -> np.ndarray:
        """Per-asset martingale corrections."""
        return np.array(
            [omega(float(th), float(sg), self.nu) for th, sg in zip(self.theta, self.sigma)]
        )


@dataclass(frozen=True)
class EffectiveProblem:
    """Reduced basket: E[(sum w_i e^{X_i} - K)^+] with X ~ N(0, Sigma)."""

    w: np.ndarray
    Sigma: np.ndarray
    K: float

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen_vector(self.w, "w", positive=True))
        sig = np.asarray(self.Sigma, dtype=float)
        if sig.shape != (self.w.size, self.w.size):
            raise ValueError("Sigma shape does not match w")
        if np.max(np.abs(sig - sig.T)) > 1e-12 * max(np.max(np.abs(sig)), 1e-300):
            raise ValueError("Sigma is not symmetric")
        sig = 0.5 * (sig + sig.T)
        sig.setflags(write=False)
        object.__setattr__(self, "Sigma", sig)

    @property
    def d(self) -> int:
        return self.w.size


def effective_bs(model: BlackScholesBasket) -> EffectiveProblem:
    """Reduce a Black-Scholes basket to effective (w, Sigma, K) form.

    The weights absorb the lognormal variance correction, w_i = c_i
    S0_i exp(-sigma_i^2 T / 2), and Sigma_ij = sigma_i sigma_j rho_ij T.
    """
    w = model.c * model.S0 * np.exp(-0.5 * model.sigma**2 * model.T)
    Sigma = np.outer(model.sigma, model.sigma) * model.rho * model.T
    return EffectiveProblem(w=w, Sigma=Sigma, K=model.K)


def vg_base_matrix(model: VarianceGammaBasket) -> np.ndarray:
    """Time-change-free Gaussian base covariance sigma_i sigma_j rho_ij.

    Conditionally on the Gamma time change taking the value y, the log
    returns are Gaussian with covariance y times this matrix, so its
    smoothing decomposition can be computed once and rescaled.
    """
    base = np.outer(model.sigma, model.sigma) * model.rho
    base = 0.5 * (base + base.T)
    base.setflags(write=False)
    return base


def effective_vg(model: VarianceGammaBasket, y: float) -> EffectiveProblem:
    """Conditional effective problem given the time change value y."""
    if not y > 0.0:
        raise ValueError(f"time change value {y} must be positive")
    w = (
        model.c
        * model.S0
        * np.exp((model.r + model.omegas()) * model.T + model.theta * y)
    )
    return EffectiveProblem(w=w, Sigma=y * vg_base_matrix(model), K=model.K)


def random_instance(d: int, seed: int, strike_mode: str = ATM) -> BlackScholesBasket:
    """Seeded random Black-Scholes basket.

    Spots are uniform on [8, 20], volatilities on [0.3, 0.4], and the
    correlation comes from Doust parameters uniform on [0.8, 1], so all
    pairwise correlations are positive.  Weights are 1/d, maturity one
    year, and the strike is the forward scaled by the regime factor
    (1.0 at, 0.8 in, 1.2 out of the money).
    """
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    factor = STRIKE_FACTORS.get(str(strike_mode).lower())
    if factor is None:
        raise ValueError(f"unknown strike mode {strike_mode!r}")
    gen = RngSpec(base_seed=seed, stream_id=_INSTANCE_STREAM).generator()
    S0 = gen.uniform(8.0, 20.0, d)
    sigma = gen.uniform(0.3, 0.4, d)
    x = gen.uniform(0.8, 1.0, d - 1)
    c = np.full(d, 1.0 / d)
    K = factor * float(c @ S0)
    return BlackScholesBasket(
        S0=S0, sigma=sigma, rho=doust_correlation(x), c=c, K=K, T=1.0
    )


def random_vg_instance(
    d: int,
    seed: int,
    strike_mode: str = ATM,
    nu: float = 0.3,
    theta_range: tuple = (-0.1, 0.05),
) -> VarianceGammaBasket:
    """Seeded random Variance-Gamma basket.

    The Gaussian part (spots, volatilities, correlation, weights,
    strike) is exactly the Black-Scholes instance of the same seed; the
    skews theta_i are drawn uniform on theta_range from a separate
    dedicated stream.
    """
    lo, hi = float(theta_range[0]), float(theta_range[1])
    if not lo <= hi:
        raise ValueError(f"empty skew range ({lo}, {hi})")
    bs = random_instance(d, seed, strike_mode)
    gen = RngSpec(base_seed=seed, stream_id=_THETA_STREAM).generator()
    theta = gen.uniform(lo, hi, d)
    return VarianceGammaBasket(**vars(bs), theta=theta, nu=nu)


def vg_example(modified: bool = False) -> VarianceGammaBasket:
    """Three-asset Variance-Gamma basket with fitted parameters.

    A worked in-the-money example with strong skew and one very low
    volatility; ``modified=True`` raises the third volatility to 0.1365,
    which improves the conditioning of the smoothing decomposition.
    Maturity and rate are not part of the fitted set; they default to
    one year and zero.
    """
    sigma3 = 0.1365 if modified else 0.0365
    return VarianceGammaBasket(
        S0=[100.0, 200.0, 300.0],
        sigma=[0.1099, 0.1677, sigma3],
        rho=[[1.0, 0.6, 0.9], [0.6, 1.0, 0.8], [0.9, 0.8, 1.0]],
        c=[1.0 / 3.0, 1.0 / 6.0, 1.0 / 9.0],
        K=75.0,
        theta=[-0.1368, -0.056, -0.1984],
        nu=0.5,
        T=1.0,
        r=0.0,
    )
