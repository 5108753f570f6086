"""nan, inf and -inf in any array or float argument raise at the call.

Every public constructor and function of ``smoothquad`` that takes a
float or an array, plus ``doust_correlation`` and ``EffectiveProblem``,
gets each non-finite value in each such argument in turn: a scalar is
replaced, a vector's last entry, and a matrix's off-diagonal pair, so
the matrix stays symmetric.
"""
import math

import numpy as np
import pytest

import smoothquad
from smoothquad import linalg, models, pricing, sampling
from smoothquad.errors import SmoothQuadError

SIGMA = np.array([[1.0, 0.5], [0.5, 1.0]])
BS = dict(S0=[10.0, 12.0], sigma=[0.3, 0.3], rho=np.eye(2), c=[0.5, 0.5], K=11.0, T=1.0)
VG = dict(BS, theta=[-0.1, 0.0], nu=0.3, r=0.0)
VG_MODEL = models.VarianceGammaBasket(**VG)
PROB = models.effective_bs(models.BlackScholesBasket(**BS))
DEC = linalg.rank_one_reduce(PROB.Sigma)

# (function, valid keyword arguments, the arguments to spoil)
ENTRIES = [
    (linalg.best_binary_v, dict(sigma=SIGMA), ["sigma"]),
    (linalg.lambda1_sq, dict(sigma=SIGMA, v=[1.0, 1.0]), ["sigma", "v"]),
    (linalg.rank_one_reduce, dict(sigma=SIGMA, v=[1.0, 1.0]), ["sigma", "v"]),
    (models.BlackScholesBasket, BS, list(BS)),
    (models.VarianceGammaBasket, VG, list(VG)),
    (models.EffectiveProblem, dict(w=[0.5, 0.5], Sigma=SIGMA, K=1.0), ["w", "Sigma", "K"]),
    (models.doust_correlation, dict(x=[0.5, 0.5]), ["x"]),
    (models.effective_vg, dict(model=VG_MODEL, y=0.7), ["y"]),
    (
        models.random_vg_instance,
        dict(d=2, seed=1, nu=0.3, theta_range=[-0.1, 0.05]),
        ["nu", "theta_range"],
    ),
    (pricing.bs_call, dict(s0=1.0, k=1.0, sigma=0.2), ["s0", "k", "sigma"]),
    (sampling.inv_norm_cdf, dict(p=[0.3, 0.5]), ["p"]),
    (
        pricing.price_asg,
        dict(integrand=pricing.smoothed_integrand(PROB, DEC), tol=1e-3, max_evals=10**7),
        ["tol", "max_evals"],
    ),
    (
        pricing.reference_price,
        dict(model=models.random_instance(2, 9), max_evals=10**7),
        ["max_evals"],
    ),
    (pricing.price_vg_smoothed, dict(model=VG_MODEL, tol=1e-2, v=[1.0, 1.0]), ["tol", "v"]),
    (pricing.smoothed_integrand_v, dict(prob=PROB, v=[1.0, 1.0], dec=DEC), ["v"]),
    (pricing.vg_smoothed_integrand, dict(model=VG_MODEL, v=[1.0, 1.0]), ["v"]),
]


def _spoiled(value, bad):
    arr = np.array(value, dtype=float)
    if arr.ndim == 0:
        return bad
    if arr.ndim == 1:
        arr[-1] = bad
    else:
        arr[0, 1] = arr[1, 0] = bad
    return arr


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "func, kwargs, name",
    [
        pytest.param(func, kwargs, name, id=f"{func.__name__}-{name}")
        for func, kwargs, names in ENTRIES
        for name in names
    ],
)
def test_non_finite_argument_raises_at_the_call(func, kwargs, name, bad):
    func(**kwargs)
    with pytest.raises((ValueError, SmoothQuadError)):
        func(**{**kwargs, name: _spoiled(kwargs[name], bad)})


def test_every_public_entry_is_covered():
    # the remaining public names take no float or array argument: an
    # error class, a model, an integrand, an rng specification or counts
    covered = {func.__name__ for func, _, _ in ENTRIES}
    untouched = {
        "BudgetExhausted", "ConfigInvalid", "Integrand", "OrderOutOfRange", "OutOfDomain",
        "RngSpec", "SmoothQuadError", "SobolStream", "effective_bs", "price_cv",
        "price_mc", "price_qmc", "price_vg_mc", "random_instance", "raw_integrand",
        "smoothed_integrand", "vg_base_matrix", "vg_example",
        "vg_raw_integrand", "__version__",
    }
    assert covered | untouched == set(smoothquad.__all__) | {"doust_correlation", "EffectiveProblem"}
