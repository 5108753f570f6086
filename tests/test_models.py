import math

import numpy as np
import pytest

from smoothquad import linalg, models, rules1d
from smoothquad.errors import OmegaUndefined, OutOfDomain


class TestDoustCorrelation:
    def test_three_asset_example(self):
        rho = models.doust_correlation([0.8, 0.9])
        np.testing.assert_allclose(rho[0, 1], 0.8, rtol=1e-14)
        np.testing.assert_allclose(rho[0, 2], 0.72, rtol=1e-14)
        np.testing.assert_allclose(rho[1, 2], 0.9, rtol=1e-14)
        np.testing.assert_allclose(np.diag(rho), 1.0, atol=1e-14)

    def test_single_parameter(self):
        rho = models.doust_correlation([0.5])
        np.testing.assert_allclose(rho, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)

    def test_valid_correlation_for_many_dimensions(self):
        rng = np.random.default_rng(11)
        for d in range(2, 36):
            x = rng.uniform(-1.0, 1.0, d - 1)
            rho = models.doust_correlation(x)
            assert rho.shape == (d, d)
            np.testing.assert_allclose(np.diag(rho), 1.0, atol=1e-12)
            np.testing.assert_allclose(rho, rho.T, atol=1e-15)
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_positive_parameters_give_positive_correlations(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.uniform(0.8, 1.0, 7)
            rho = models.doust_correlation(x)
            assert np.all(rho > 0.0)
            np.linalg.cholesky(rho)

    def test_parameters_out_of_range(self):
        with pytest.raises(OutOfDomain):
            models.doust_correlation([0.3, 1.2])
        with pytest.raises(OutOfDomain):
            models.doust_correlation([-1.01])

    def test_boundary_parameters(self):
        rho = models.doust_correlation([1.0, 1.0])
        np.testing.assert_allclose(rho, np.ones((3, 3)), atol=1e-15)

    def test_result_is_read_only(self):
        rho = models.doust_correlation([0.5, 0.5])
        with pytest.raises(ValueError):
            rho[0, 1] = 0.0

    def test_matches_running_product_loop(self):
        # the factor built one multiplication at a time, as the columns are defined
        gen = np.random.default_rng(4)
        for d in range(1, 41):
            for x in (gen.uniform(0.8, 1.0, d - 1), gen.uniform(-1.0, 1.0, d - 1)):
                tau = np.zeros((d, d))
                for k in range(d):
                    run = 1.0 if k == 0 else math.sqrt(1.0 - x[k - 1] ** 2)
                    tau[k, k] = run
                    for i in range(k + 1, d):
                        run *= x[i - 1]
                        tau[i, k] = run
                rho = tau @ tau.T
                np.testing.assert_array_equal(models.doust_correlation(x), 0.5 * (rho + rho.T))


class TestOmega:
    def test_zero_skew_zero_vol(self):
        assert models.omega(0.0, 0.0, 0.5) == 0.0

    def test_fitted_first_asset(self):
        w = models.omega(-0.1368, 0.1099, 0.5)
        np.testing.assert_allclose(w, 0.126664, atol=5e-6)

    def test_small_nu_limit(self):
        # log(1 - s nu)/nu -> -s as nu -> 0, s = theta + sigma^2/2
        theta, sigma = 0.02, 0.3
        s = theta + 0.5 * sigma**2
        w = models.omega(theta, sigma, 1e-9)
        np.testing.assert_allclose(w, -s, rtol=1e-7)

    def test_undefined_region(self):
        with pytest.raises(OmegaUndefined):
            models.omega(2.0, 0.1, 1.0)
        with pytest.raises(OmegaUndefined):
            models.omega(0.0, 2.0, 1.0)

    def test_nu_must_be_positive(self):
        with pytest.raises(ValueError):
            models.omega(0.0, 0.1, 0.0)


BS_OK = dict(S0=[10.0, 12.0], sigma=[0.3, 0.3], rho=np.eye(2), c=[0.5, 0.5], K=11.0)
BS_INVALID = [
    {"S0": [10.0, -1.0]},
    {"sigma": [0.3]},
    {"K": 0.0},
    {"K": math.inf},
    {"T": -1.0},
    {"T": math.inf},
    {"rho": [[1.0, 0.2], [0.3, 1.0]]},
    {"rho": [[1.1, 0.0], [0.0, 1.0]]},
]


class TestBlackScholesBasket:
    def test_forward_and_dimension(self):
        m = models.BlackScholesBasket(
            S0=[10.0, 20.0],
            sigma=[0.3, 0.4],
            rho=np.eye(2),
            c=[0.5, 0.5],
            K=15.0,
        )
        assert m.d == 2
        assert m.forward() == 15.0
        assert m.T == 1.0

    def test_validation(self):
        models.BlackScholesBasket(**BS_OK)
        for bad in BS_INVALID:
            with pytest.raises(ValueError):
                models.BlackScholesBasket(**{**BS_OK, **bad})

    def test_fields_immutable(self):
        m = models.BlackScholesBasket(
            S0=[10.0, 12.0],
            sigma=[0.3, 0.3],
            rho=np.eye(2),
            c=[0.5, 0.5],
            K=11.0,
        )
        with pytest.raises(ValueError):
            m.S0[0] = 5.0


def test_construction_leaves_the_callers_arrays_alone():
    # each model holds its own read-only copy; the caller's arrays stay writeable
    vg = {k: np.array(v, dtype=float) for k, v in BS_OK.items() if k != "K"}
    vg["theta"] = np.array([-0.1, 0.0])
    eff = {"w": np.array([0.5, 0.5]), "Sigma": np.array([[0.04, 0.01], [0.01, 0.04]])}
    for model, arrays in [
        (models.VarianceGammaBasket(**vg, K=11.0, nu=0.3), vg),
        (models.EffectiveProblem(**eff, K=11.0), eff),
    ]:
        for name, arr in arrays.items():
            held = getattr(model, name).copy()
            assert arr.flags.writeable, name
            arr += 1.0
            np.testing.assert_array_equal(getattr(model, name), held)


class TestEffectiveBlackScholes:
    def test_independent_pair_closed_form(self):
        m = models.BlackScholesBasket(
            S0=[1.0, 1.0],
            sigma=[0.2, 0.2],
            rho=np.eye(2),
            c=[0.5, 0.5],
            K=1.0,
        )
        eff = models.effective_bs(m)
        np.testing.assert_allclose(eff.w, 0.5 * math.exp(-0.02), rtol=1e-15)
        np.testing.assert_allclose(eff.Sigma, np.diag([0.04, 0.04]), atol=1e-16)
        assert eff.K == 1.0

    def test_weights_make_prices_martingales(self):
        # E[w_i e^{X_i}] = c_i S0_i requires w_i = c_i S0_i e^{-Sigma_ii/2}
        m = models.random_instance(5, 77)
        eff = models.effective_bs(m)
        np.testing.assert_allclose(
            eff.w * np.exp(0.5 * np.diag(eff.Sigma)), m.c * m.S0, rtol=1e-14
        )

    def test_maturity_scales_covariance(self):
        base = models.random_instance(4, 3)
        double = models.BlackScholesBasket(
            S0=base.S0, sigma=base.sigma, rho=base.rho, c=base.c, K=base.K, T=2.0
        )
        np.testing.assert_allclose(
            models.effective_bs(double).Sigma,
            2.0 * models.effective_bs(base).Sigma,
            rtol=1e-15,
        )

    def test_decomposable(self):
        for seed in range(20):
            eff = models.effective_bs(models.random_instance(2 + seed, seed))
            dec = linalg.rank_one_reduce(eff.Sigma)
            assert dec.lambda_sq[0] > 0.0


def test_smoothing_split_of_each_model():
    m = models.random_instance(6, 4)
    w, sigma = models.smoothing_split(m)
    eff = models.effective_bs(m)
    np.testing.assert_array_equal(w, eff.w)
    np.testing.assert_array_equal(sigma, eff.Sigma)
    # Variance-Gamma: forward weights on the time-free base matrix, which
    # the time change y tilts and scales to the effective problem given y
    ex = models.VarianceGammaBasket(**{**vars(models.vg_example()), "r": 0.05})
    w, sigma = models.smoothing_split(ex)
    np.testing.assert_array_equal(w, ex.c * ex.S0 * np.exp((ex.r + ex.omegas()) * ex.T))
    np.testing.assert_array_equal(sigma, models.vg_base_matrix(ex))
    y = 0.7
    eff = models.effective_vg(ex, y)
    np.testing.assert_allclose(w * np.exp(ex.theta * y), eff.w, rtol=1e-14)
    np.testing.assert_allclose(y * sigma, eff.Sigma, rtol=1e-15)


class TestVarianceGamma:
    def test_worked_example_eigenvalues(self):
        ex = models.vg_example()
        lam = linalg.rank_one_reduce(models.vg_base_matrix(ex)).lambda_sq
        np.testing.assert_allclose(lam[0], 0.00023, atol=5e-6)
        np.testing.assert_allclose(
            np.sort(lam[1:])[::-1], [0.03432, 0.00652], atol=5e-6
        )

    def test_modified_example_eigenvalues(self):
        ex = models.vg_example(modified=True)
        assert ex.sigma[2] == 0.1365
        lam = linalg.rank_one_reduce(models.vg_base_matrix(ex)).lambda_sq
        np.testing.assert_allclose(lam[0], 0.01034, atol=5e-6)
        np.testing.assert_allclose(
            np.sort(lam[1:])[::-1], [0.02255, 0.00526], atol=5e-6
        )

    def test_best_pair_direction_variance(self):
        ex = models.vg_example()
        val = linalg.lambda1_sq(
            models.vg_base_matrix(ex), np.array([1.0, 1.0, 0.0])
        )
        np.testing.assert_allclose(val, 0.00109, atol=5e-6)

    def test_martingale_identity_by_laguerre(self):
        # E[exp((theta_i + sigma_i^2/2) G)] = exp(-omega_i T) for the
        # Gamma time change G with mean T and variance nu T
        for ex in (models.vg_example(), models.vg_example(modified=True)):
            alpha = ex.T / ex.nu - 1.0
            rule = rules1d.gauss_laguerre_generalized(40, alpha)
            omegas = ex.omegas()
            for i in range(ex.d):
                s = float(ex.theta[i]) + 0.5 * float(ex.sigma[i]) ** 2
                quad = float(rule.weights @ np.exp(s * ex.nu * rule.nodes))
                exact = math.exp(-omegas[i] * ex.T)
                np.testing.assert_allclose(quad, exact, rtol=1e-8)

    def test_effective_problem_scales_with_time_change(self):
        ex = models.vg_example(modified=True)
        eff1 = models.effective_vg(ex, 1.0)
        eff2 = models.effective_vg(ex, 2.0)
        np.testing.assert_allclose(eff2.Sigma, 2.0 * eff1.Sigma, rtol=1e-15)
        lam1 = linalg.rank_one_reduce(eff1.Sigma).lambda_sq
        lam2 = linalg.rank_one_reduce(eff2.Sigma).lambda_sq
        np.testing.assert_allclose(lam2, 2.0 * lam1, rtol=1e-10)

    def test_effective_weights_tilt(self):
        ex = models.vg_example()
        y = 0.7
        eff = models.effective_vg(ex, y)
        expected = ex.c * ex.S0 * np.exp(ex.omegas() * ex.T + ex.theta * y)
        np.testing.assert_allclose(eff.w, expected, rtol=1e-14)
        with pytest.raises(ValueError):
            models.effective_vg(ex, 0.0)

    def test_base_matrix_free_of_time(self):
        ex = models.vg_example()
        base = models.vg_base_matrix(ex)
        np.testing.assert_allclose(
            base, np.outer(ex.sigma, ex.sigma) * ex.rho, rtol=1e-15
        )

    def test_validation(self):
        # every Black-Scholes check holds for the Variance-Gamma basket too
        ok = dict(BS_OK, theta=[-0.1, 0.0], nu=0.3)
        vg = models.VarianceGammaBasket(**ok)
        assert isinstance(vg, models.BlackScholesBasket) and vg.r == 0.0
        vg_invalid = [{"theta": [-0.1]}, {"theta": [-0.1, 0.0, 0.0]}, {"nu": 0.0}, {"nu": -0.3}]
        vg_invalid += [{"r": math.nan}, {"r": math.inf}, {"r": -math.inf}]
        for bad in BS_INVALID + vg_invalid:
            with pytest.raises(ValueError):
                models.VarianceGammaBasket(**{**ok, **bad})
        with pytest.raises(ValueError):
            vg.theta[0] = 0.1

    def test_invalid_skew_rejected_at_construction(self):
        with pytest.raises(OmegaUndefined):
            models.VarianceGammaBasket(
                S0=[1.0],
                sigma=[0.2],
                rho=[[1.0]],
                c=[1.0],
                K=1.0,
                theta=[5.0],
                nu=1.0,
            )


class TestRandomInstances:
    def test_deterministic(self):
        a = models.random_instance(8, 123)
        b = models.random_instance(8, 123)
        np.testing.assert_array_equal(a.S0, b.S0)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.rho, b.rho)
        assert a.K == b.K

    def test_seeds_differ(self):
        a = models.random_instance(8, 123)
        c = models.random_instance(8, 124)
        assert not np.array_equal(a.S0, c.S0)

    def test_parameter_ranges(self):
        for seed in range(15):
            m = models.random_instance(2 + seed * 2, seed)
            assert np.all(m.S0 >= 8.0) and np.all(m.S0 <= 20.0)
            assert np.all(m.sigma >= 0.3) and np.all(m.sigma <= 0.4)
            assert np.all(m.rho > 0.0)
            np.testing.assert_allclose(m.c, 1.0 / m.d, rtol=1e-15)
            assert m.T == 1.0
            np.linalg.cholesky(m.rho)

    def test_strike_regimes(self):
        atm = models.random_instance(6, 9, "atm")
        itm = models.random_instance(6, 9, "itm")
        otm = models.random_instance(6, 9, "otm")
        fwd = atm.forward()
        np.testing.assert_allclose(atm.K, fwd, rtol=1e-15)
        np.testing.assert_allclose(itm.K, 0.8 * fwd, rtol=1e-15)
        np.testing.assert_allclose(otm.K, 1.2 * fwd, rtol=1e-15)
        np.testing.assert_array_equal(itm.S0, atm.S0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            models.random_instance(1, 0)
        with pytest.raises(ValueError):
            models.random_instance(3, 0, "sideways")

    def test_vg_instance_shares_gaussian_part(self):
        bs = models.random_instance(8, 123)
        vg = models.random_vg_instance(8, 123)
        np.testing.assert_array_equal(vg.S0, bs.S0)
        np.testing.assert_array_equal(vg.sigma, bs.sigma)
        np.testing.assert_array_equal(vg.rho, bs.rho)
        assert vg.K == bs.K
        assert vg.nu == 0.3

    def test_vg_skew_range_and_determinism(self):
        for seed in (1, 5, 9):
            vg = models.random_vg_instance(8, seed)
            assert np.all(vg.theta >= -0.1) and np.all(vg.theta <= 0.05)
            vg2 = models.random_vg_instance(8, seed)
            np.testing.assert_array_equal(vg.theta, vg2.theta)
        assert not np.array_equal(
            models.random_vg_instance(8, 1).theta,
            models.random_vg_instance(8, 2).theta,
        )
