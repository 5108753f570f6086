import ast
import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from smoothquad import linalg, models, pricing, rules1d
from smoothquad.errors import OutOfDomain
from smoothquad.sampling import RngSpec, SobolStream, inv_norm_cdf


def bs_price(s0, k, sigma):
    d1 = (math.log(s0 / k) + 0.5 * sigma * sigma) / sigma
    d2 = d1 - sigma
    return ndtr(d1) * s0 - ndtr(d2) * k


def smoothing_parts(model, v=None):
    prob = models.effective_bs(model)
    dec = linalg.rank_one_reduce(prob.Sigma, v)
    return prob, dec


def masked_bs_call_core(s0, k, sigma):
    """The conditional-call kernel as it was, masking the formula's inputs."""
    s0, k, sigma = np.broadcast_arrays(
        np.asarray(s0, dtype=float), np.asarray(k, dtype=float), np.asarray(sigma, dtype=float)
    )
    intrinsic = np.maximum(s0 - k, 0.0)
    out = np.where(k <= 0.0, s0 - k, intrinsic)
    live = (k > 0.0) & (sigma > 0.0) & (s0 > 0.0)
    if np.any(live):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lg = np.log(np.where(live, s0, 1.0) / np.where(live, k, 1.0))
            half = 0.5 * sigma * sigma
            sig = np.where(live, sigma, 1.0)
            d1 = np.clip((lg + half) / sig, -pricing._D_CLAMP, pricing._D_CLAMP)
            d2 = np.clip((lg - half) / sig, -pricing._D_CLAMP, pricing._D_CLAMP)
            price = ndtr(d1) * s0 - ndtr(d2) * k
        price = np.maximum(price, intrinsic)
        price = np.minimum(price, s0)
        price = np.where(price < pricing._PRICE_FLOOR, 0.0, price)
        out = np.where(live, price, out)
    return out


def batched_mean_se(f, draw, n):
    """Mean and standard error as sampled before streaming.

    Points come from ``draw`` in 2^16-row batches, each summed over
    8,192-row blocks; the reference the streaming estimators must match.
    """
    sums, squares = [], []
    for lo in range(0, n, 2**16):
        points = draw(min(2**16, n - lo))
        for b in range(0, points.shape[0], 2**13):
            vals = np.asarray(f(points[b : b + 2**13]), dtype=float)
            sums.append(float(np.sum(vals)))
            squares.append(float(np.sum(vals * vals)))
    mean = math.fsum(sums) / n
    var = max(math.fsum(squares) / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


# Peak growth allowed from n = 2^16 to 2^18: the previous block's values
# may be alive while the next block is drawn
PEAK_SLACK = 2 * pricing._BLOCK * 8


def traced_peaks(call, ns):
    """Peak traced allocation of ``call(n)`` for each n, after a warm-up call."""
    call(100)
    peaks = []
    for n in ns:
        tracemalloc.start()
        try:
            call(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def normal_draw(spec, dim):
    gen = spec.generator()
    return lambda m: gen.standard_normal((m, dim))


def sobol_normal_draw(dim):
    stream = SobolStream(dim)
    return lambda m: inv_norm_cdf(stream.points(m))


class TestNormCdf:
    def test_center_and_symmetry(self):
        assert ndtr(0.0) == 0.5
        for x in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(
                ndtr(x) + ndtr(-x), 1.0, rtol=1e-15
            )

    def test_reference_value(self):
        np.testing.assert_allclose(
            ndtr(1.96), 0.9750021048517795, rtol=1e-14
        )

    def test_scalar_comes_back_as_float(self):
        out = ndtr(0.7)
        assert isinstance(out, float)

    def test_array_input(self):
        x = np.array([-1.0, 0.0, 1.0])
        out = ndtr(x)
        assert out.shape == (3,)
        np.testing.assert_allclose(out[1], 0.5, rtol=1e-15)


class TestBsCall:
    def test_at_the_money_value(self):
        np.testing.assert_allclose(
            pricing.bs_call(1.0, 1.0, 0.2), bs_price(1.0, 1.0, 0.2), rtol=1e-14
        )

    def test_generic_value(self):
        np.testing.assert_allclose(
            pricing.bs_call(100.0, 90.0, 0.25), bs_price(100.0, 90.0, 0.25), rtol=1e-14
        )

    def test_nonpositive_strike_pays_forward_difference(self):
        assert pricing.bs_call(5.0, -2.0, 0.3) == 7.0
        assert pricing.bs_call(5.0, 0.0, 0.3) == 5.0

    def test_zero_volatility_pays_intrinsic(self):
        assert pricing.bs_call(4.0, 3.0, 0.0) == 1.0
        assert pricing.bs_call(3.0, 4.0, 0.0) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s0 = rng.uniform(0.1, 50.0)
            k = rng.uniform(0.1, 50.0)
            sigma = rng.uniform(0.0, 2.0)
            p = pricing.bs_call(s0, k, sigma)
            assert p >= max(s0 - k, 0.0) - 1e-12
            assert p <= s0 + 1e-12

    def test_monotone_in_volatility(self):
        sig = np.linspace(0.05, 1.5, 30)
        prices = pricing.bs_call(10.0, 11.0, sig)
        assert np.all(np.diff(prices) > 0.0)

    def test_extreme_arguments_stay_finite(self):
        p = pricing.bs_call(1e120, 1.0, 0.5)
        assert np.isfinite(p)
        assert pricing.bs_call(1e-10, 1e10, 0.1) == 0.0

    def test_vectorized_broadcast(self):
        s0 = np.array([[1.0], [2.0]])
        k = np.array([0.5, 1.0, -1.0])
        out = pricing.bs_call(s0, k, 0.3)
        assert out.shape == (2, 3)
        assert out[0, 2] == 2.0
        assert out[1, 2] == 3.0

    def test_kernel_matches_masked_formula(self):
        # every branch: k <= 0, sigma = 0, vector sigma, s0 from 1e-300 to 1e300
        rng = np.random.default_rng(5)
        for i in range(400):
            n = int(rng.integers(1, 60))
            s0 = np.exp(rng.normal(0.0, 3.0, n)) * 10.0 ** rng.choice([-300, -20, 0, 20, 300])
            k = rng.normal(1.0, 1.5, n) if i % 3 else rng.choice([-1.0, 0.0, 1.0], n)
            if i % 2:
                sigma = rng.choice([0.0, 1e-9, 0.2, 3.0], n)
            else:
                sigma = float(rng.choice([0.0, 0.3]))
            got = pricing._bs_call_core(s0, k, sigma)
            want = masked_bs_call_core(s0, k, sigma)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        for args in [(1.0, 0.5, 0.2), (0.0, 1.0, 0.2), (1.0, 1.0, 0.0), (2.0, -1.0, 0.3)]:
            got = pricing._bs_call_core(*args)
            assert got.shape == () and got == masked_bs_call_core(*args)
        s0 = np.array([[1.0], [2.0]])
        k = np.array([0.5, 1.0, -1.0])
        sigma = np.array([[[0.0]], [[0.3]]])
        np.testing.assert_array_equal(
            pricing._bs_call_core(s0, k, sigma), masked_bs_call_core(s0, k, sigma)
        )

    def test_rejects_bad_spot(self):
        with pytest.raises(OutOfDomain):
            pricing.bs_call(0.0, 1.0, 0.2)
        with pytest.raises(OutOfDomain):
            pricing.bs_call(np.nan, 1.0, 0.2)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_strike(self, k):
        with pytest.raises(OutOfDomain, match="strike"):
            pricing.bs_call(100.0, k, 0.2)
        with pytest.raises(OutOfDomain, match="strike"):
            pricing.bs_call(np.array([100.0, 90.0]), np.array([100.0, k]), 0.2)

    def test_rejects_negative_volatility(self):
        with pytest.raises(ValueError):
            pricing.bs_call(1.0, 1.0, -0.1)


class TestIntegrandConstruction:
    def test_raw_payoff_at_origin(self):
        model = models.random_instance(3, 5)
        prob, dec = smoothing_parts(model)
        f = pricing.raw_integrand(prob, dec)
        assert f.dim == 3
        assert f.label == "raw"
        expected = max(prob.w.sum() - prob.K, 0.0)
        np.testing.assert_allclose(f(np.zeros((1, 3)))[0], expected, rtol=1e-14)

    def test_smoothed_at_origin(self):
        model = models.random_instance(3, 5)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        assert g.dim == 2
        assert g.label == "CS"
        lam1 = math.sqrt(dec.lambda_sq[0])
        expected = pricing.bs_call(
            prob.w.sum() * math.exp(0.5 * lam1 * lam1), prob.K, lam1
        )
        np.testing.assert_allclose(g(np.zeros((1, 2)))[0], expected, rtol=1e-14)

    def test_smoothed_is_positive(self):
        model = models.random_instance(4, 9)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        pts = np.random.default_rng(1).standard_normal((64, 3))
        assert np.all(g(pts) > 0.0)

    def test_all_ones_direction_matches_plain_smoothing(self):
        model = models.random_instance(4, 17)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        g2 = pricing.smoothed_integrand_v(prob, np.ones(4), dec)
        assert g2.label == "CS2"
        pts = np.random.default_rng(2).standard_normal((100, 3))
        np.testing.assert_allclose(g2(pts), g(pts), rtol=1e-12)

    def test_partial_direction_by_hand(self):
        model = models.random_instance(2, 23)
        v = np.array([1.0, 0.0])
        prob, dec = smoothing_parts(model, v)
        g2 = pricing.smoothed_integrand_v(prob, v, dec)
        pts = np.random.default_rng(3).standard_normal((20, 1))
        loadings = dec.V[:, 1:] * np.sqrt(dec.lambda_sq[1:])
        tilt = np.exp(pts @ loadings.T)
        lam1 = math.sqrt(dec.lambda_sq[0])
        expected = pricing.bs_call(
            tilt[:, 0] * prob.w[0] * math.exp(0.5 * lam1 * lam1),
            prob.K - tilt[:, 1] * prob.w[1],
            lam1,
        )
        np.testing.assert_allclose(g2(pts), expected, rtol=1e-13)

    def test_direction_validation(self):
        model = models.random_instance(3, 5)
        prob, dec = smoothing_parts(model)
        with pytest.raises(ValueError):
            pricing.smoothed_integrand_v(prob, [1.0, 0.0], dec)
        with pytest.raises(ValueError):
            pricing.smoothed_integrand_v(prob, [1.0, 0.5, 0.0], dec)
        with pytest.raises(ValueError):
            pricing.smoothed_integrand_v(prob, [0.0, 0.0, 0.0], dec)
        # a decomposition built for another direction
        prob, dec = smoothing_parts(models.random_instance(4, 17))
        with pytest.raises(ValueError, match="decomposition"):
            pricing.smoothed_integrand_v(prob, [1.0, 1.0, 0.0, 1.0], dec)
        # the plain builder needs the all-ones decomposition
        dec_v = linalg.rank_one_reduce(prob.Sigma, [1.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="decomposition"):
            pricing.smoothed_integrand(prob, dec_v)

    def test_integrand_is_callable_record(self):
        f = pricing.Integrand(dim=2, func=lambda p: p[:, 0], label="probe")
        pts = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(f(pts), [0.0, 2.0, 4.0])


class TestSmoothingIdentities:
    def test_tower_property(self):
        model = models.random_instance(3, 41)
        prob, dec = smoothing_parts(model)
        f = pricing.raw_integrand(prob, dec)
        g = pricing.smoothed_integrand(prob, dec)
        m_raw, se_raw = pricing.mc_mean_se(f, 200_000, RngSpec(7))
        m_cs, se_cs = pricing.mc_mean_se(g, 200_000, RngSpec(8))
        assert abs(m_raw - m_cs) <= 3.0 * math.hypot(se_raw, se_cs)

    def test_smoothing_reduces_variance(self):
        for seed in (41, 42, 43):
            model = models.random_instance(3, seed)
            prob, dec = smoothing_parts(model)
            f = pricing.raw_integrand(prob, dec)
            g = pricing.smoothed_integrand(prob, dec)
            _, se_raw = pricing.mc_mean_se(f, 50_000, RngSpec(9))
            _, se_cs = pricing.mc_mean_se(g, 50_000, RngSpec(9))
            assert se_cs < se_raw

    def test_single_asset_smoothing_is_exact(self):
        model = models.BlackScholesBasket(
            S0=np.array([12.0]),
            sigma=np.array([0.35]),
            rho=np.array([[1.0]]),
            c=np.array([0.9]),
            K=10.0,
            T=2.0,
        )
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        assert g.dim == 0
        value, state = pricing.price_asg(g, 1e-10)
        exact = bs_price(0.9 * 12.0, 10.0, 0.35 * math.sqrt(2.0))
        np.testing.assert_allclose(value, exact, rtol=1e-14)
        assert state.evaluations == 1

    def test_moneyness_ordering(self):
        for d in (2, 3, 5):
            prices = {}
            for mode in ("itm", "atm", "otm"):
                model = models.random_instance(d, 100 + d, mode)
                prob, dec = smoothing_parts(model)
                g = pricing.smoothed_integrand(prob, dec)
                prices[mode], _ = pricing.price_asg(g, 1e-7)
                forward = model.forward()
                assert prices[mode] <= forward + 1e-10
                assert prices[mode] >= forward - model.K - 1e-10
            assert prices["itm"] > prices["atm"] > prices["otm"]


class TestMonteCarlo:
    def test_constant_is_recovered_exactly(self):
        f = pricing.Integrand(dim=2, func=lambda p: np.full(len(p), 3.25), label="c")
        med, runs = pricing.price_mc(f, 1000, RngSpec(5), runs=4)
        assert med == 3.25
        np.testing.assert_array_equal(runs, 3.25)

    def test_median_over_streams(self):
        f = pricing.Integrand(dim=1, func=lambda p: p[:, 0] ** 2, label="sq")
        med, runs = pricing.price_mc(f, 4000, RngSpec(11), runs=20)
        assert runs.shape == (20,)
        assert med == np.median(runs)
        np.testing.assert_allclose(med, 1.0, rtol=0.1)

    def test_run_streams_are_indexed(self):
        f = pricing.Integrand(dim=2, func=lambda p: p.sum(axis=1), label="s")
        _, runs = pricing.price_mc(f, 256, RngSpec(21), runs=3)
        gen = RngSpec(base_seed=21, stream_id=1).generator()
        expected = float(np.mean(gen.standard_normal((256, 2)).sum(axis=1)))
        np.testing.assert_allclose(runs[1], expected, rtol=1e-12)

    def test_deterministic_replay(self):
        model = models.random_instance(2, 3)
        prob, dec = smoothing_parts(model)
        f = pricing.raw_integrand(prob, dec)
        a = pricing.price_mc(f, 2048, RngSpec(33))
        b = pricing.price_mc(f, 2048, RngSpec(33))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_mean_se_against_direct(self):
        f = pricing.Integrand(dim=1, func=lambda p: p[:, 0], label="z")
        mean, se = pricing.mc_mean_se(f, 10_000, RngSpec(13))
        vals = RngSpec(13).generator().standard_normal((10_000, 1))[:, 0]
        np.testing.assert_allclose(mean, vals.mean(), rtol=1e-10)
        np.testing.assert_allclose(se, vals.std() / 100.0, rtol=1e-6)

    def test_draws_one_block_at_a_time(self):
        # the sampler is asked for at most 8,192 rows at a time, and the
        # integrand gets each block as it was drawn
        drawn, evaluated = [], []

        def sampler(m):
            start = sum(drawn)
            drawn.append(m)
            return np.arange(start, start + m, dtype=float)[:, None]

        def f(points):
            evaluated.append(points.shape[0])
            return points[:, 0]

        n = 2 * 2**16 + 8197
        mean, _ = pricing._sample_runs(f, n, lambda run: sampler)[0]
        assert drawn == [8192] * 17 + [5]
        assert evaluated == drawn and sum(evaluated) == n
        assert mean == (n - 1) / 2

    def test_mean_se_matches_one_shot(self):
        model = models.random_instance(3, 77)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        n = 2**16 + 2**13 + 7
        mean, se = pricing.mc_mean_se(g, n, RngSpec(13))
        vals = g(RngSpec(13).generator().standard_normal((n, g.dim)))
        np.testing.assert_allclose(mean, vals.mean(), rtol=1e-14)
        np.testing.assert_allclose(se, vals.std() / math.sqrt(n), rtol=1e-14)

    def test_estimate_tracks_reference(self):
        model = models.random_instance(3, 77)
        ref, _ = pricing.reference_price(model)
        prob, dec = smoothing_parts(model)
        f = pricing.raw_integrand(prob, dec)
        mean, se = pricing.mc_mean_se(f, 500_000, RngSpec(14))
        assert abs(mean - ref) <= 3.0 * se

    def test_input_validation(self):
        f = pricing.Integrand(dim=1, func=lambda p: p[:, 0], label="z")
        with pytest.raises(ValueError):
            pricing.price_mc(f, 0, RngSpec(1))
        with pytest.raises(ValueError):
            pricing.price_mc(f, 10, RngSpec(1), runs=0)
        with pytest.raises(ValueError):
            pricing.mc_mean_se(f, 0, RngSpec(1))


class TestParallelRuns:
    """The runs of a Monte Carlo price share the usable cores; no value depends on how many."""

    N = 2**16 + 7

    @pytest.fixture(scope="class")
    def integrands(self):
        prob, dec = smoothing_parts(models.random_instance(25, 2))
        return pricing.raw_integrand(prob, dec), pricing.smoothed_integrand(prob, dec)

    def test_runs_do_not_depend_on_the_worker_count(self, monkeypatch, integrands):
        results = {}
        switch = sys.getswitchinterval()
        for workers in (1, 2, 5):
            monkeypatch.setattr(pricing, "_usable_cores", lambda: workers)
            # more workers than cores, and the threads switched often
            sys.setswitchinterval(1e-5)
            try:
                results[workers] = [pricing.price_mc(f, self.N, RngSpec(6)) for f in integrands]
            finally:
                sys.setswitchinterval(switch)
        for i, f in enumerate(integrands):
            median, runs = results[1][i]
            assert runs.shape == (pricing.MC_RUNS,)
            assert runs[19] == pricing.mc_mean_se(f, self.N, RngSpec(6, stream_id=19))[0]
            for workers in (2, 5):
                assert results[workers][i][0] == median
                np.testing.assert_array_equal(results[workers][i][1], runs)

    @pytest.mark.parametrize("n", [2**16 + 7, 3 * pricing._BLOCK, 100])
    def test_qmc_blocks_do_not_depend_on_the_worker_count(self, monkeypatch, integrands, n):
        # a QMC run is split into its blocks, which any worker may draw
        raw, smoothed = integrands
        calls = [
            lambda: pricing.price_qmc(raw, n),
            lambda: pricing.price_qmc(smoothed, n),
            lambda: pricing.price_cv(smoothed, n, mode="qmc"),
        ]
        residual, mean = pricing.control_variate(smoothed)
        expected = [
            batched_mean_se(raw, sobol_normal_draw(raw.dim), n)[0],
            batched_mean_se(smoothed, sobol_normal_draw(smoothed.dim), n)[0],
            mean + batched_mean_se(residual, sobol_normal_draw(residual.dim), n)[0],
        ]
        switch = sys.getswitchinterval()
        for workers in (1, 2, 5):
            monkeypatch.setattr(pricing, "_usable_cores", lambda: workers)
            sys.setswitchinterval(1e-5)
            try:
                assert [call() for call in calls] == expected, workers
            finally:
                sys.setswitchinterval(switch)

    @pytest.mark.parametrize("cores, runs", [(1, 20), (5, 1)])
    def test_one_worker_starts_no_thread(self, monkeypatch, cores, runs):
        def no_pool(*args):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(pricing, "_usable_cores", lambda: cores)
        monkeypatch.setattr(pricing, "ThreadPoolExecutor", no_pool)
        f = pricing.Integrand(dim=2, func=lambda p: p[:, 0], label="z")
        _, estimates = pricing.price_mc(f, 100, RngSpec(4), runs=runs)
        assert estimates.shape == (runs,)
        # the single-run estimators share the driver, and keep to the calling thread
        vg = models.vg_example(True)
        values = [
            pricing.mc_mean_se(f, 100, RngSpec(4))[0],
            pricing.price_qmc(f, 100),
            pricing.price_cv(f, 100, mode="qmc"),
            pricing.price_cv(f, 100, mode="mc", rng=RngSpec(4)),
            pricing.price_vg_mc(vg, 100, RngSpec(4)),
            pricing.price_vg_mc(vg, 100, RngSpec(4), raw=True),
            # a QMC run of one block is one unit of work, even on many cores
            pricing.price_qmc(f, pricing._BLOCK),
            pricing.price_cv(f, pricing._BLOCK, mode="qmc"),
        ]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_a_failing_run_raises_after_every_helper_finished(self, monkeypatch, workers):
        monkeypatch.setattr(pricing, "_usable_cores", lambda: workers)
        first_row = RngSpec(4, stream_id=3).generator().standard_normal((1, 2))[0]

        def func(points):
            if np.array_equal(points[0], first_row):
                raise OutOfDomain("stream 3")
            return points[:, 0]

        threads = threading.active_count()
        with pytest.raises(OutOfDomain, match="stream 3"):
            pricing.price_mc(pricing.Integrand(dim=2, func=func, label="f"), 1000, RngSpec(4))
        assert threading.active_count() == threads
        pricing.price_mc(pricing.Integrand(dim=2, func=lambda p: p[:, 0], label="z"), 10, RngSpec(4))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_a_failing_qmc_block_raises_after_every_helper_finished(self, monkeypatch, workers):
        monkeypatch.setattr(pricing, "_usable_cores", lambda: workers)
        # block 3 of 6 starts at the Sobol point of index 1 + 3 * _BLOCK
        first_row = inv_norm_cdf(SobolStream(2, start=1 + 3 * pricing._BLOCK).points(1))[0]
        blocks = []

        def func(points):
            blocks.append(points.shape[0])
            if np.array_equal(points[0], first_row):
                raise OutOfDomain("block 3")
            return points[:, 0]

        threads = threading.active_count()
        with pytest.raises(OutOfDomain, match="block 3"):
            pricing.price_qmc(pricing.Integrand(dim=2, func=func, label="f"), 6 * pricing._BLOCK)
        assert threading.active_count() == threads
        # worker w takes blocks w, w + workers, ...: only the failing
        # worker's blocks after block 3 are left out
        assert len(blocks) == {1: 4, 2: 5, 5: 6}[workers]


_BLAS = pricing._openblas_threads()
needs_blas = pytest.mark.skipif(
    _BLAS is None,
    reason="numpy's BLAS is not its bundled OpenBLAS; its thread count cannot be held",
)

# per-run estimates, medians, QMC and CV prices at forced worker counts 1, 2 and 5
_PRICES_BY_WORKERS = """
from smoothquad import linalg, models, pricing
from smoothquad.sampling import RngSpec

prob = models.effective_bs(models.random_instance(25, 2))
dec = linalg.rank_one_reduce(prob.Sigma)
raw, smoothed = pricing.raw_integrand(prob, dec), pricing.smoothed_integrand(prob, dec)
n = pricing._BLOCK + 7
by_workers = []
for workers in (1, 2, 5):
    pricing._usable_cores = lambda: workers
    prices = []
    for f in (raw, smoothed):
        median, runs = pricing.price_mc(f, n, RngSpec(6))
        prices += [median, *runs.tolist(), pricing.price_qmc(f, 3 * n)]
    by_workers.append(prices + [pricing.price_cv(smoothed, 3 * n, mode="qmc")])
print(repr(by_workers))
"""


@needs_blas
class TestBlasHold:
    """Inside the parallel region numpy's BLAS runs one thread; outside it, what it ran before."""

    def test_count_is_restored(self, monkeypatch):
        get, set_threads = _BLAS
        monkeypatch.setattr(pricing, "_usable_cores", lambda: 2)
        seen = []

        def func(points):
            seen.append(get())
            return points[:, 0]

        def fails(points):
            raise OutOfDomain("every block")

        f = pricing.Integrand(dim=2, func=func, label="f")
        bad = pricing.Integrand(dim=2, func=fails, label="bad")
        before = get()
        set_threads(3)
        try:
            pricing.price_mc(f, 100, RngSpec(4))
            assert get() == 3
            pricing.price_qmc(f, 3 * pricing._BLOCK)
            assert get() == 3
            assert set(seen) == {1}
            for call in (
                lambda: pricing.price_mc(bad, 100, RngSpec(4)),
                lambda: pricing.price_qmc(bad, 3 * pricing._BLOCK),
            ):
                with pytest.raises(OutOfDomain):
                    call()
                assert get() == 3
            # a single unit of work runs on the calling thread, with no hold
            seen.clear()
            pricing.mc_mean_se(f, 3 * pricing._BLOCK, RngSpec(4))
            assert seen == [3] * 3
        finally:
            set_threads(before)

    def test_holds_are_counted(self):
        get, set_threads = _BLAS
        before = get()
        set_threads(2)
        try:
            first, second = pricing._one_blas_thread(), pricing._one_blas_thread()
            first.__enter__()
            second.__enter__()
            assert get() == 1
            # the first hold ending does not release the second
            first.__exit__(None, None, None)
            assert get() == 1
            second.__exit__(None, None, None)
            assert get() == 2
        finally:
            set_threads(before)

    def test_prices_do_not_depend_on_the_blas_threads(self):
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"
        }
        env["PYTHONPATH"] = str(Path(pricing.__file__).parents[1])
        outputs = []
        for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            run = subprocess.run(
                [sys.executable, "-c", _PRICES_BY_WORKERS],
                env={**env, **blas},
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            outputs.append(ast.literal_eval(run.stdout))
        default, one = outputs
        assert len(default) == 3 and len(default[0]) == 2 * (pricing.MC_RUNS + 2) + 1
        assert default == [default[0]] * 3
        assert one == default


class TestStreamedSampling:
    """Streaming one block at a time leaves every estimate bit for bit unchanged."""

    N = 2**16 + 2**13 + 7

    def integrand(self):
        prob, dec = smoothing_parts(models.random_instance(5, 41))
        return pricing.smoothed_integrand(prob, dec)

    def test_price_mc(self):
        g = self.integrand()
        median, runs = pricing.price_mc(g, self.N, RngSpec(8), runs=3)
        expected = [
            batched_mean_se(g, normal_draw(RngSpec(8, run), g.dim), self.N)[0]
            for run in range(3)
        ]
        assert list(runs) == expected
        assert median == np.median(expected)

    def test_mc_mean_se(self):
        g = self.integrand()
        expected = batched_mean_se(g, normal_draw(RngSpec(9), g.dim), self.N)
        assert pricing.mc_mean_se(g, self.N, RngSpec(9)) == expected

    def test_price_qmc(self):
        g = self.integrand()
        expected = batched_mean_se(g, sobol_normal_draw(g.dim), self.N)[0]
        assert pricing.price_qmc(g, self.N) == expected

    def test_price_cv_both_modes(self):
        g = self.integrand()
        residual, mean = pricing.control_variate(g)
        qmc = mean + batched_mean_se(residual, sobol_normal_draw(g.dim), self.N)[0]
        mc = mean + batched_mean_se(residual, normal_draw(RngSpec(10), g.dim), self.N)[0]
        assert pricing.price_cv(g, self.N, mode="qmc") == qmc
        assert pricing.price_cv(g, self.N, mode="mc", rng=RngSpec(10)) == mc

    def test_traced_peak_does_not_grow_with_n(self, monkeypatch):
        # d = 25 smoothed integrand, dimension 24: one block of its points
        # (and of the 25-column exponent built from them) is 1.6 MB, one
        # 2^16-row draw 12.6 MB
        prob, dec = smoothing_parts(models.random_instance(25, 2))
        g = pricing.smoothed_integrand(prob, dec)
        assert g.dim == 24
        block = pricing._BLOCK * 25 * 8
        calls = {
            "qmc": lambda n: pricing.price_qmc(g, n),
            "mc": lambda n: pricing.price_mc(g, n, RngSpec(3), runs=1),
        }
        workers = pricing._usable_cores()
        with monkeypatch.context() as one_worker:
            one_worker.setattr(pricing, "_usable_cores", lambda: 1)
            for name, call in calls.items():
                peaks = traced_peaks(call, (2**16, 2**18))
                assert peaks[1] <= peaks[0] + PEAK_SLACK, (name, peaks)
                assert peaks[1] < 4 * block, (name, peaks)
        # every run of a price: one block buffer and its temporaries per worker
        runs = min(workers, pricing.MC_RUNS)
        peaks = traced_peaks(lambda n: pricing.price_mc(g, n, RngSpec(3)), (2**16, 2**18))
        assert peaks[1] <= peaks[0] + runs * PEAK_SLACK, (runs, peaks)
        assert peaks[1] < 4 * block * runs, (runs, peaks)
        # every block of a QMC price: one stream's buffers and a block's
        # temporaries per worker.  How the workers' temporaries overlap
        # decides the peak, and it varies from call to call by up to
        # 0.6 MB at d = 25, so the workers evaluate their full blocks in
        # lockstep, the same number each, to overlap alike at every n
        # (the warm-up call's one short block runs alone)
        lockstep = threading.Barrier(workers)

        def in_lockstep(points):
            if len(points) == pricing._BLOCK:
                lockstep.wait(timeout=60)
            return g(points)

        f = pricing.Integrand(dim=g.dim, func=in_lockstep, label="lockstep")
        n = 16 * pricing._BLOCK * workers
        peaks = traced_peaks(lambda n: pricing.price_qmc(f, n), (n, 2 * n))
        assert peaks[1] <= peaks[0] + workers * PEAK_SLACK, (workers, peaks)
        assert peaks[1] < 4 * block * workers, (workers, peaks)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("estimator", ["mc raw", "mc cs", "qmc raw", "qmc cs", "cv cs"])
    def test_traced_peak_is_two_blocks_per_worker(self, monkeypatch, estimator, workers):
        # a worker holds one block of points and the 25-column exponent
        # (or log-returns) built from them; the Sobol stream's float
        # points overwrite its integers and the interpolant's power
        # table is no larger than a block, so neither adds a third
        prob, dec = smoothing_parts(models.random_instance(25, 2))
        kind, label = estimator.split()
        build = pricing.raw_integrand if label == "raw" else pricing.smoothed_integrand
        g = build(prob, dec)
        block = pricing._BLOCK * 25 * 8
        # the workers evaluate their full blocks in lockstep, the same
        # number each, so their temporaries overlap alike on every call
        lockstep = threading.Barrier(workers)

        def in_lockstep(points):
            if len(points) == pricing._BLOCK:
                lockstep.wait(timeout=60)
            return g(points)

        f = pricing.Integrand(dim=g.dim, func=in_lockstep, label="lockstep")
        # n points per worker: one MC run each, or n / _BLOCK Sobol blocks each
        calls = {
            "mc": lambda n: pricing.price_mc(f, n, RngSpec(3), runs=workers),
            "qmc": lambda n: pricing.price_qmc(f, workers * n),
            "cv": lambda n: pricing.price_cv(f, workers * n, mode="qmc"),
        }
        monkeypatch.setattr(pricing, "_usable_cores", lambda: workers)
        (peak,) = traced_peaks(calls[kind], (2 * pricing._BLOCK,))
        assert peak < 2.5 * block * workers, (estimator, workers, peak / block)


class TestQuasiMonteCarlo:
    def test_deterministic(self):
        model = models.random_instance(3, 19)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        assert pricing.price_qmc(g, 4096) == pricing.price_qmc(g, 4096)

    def test_smoothed_accuracy(self):
        model = models.random_instance(3, 19)
        ref, _ = pricing.reference_price(model)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        est = pricing.price_qmc(g, 3 * 6**5)
        assert abs(est / ref - 1.0) < 1e-4

    def test_raw_accuracy(self):
        model = models.random_instance(3, 19)
        ref, _ = pricing.reference_price(model)
        prob, dec = smoothing_parts(model)
        f = pricing.raw_integrand(prob, dec)
        est = pricing.price_qmc(f, 3 * 6**5)
        assert abs(est / ref - 1.0) < 1e-3

    def test_zero_dimension_is_direct(self):
        g = pricing.Integrand(dim=0, func=lambda p: np.full(len(p), 2.5), label="c")
        assert pricing.price_qmc(g, 100) == 2.5

    def test_rejects_empty_budget(self):
        g = pricing.Integrand(dim=1, func=lambda p: p[:, 0], label="z")
        with pytest.raises(ValueError):
            pricing.price_qmc(g, 0)

    def test_needs_normal_points(self):
        # Sobol points map to normals in every column, not to a Gamma column 0
        vg = models.vg_example()
        for g in (pricing.vg_smoothed_integrand(vg), pricing.vg_raw_integrand(vg)):
            with pytest.raises(ValueError, match="normal"):
                pricing.price_qmc(g, 1000)
        prob, dec = smoothing_parts(models.random_instance(3, 19))
        v = np.array([1.0, 1.0, 0.0])
        g_v = pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(prob.Sigma, v))
        for f in (pricing.raw_integrand(prob, dec), pricing.smoothed_integrand(prob, dec), g_v):
            assert f.sampler is pricing._normal_sampler
            assert math.isfinite(pricing.price_qmc(f, 1000))


class TestAdaptiveSparseGrid:
    def test_constant_integrand(self):
        f = pricing.Integrand(dim=3, func=lambda p: np.ones(len(p)), label="one")
        value, state = pricing.price_asg(f, 1e-8)
        np.testing.assert_allclose(value, 1.0, atol=1e-13)

    def test_three_asset_cost_and_accuracy(self):
        model = models.random_instance(3, 11)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        ref, _ = pricing.price_asg(g, 1e-11)
        value, state = pricing.price_asg(g, 1e-9)
        assert abs(value / ref - 1.0) <= 1e-8
        assert state.evaluations <= 500
        assert state.distinct_points <= 150

    def test_tolerance_sweep_tightens(self):
        model = models.random_instance(4, 29)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        ref, _ = pricing.price_asg(g, 1e-10)
        errors = []
        costs = []
        for tol in (1e-3, 1e-5, 1e-7):
            value, state = pricing.price_asg(g, tol)
            errors.append(abs(value / ref - 1.0))
            costs.append(state.evaluations)
        assert errors[-1] < errors[0]
        assert costs == sorted(costs)
        assert errors[-1] <= 1e-6

    def test_replay_is_identical(self):
        model = models.random_instance(3, 47)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        a, sa = pricing.price_asg(g, 1e-7)
        b, sb = pricing.price_asg(g, 1e-7)
        assert a == b
        assert sa.evaluations == sb.evaluations
        assert sa.old_set == sb.old_set

    def test_zero_dimension_is_direct(self):
        g = pricing.Integrand(dim=0, func=lambda p: np.full(len(p), 1.5), label="c")
        value, state = pricing.price_asg(g, 1e-6)
        assert value == 1.5
        assert state.evaluations == 1

    def test_zero_dimension_still_validates(self):
        g = pricing.Integrand(dim=0, func=lambda p: np.full(len(p), 1.5), label="c")
        with pytest.raises(ValueError):
            pricing.price_asg(g, -1.0)
        with pytest.raises(ValueError):
            pricing.price_asg(g, 1e-3, max_evals=0)


class TestControlVariate:
    def quadratic(self, dim):
        def func(points):
            p = np.asarray(points, dtype=float)
            return (
                1.5
                + 0.3 * p[:, 0]
                - 0.2 * p[:, 1]
                + 0.1 * p[:, 0] ** 2
                + 0.25 * p[:, 1] ** 2
                + 0.4 * p[:, 0] * p[:, 1]
            )

        return pricing.Integrand(dim=dim, func=func, label="quad")

    def test_polynomial_has_no_sampling_error(self):
        f = self.quadratic(2)
        exact = 1.5 + 0.1 + 0.25
        est_mc = pricing.price_cv(f, 50, mode="mc", rng=RngSpec(3))
        est_qmc = pricing.price_cv(f, 50, mode="qmc")
        np.testing.assert_allclose(est_mc, exact, rtol=1e-12)
        np.testing.assert_allclose(est_qmc, exact, rtol=1e-12)

    def test_beats_plain_monte_carlo(self):
        model = models.random_instance(3, 53)
        ref, _ = pricing.reference_price(model)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        n = 4096
        plain = pricing.mc_mean_se(g, n, RngSpec(17))[0]
        with_cv = pricing.price_cv(g, n, mode="mc", rng=RngSpec(17))
        assert abs(with_cv - ref) < abs(plain - ref)

    def test_qmc_mode_matches_reference(self):
        model = models.random_instance(3, 53)
        ref, _ = pricing.reference_price(model)
        prob, dec = smoothing_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        est = pricing.price_cv(g, 3 * 6**5, mode="qmc")
        assert abs(est / ref - 1.0) < 1e-5

    def test_zero_dimension_is_direct(self):
        g = pricing.Integrand(dim=0, func=lambda p: np.full(len(p), 0.75), label="c")
        assert pricing.price_cv(g, 10, mode="qmc") == 0.75

    def test_input_validation(self):
        f = self.quadratic(2)
        with pytest.raises(ValueError):
            pricing.price_cv(f, 0, mode="qmc")
        with pytest.raises(ValueError):
            pricing.price_cv(f, 10, mode="mc")
        with pytest.raises(ValueError):
            pricing.price_cv(f, 10, mode="latin")
        dim0 = pricing.Integrand(dim=0, func=lambda p: np.full(len(p), 0.75), label="c")
        with pytest.raises(ValueError):
            pricing.price_cv(dim0, 10, mode="latin")
        with pytest.raises(ValueError):
            pricing.price_cv(dim0, 10, mode="mc")
        # the interpolant's mean is Gaussian
        with pytest.raises(ValueError, match="normal"):
            pricing.price_cv(pricing.vg_smoothed_integrand(models.vg_example()), 10, mode="qmc")


class TestVarianceGamma:
    def semi_analytic_single_asset(self, model):
        rule = rules1d.laguerre_sequence(model.T / model.nu - 1.0).rule(40)
        w = model.c[0] * model.S0[0] * math.exp(
            (model.r + model.omegas()[0]) * model.T
        )
        sig = model.sigma[0]
        theta = model.theta[0]
        total = 0.0
        for u, weight in zip(rule.nodes, rule.weights):
            y = model.nu * u
            s0 = w * math.exp(theta * y + 0.5 * y * sig * sig)
            total += weight * pricing.bs_call(s0, model.K, math.sqrt(y) * sig)
        return math.exp(-model.r * model.T) * total

    def single_asset(self, K):
        return models.VarianceGammaBasket(
            S0=np.array([10.0]),
            sigma=np.array([0.25]),
            rho=np.array([[1.0]]),
            c=np.array([1.0]),
            K=K,
            theta=np.array([-0.15]),
            nu=0.4,
        )

    def test_single_asset_in_the_money(self):
        model = self.single_asset(8.0)
        expected = self.semi_analytic_single_asset(model)
        value, _ = pricing.price_vg_smoothed(model, 1e-9)
        np.testing.assert_allclose(value, expected, rtol=1e-8)

    def test_single_asset_at_the_money(self):
        model = self.single_asset(10.0)
        expected = self.semi_analytic_single_asset(model)
        value, _ = pricing.price_vg_smoothed(model, 1e-7)
        np.testing.assert_allclose(value, expected, rtol=1e-6)

    def test_rescaled_decomposition_matches_fresh_one(self):
        v = np.array([1.0, 1.0, 0.0])
        # the effective problem given y carries the rate in its weights
        # and no discount, so at r > 0 the integrands differ by e^{-rT}
        for r in (0.0, 0.05):
            model = dataclasses.replace(models.vg_example(modified=True), r=r)
            disc = math.exp(-r * model.T)
            g = pricing.vg_smoothed_integrand(model)
            g2 = pricing.vg_smoothed_integrand(model, v=v)
            f = pricing.vg_raw_integrand(model)
            rng = np.random.default_rng(6)
            rng_raw = np.random.default_rng(8)
            for u in (0.4, 1.4, 3.8):
                y = model.nu * u
                zbar = rng.standard_normal((5, 2))
                prob_y = models.effective_vg(model, y)
                dec_y = linalg.rank_one_reduce(prob_y.Sigma)
                g_y = pricing.smoothed_integrand(prob_y, dec_y)
                pts = np.column_stack([np.full(5, u), zbar])
                np.testing.assert_allclose(g(pts), disc * g_y(zbar), rtol=1e-10)
                g2_y = pricing.smoothed_integrand_v(
                    prob_y, v, linalg.rank_one_reduce(prob_y.Sigma, v)
                )
                np.testing.assert_allclose(g2(pts), disc * g2_y(zbar), rtol=1e-10)
                z = rng_raw.standard_normal((5, 3))
                f_y = pricing.raw_integrand(prob_y, dec_y)
                np.testing.assert_allclose(
                    f(np.column_stack([np.full(5, u), z])), disc * f_y(z), rtol=1e-10
                )

    def test_smoothed_and_raw_sampling_agree(self):
        model = models.vg_example(modified=True)
        m_s, se_s = pricing.price_vg_mc(model, 200_000, RngSpec(3), return_se=True)
        m_r, se_r = pricing.price_vg_mc(
            model, 200_000, RngSpec(4), raw=True, return_se=True
        )
        assert abs(m_s - m_r) <= 3.0 * math.hypot(se_s, se_r)
        assert se_s < se_r

    def test_mc_matches_hand_rolled_draws(self):
        model = models.vg_example(True)
        gen = RngSpec(4).generator()
        shape = model.T / model.nu
        batches = []
        for m in (2**16, 5):
            u = gen.gamma(shape, 1.0, m)
            batches.append(np.column_stack([u, gen.standard_normal((m, model.d - 1))]))
        vals = pricing.vg_smoothed_integrand(model)(np.vstack(batches))
        price = pricing.price_vg_mc(model, 2**16 + 5, RngSpec(4))
        np.testing.assert_allclose(price, vals.mean(), rtol=1e-15)

    def test_median_is_the_median_of_single_runs(self, monkeypatch):
        # 2^16 + 5 rows: each run crosses a Gamma batch and ends on a short block
        model = models.vg_example(True)
        n = 2**16 + 5
        runs = [pricing.price_vg_mc(model, n, RngSpec(5, stream_id=r)) for r in range(20)]
        g = pricing.vg_smoothed_integrand(model)
        for workers in (1, 2, 5):
            monkeypatch.setattr(pricing, "_usable_cores", lambda: workers)
            assert pricing.price_mc(g, n, RngSpec(5))[0] == float(np.median(runs))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampler_and_laguerre_rule_share_column_0(self, seed):
        # a sampler drawing y = nu u into column 0 reads hundreds of SE off
        model = models.random_vg_instance(4, seed)
        value, _ = pricing.price_vg_smoothed(model, 1e-4)
        g = pricing.vg_smoothed_integrand(model)
        mean, se = pricing.mc_mean_se(g, 200_000, RngSpec(9))
        assert abs(value - mean) <= 3.0 * se

    def test_mc_peak_does_not_grow_with_n(self):
        # one block of rows at a time, beside one batch of Gammas
        model = models.random_vg_instance(6, 3)
        peaks = traced_peaks(lambda n: pricing.price_vg_mc(model, n, RngSpec(3)), (2**16, 2**18))
        assert peaks[1] <= peaks[0] + PEAK_SLACK, peaks
        model = models.random_vg_instance(25, 3)
        (peak,) = traced_peaks(lambda n: pricing.price_vg_mc(model, n, RngSpec(3)), (2**18,))
        assert peak < 4 * pricing._BLOCK * 25 * 8, peak

    def test_adaptive_matches_sampling(self):
        model = models.vg_example(modified=True)
        value, _ = pricing.price_vg_smoothed(model, 1e-7)
        mean, se = pricing.price_vg_mc(model, 10**6, RngSpec(5), return_se=True)
        assert abs(value - mean) <= 3.0 * se

    def test_partial_direction_runs_on_weak_smoothing(self):
        model = models.vg_example()
        cs, _ = pricing.price_vg_smoothed(model, 1e-3)
        cs2, _ = pricing.price_vg_smoothed(model, 1e-3, v=[1.0, 1.0, 0.0])
        assert abs(cs / cs2 - 1.0) < 5e-3

    def test_raw_integrand_dimension(self):
        model = models.vg_example()
        f = pricing.vg_raw_integrand(model)
        assert f.dim == 4
        assert f.label == "VG-raw"

    def test_direction_validation(self):
        model = models.vg_example()
        with pytest.raises(ValueError):
            pricing.vg_smoothed_integrand(model, v=[0.5, 1.0, 0.0])
        for v in ([1.0], [1.0, 0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="direction must"):
                pricing.vg_smoothed_integrand(model, v=v)

    def test_mc_needs_samples(self):
        model = models.vg_example()
        with pytest.raises(ValueError):
            pricing.price_vg_mc(model, 0, RngSpec(1))

    @staticmethod
    def tensor_price(model, n, m):
        """Outer Laguerre rule in y = nu u, inner m x m Gauss-Hermite rule on the CS2 integrand."""
        v, _ = linalg.best_binary_v(models.vg_base_matrix(model))
        outer = rules1d.gauss_laguerre_generalized(n, model.T / model.nu - 1.0)
        inner = rules1d.gauss_hermite(m)
        grid = np.stack(np.meshgrid(inner.nodes, inner.nodes, indexing="ij"), axis=-1)
        weights = np.outer(inner.weights, inner.weights).ravel()
        total = 0.0
        for u, weight in zip(outer.nodes, outer.weights):
            prob = models.effective_vg(model, model.nu * u)
            g = pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(prob.Sigma, v))
            total += weight * (weights @ g(grid.reshape(-1, 2)))
        return math.exp(-model.r * model.T) * total

    @pytest.mark.parametrize("modified, price", [(False, 25.2682228), (True, 25.45815413)])
    def test_example_prices_by_tensor_rules(self, modified, price):
        model = models.vg_example(modified=modified)
        coarse = self.tensor_price(model, 40, 80)
        fine = self.tensor_price(model, 60, 160)
        assert abs(coarse / fine - 1.0) <= 1e-8
        assert abs(fine / price - 1.0) <= 1e-8


class TestIntegrandLaw:
    """An integrand carries the rules of its points beside their sampler."""

    GK = rules1d.genz_keister_sequence()

    @staticmethod
    def record(out):
        value, state = out
        return value, state.eta, state.evaluations, state.distinct_points, state.status

    @pytest.mark.parametrize(
        "model",
        [models.vg_example(), models.vg_example(modified=True), models.random_vg_instance(4, 1)],
        ids=["ls15", "ls15_modified", "random"],
    )
    def test_vg_price_is_price_asg_on_its_integrand(self, model):
        best, _ = linalg.best_binary_v(models.vg_base_matrix(model))
        for v in (None, best):
            for tol in (1e-2, 1e-4):
                g = pricing.vg_smoothed_integrand(model, v)
                assert self.record(pricing.price_asg(g, tol)) == self.record(
                    pricing.price_vg_smoothed(model, tol, v=v)
                )

    def test_vg_rules_put_laguerre_first(self):
        model = models.random_vg_instance(4, 1)
        laguerre = rules1d.laguerre_sequence(model.T / model.nu - 1.0)
        raw = pricing.vg_raw_integrand(model)
        smoothed = pricing.vg_smoothed_integrand(model)
        assert raw.seqs == (laguerre,) + (self.GK,) * 4
        assert smoothed.seqs == (laguerre,) + (self.GK,) * 3
        assert len(raw.seqs) == raw.dim == 5 and len(smoothed.seqs) == smoothed.dim == 4

    def test_normal_integrands_carry_genz_keister(self):
        model = models.random_instance(3, 19)
        prob, dec = smoothing_parts(model)
        v = np.array([1.0, 1.0, 0.0])
        g_v = pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(prob.Sigma, v))
        g = pricing.smoothed_integrand(prob, dec)
        residual, _ = pricing.control_variate(g)
        for f in (pricing.raw_integrand(prob, dec), g, g_v, residual):
            assert f.seqs == self.GK

    def test_replace_keeps_the_law(self):
        # perfbench's tracer rebuilds every integrand with a wrapped func
        for g in (
            pricing.vg_smoothed_integrand(models.vg_example()),
            pricing.smoothed_integrand(*smoothing_parts(models.random_instance(3, 19))),
        ):
            wrapped = dataclasses.replace(g, func=lambda p, f=g.func: f(p))
            assert (wrapped.seqs, wrapped.sampler) == (g.seqs, g.sampler)
            hash((g, wrapped))  # tuples of rules keep a frozen integrand hashable
            assert pricing.price_asg(wrapped, 1e-3)[0] == pricing.price_asg(g, 1e-3)[0]


class TestReferencePrice:
    def test_tolerance_schedule(self):
        assert pricing.reference_tolerance(2) == 1e-12
        assert pricing.reference_tolerance(3) == 1e-11
        assert pricing.reference_tolerance(5) == 1e-10
        assert pricing.reference_tolerance(8) == 1e-9
        assert pricing.reference_tolerance(25) == 1e-7
        with pytest.raises(ValueError):
            pricing.reference_tolerance(0)

    def test_single_asset_reference_is_exact(self):
        model = models.BlackScholesBasket(
            S0=np.array([20.0]),
            sigma=np.array([0.3]),
            rho=np.array([[1.0]]),
            c=np.array([1.0]),
            K=18.0,
        )
        ref, _ = pricing.reference_price(model)
        np.testing.assert_allclose(ref, bs_price(20.0, 18.0, 0.3), rtol=1e-14)

    def test_variance_gamma_basket_is_refused(self):
        # a VG basket is a BlackScholesBasket subclass; reducing it as
        # one would price it without its time change
        with pytest.raises(TypeError, match="Variance-Gamma"):
            models.effective_bs(models.vg_example())
        with pytest.raises(TypeError, match="Variance-Gamma"):
            pricing.reference_price(models.vg_example())

    def test_reference_agrees_with_sampling(self):
        model = models.random_instance(5, 61)
        ref, _ = pricing.reference_price(model)
        prob, dec = smoothing_parts(model)
        f = pricing.raw_integrand(prob, dec)
        mean, se = pricing.mc_mean_se(f, 400_000, RngSpec(23))
        assert abs(mean - ref) <= 3.0 * se

