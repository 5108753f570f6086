"""Acceptance checks, one test per criterion.

Every test prints a single pass/fail line with its headline numbers,
then asserts.  Runtime guards are asserted where the criterion states
one.  All instances and sample streams are fixed-seed, so reruns are
bit-for-bit repeatable.  All of them carry the ``slow`` marker, so
``pytest -m "not slow"`` leaves them out.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from smoothquad import cli, linalg, models, pricing, rules1d
from smoothquad.sampling import RngSpec

pytestmark = pytest.mark.slow

BUDGETS = [3 * 6**q for q in range(1, 9)]
MODE_OFFSET = {"atm": 0, "itm": 1, "otm": 2}


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def fit_slope(ns, errs):
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    return float(np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0])


def smoothed_parts(model):
    prob = models.effective_bs(model)
    dec = linalg.rank_one_reduce(prob.Sigma)
    return prob, dec


def test_criterion_01_decomposition_identity():
    gen = np.random.default_rng(1)
    start = time.monotonic()
    worst_recon = 0.0
    worst_lam = 0.0
    for i in range(100):
        d = 2 + i % 34
        a = gen.standard_normal((d, d))
        sigma = a @ a.T + 0.1 * np.eye(d)
        dec = linalg.rank_one_reduce(sigma)
        recon = dec.V @ np.diag(dec.lambda_sq) @ dec.V.T
        worst_recon = max(
            worst_recon,
            np.abs(recon - sigma).max() / np.abs(sigma).max(),
        )
        ones = np.ones(d)
        direct = 1.0 / float(ones @ np.linalg.solve(sigma, ones))
        worst_lam = max(worst_lam, abs(dec.lambda_sq[0] / direct - 1.0))
    elapsed = time.monotonic() - start
    ok = worst_recon <= 1e-10 and worst_lam <= 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"100 matrices d in 2..35, reconstruction {worst_recon:.1e} <= 1e-10, "
        f"lambda1 deviation {worst_lam:.1e} <= 1e-10, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_fixed_example_constants():
    start = time.monotonic()
    base = models.vg_base_matrix(models.vg_example())
    lams = linalg.rank_one_reduce(base).lambda_sq
    dev_orig = np.abs(lams - [0.00023, 0.03432, 0.00652]).max()
    lam_v = linalg.lambda1_sq(base, [1.0, 1.0, 0.0])
    dev_v = abs(lam_v - 0.00109)
    base_mod = models.vg_base_matrix(models.vg_example(modified=True))
    lams_mod = linalg.rank_one_reduce(base_mod).lambda_sq
    dev_mod = np.abs(lams_mod - [0.01034, 0.02255, 0.00526]).max()
    elapsed = time.monotonic() - start
    ok = max(dev_orig, dev_v, dev_mod) <= 5e-6 and elapsed < 1.0
    report(
        2,
        ok,
        f"lambda deviations {dev_orig:.1e}/{dev_v:.1e}/{dev_mod:.1e} <= 5e-6, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_03_smoothing_is_unbiased():
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3, 5, 8):
        for mode in ("atm", "itm", "otm"):
            model = models.random_instance(d, 100 + d, mode)
            prob, dec = smoothed_parts(model)
            value, _ = pricing.price_asg(pricing.smoothed_integrand(prob, dec), 1e-10)
            mean, se = pricing.mc_mean_se(
                pricing.raw_integrand(prob, dec),
                10**7,
                RngSpec(d * 1000 + MODE_OFFSET[mode]),
            )
            worst = max(worst, abs(value - mean) / se)
    elapsed = time.monotonic() - start
    ok = worst <= 3.0 and elapsed < 300.0
    report(
        3,
        ok,
        f"12 instances d in (2,3,5,8) x atm/itm/otm, worst deviation "
        f"{worst:.2f} SE <= 3, {elapsed:.0f}s < 300s",
    )


def test_criterion_04_quadrature_exactness():
    worst_gh = 0.0
    worst_sum = 0.0
    for n in range(1, 41):
        rule = rules1d.gauss_hermite(n)
        worst_sum = max(worst_sum, abs(rule.weights.sum() - 1.0))
        moment = 1.0
        for k in range(0, 2 * n, 2):
            if k >= 2:
                moment *= k - 1
            quad = float(rule.weights @ rule.nodes**k)
            worst_gh = max(worst_gh, abs(quad / moment - 1.0))
            if k + 1 <= 2 * n - 1:
                odd = float(rule.weights @ rule.nodes ** (k + 1))
                scale = moment * max(float(np.abs(rule.nodes).max()), 1.0)
                worst_gh = max(worst_gh, abs(odd) / scale)
    worst_gl = 0.0
    for alpha in (0.0, 1.0, 2.5):
        for n in range(1, 41):
            rule = rules1d.gauss_laguerre_generalized(n, alpha)
            worst_sum = max(worst_sum, abs(rule.weights.sum() - 1.0))
            moment = 1.0
            for k in range(1, 2 * n):
                moment *= alpha + k
                quad = float(rule.weights @ rule.nodes**k)
                worst_gl = max(worst_gl, abs(quad / moment - 1.0))
    nested = True
    for level in range(1, 5):
        coarse = rules1d.genz_keister(level - 1).nodes
        fine = rules1d.genz_keister(level).nodes
        for node in coarse:
            gap = np.abs(fine - node).min()
            if gap > 1e-13 * max(1.0, abs(node)):
                nested = False
    for level in range(0, 5):
        worst_sum = max(
            worst_sum, abs(rules1d.genz_keister(level).weights.sum() - 1.0)
        )
    ok = worst_gh <= 1e-12 and worst_gl <= 1e-12 and nested and worst_sum <= 1e-13
    report(
        4,
        ok,
        f"exactness GH {worst_gh:.1e}, GL {worst_gl:.1e} <= 1e-12 for n <= 40, "
        f"nesting {nested}, weight sums off by {worst_sum:.1e} <= 1e-13",
    )


def test_criterion_05_adaptive_frugality():
    model = models.random_instance(3, 11, "atm")
    prob, dec = smoothed_parts(model)
    g = pricing.smoothed_integrand(prob, dec)
    ref, _ = pricing.price_asg(g, 1e-11)
    value, state = pricing.price_asg(g, 1e-9)
    rel = abs(value / ref - 1.0)
    ok = rel <= 1e-8 and state.evaluations <= 500 and state.distinct_points <= 150
    report(
        5,
        ok,
        f"d=3 atm: rel_error {rel:.1e} <= 1e-8 with {state.evaluations} <= 500 "
        f"evaluations ({state.distinct_points} <= 150 distinct)",
    )


def test_criterion_06_rate_separation():
    start = time.monotonic()
    details = []
    ok = True
    for d, seed, tols, ref_evals in (
        (8, 208, [10.0**-k for k in range(2, 9)], 10**7),
        (25, 2, [10.0**-k for k in range(2, 5)], 2 * 10**7),
    ):
        model = models.random_instance(d, seed, "atm")
        prob, dec = smoothed_parts(model)
        f_raw = pricing.raw_integrand(prob, dec)
        g_cs = pricing.smoothed_integrand(prob, dec)
        ref = pricing.reference_price(model, max_evals=ref_evals)[0]

        mc_errs = []
        for n in BUDGETS:
            med, _ = pricing.price_mc(f_raw, n, RngSpec(55))
            mc_errs.append(abs(med / ref - 1.0))
        mc_slope = fit_slope(BUDGETS, mc_errs)
        qmc_errs = [abs(pricing.price_qmc(f_raw, n) / ref - 1.0) for n in BUDGETS]
        qmc_slope = fit_slope(BUDGETS, qmc_errs)

        for tol in tols:
            value, state = pricing.price_asg(g_cs, tol)
        err_asg = abs(value / ref - 1.0)
        n_star = state.evaluations
        err_qmccs = abs(pricing.price_qmc(g_cs, n_star) / ref - 1.0)

        ok = (
            ok
            and -0.65 <= mc_slope <= -0.35
            and qmc_slope <= -0.75
            and err_asg <= err_qmccs / 10.0
        )
        details.append(
            f"d={d}: MC slope {mc_slope:.2f}, QMC slope {qmc_slope:.2f}, "
            f"aSG+CS {err_asg:.1e} <= QMC+CS/10 = {err_qmccs / 10:.1e} at n={n_star}"
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 900.0
    report(6, ok, "; ".join(details) + f"; {elapsed:.0f}s < 900s")


def test_criterion_07_variance_reduction():
    boot_ok = True
    qmc_ok = True
    details = []
    for d, seed in ((2, 102), (3, 103), (5, 105), (8, 18)):
        model = models.random_instance(d, seed, "atm")
        prob, dec = smoothed_parts(model)
        f = pricing.raw_integrand(prob, dec)
        g = pricing.smoothed_integrand(prob, dec)

        z = RngSpec(900 + d).generator().standard_normal((20000, d))
        fv = f(z)
        gv = g(z[:, 1:])
        boot = np.random.default_rng(901)
        diffs = np.empty(2000)
        for b in range(2000):
            idx = boot.integers(0, len(fv), len(fv))
            diffs[b] = fv[idx].var() - gv[idx].var()
        q01 = float(np.quantile(diffs, 0.01))
        boot_ok = boot_ok and q01 > 0.0

        ref, _ = pricing.reference_price(model)
        for n in BUDGETS[2:]:
            e_raw = abs(pricing.price_qmc(f, n) / ref - 1.0)
            e_cs = abs(pricing.price_qmc(g, n) / ref - 1.0)
            qmc_ok = qmc_ok and e_cs <= e_raw
        details.append(f"d={d} boot q01 {q01:.3f}")
    ok = boot_ok and qmc_ok
    report(
        7,
        ok,
        "variance cut on all instances (99% bootstrap: "
        + ", ".join(details)
        + f"); QMC+CS <= QMC at every budget >= {BUDGETS[2]}: {qmc_ok}",
    )


def test_criterion_08_control_variate():
    n = 3 * 6**5
    ok = True
    details = []
    for d, seed in ((3, 103), (8, 108)):
        model = models.random_instance(d, seed, "atm")
        prob, dec = smoothed_parts(model)
        g = pricing.smoothed_integrand(prob, dec)
        ref, _ = pricing.reference_price(model)
        med_cs, _ = pricing.price_mc(g, n, RngSpec(seed))
        cv_runs = [
            pricing.price_cv(g, n, mode="mc", rng=RngSpec(seed, stream_id=r))
            for r in range(20)
        ]
        e_cs = abs(med_cs / ref - 1.0)
        e_cv = abs(float(np.median(cv_runs)) / ref - 1.0)
        ok = ok and e_cv <= e_cs / 10.0
        details.append(f"d={d}: CV {e_cv:.1e} <= CS/10 = {e_cs / 10:.1e}")

    def quadratic(points):
        p = np.asarray(points, dtype=float)
        return 1.0 + p[:, 0] - 2.0 * p[:, 1] + 0.5 * p[:, 0] * p[:, 1] + p[:, 1] ** 2

    poly = pricing.Integrand(dim=2, func=quadratic, label="poly")
    exact = 2.0
    res_mc = pricing.price_cv(poly, 64, mode="mc", rng=RngSpec(5))
    res_qmc = pricing.price_cv(poly, 64, mode="qmc")
    poly_err = max(abs(res_mc - exact), abs(res_qmc - exact))
    ok = ok and poly_err <= 1e-12
    report(
        8,
        ok,
        "; ".join(details) + f" at n={n}; polynomial sampling error {poly_err:.1e}",
    )


def test_criterion_09_variance_gamma():
    mart_dev = 0.0
    for model in (models.vg_example(), models.vg_example(modified=True)):
        rule = rules1d.laguerre_sequence(model.T / model.nu - 1.0).rule(39)
        omegas = model.omegas()
        for i in range(model.d):
            drift = model.theta[i] + 0.5 * model.sigma[i] ** 2
            growth = float(rule.weights @ np.exp(drift * model.nu * rule.nodes))
            target = math.exp(-omegas[i] * model.T)
            mart_dev = max(mart_dev, abs(growth / target - 1.0))
    mart_ok = mart_dev <= 1e-8

    model8 = models.random_vg_instance(8, 6)
    ref8, _ = pricing.price_vg_smoothed(model8, 1e-7)
    pts = []
    for tol in (1e-2, 1e-3, 1e-4, 1e-5):
        value, state = pricing.price_vg_smoothed(model8, tol)
        pts.append((state.evaluations, abs(value / ref8 - 1.0)))
    asg_slope = fit_slope(*zip(*pts))
    mc_errs = []
    for n in BUDGETS[:6]:
        runs = [
            pricing.price_vg_mc(model8, n, RngSpec(6, stream_id=r), raw=True)
            for r in range(20)
        ]
        mc_errs.append(abs(float(np.median(runs)) / ref8 - 1.0))
    mc_slope = fit_slope(BUDGETS[:6], mc_errs)
    slope_ok = asg_slope <= -1.5 and -0.65 <= mc_slope <= -0.35

    ls15 = models.vg_example()
    val_cs4, _ = pricing.price_vg_smoothed(ls15, 1e-4)
    mean, se = pricing.price_vg_mc(ls15, 10**6, RngSpec(201), raw=True, return_se=True)
    agree = abs(val_cs4 - mean) / se
    agree_ok = agree <= 3.0

    v, _ = linalg.best_binary_v(models.vg_base_matrix(ls15))
    ref_ls, _ = pricing.price_vg_smoothed(ls15, 1e-7, v=v)
    cs_final, _ = pricing.price_vg_smoothed(ls15, 1e-5)
    cs2_final, _ = pricing.price_vg_smoothed(ls15, 1e-5, v=v)
    err_cs = abs(cs_final / ref_ls - 1.0)
    err_cs2 = abs(cs2_final / ref_ls - 1.0)
    cs2_ok = err_cs2 <= err_cs

    ok = mart_ok and slope_ok and agree_ok and cs2_ok
    report(
        9,
        ok,
        f"martingale deviation {mart_dev:.1e} <= 1e-8; d=8 slopes aSG+CS "
        f"{asg_slope:.2f} <= -1.5, MC {mc_slope:.2f} in [-0.65,-0.35]; "
        f"LS15 agreement {agree:.2f} SE <= 3; CS2 {err_cs2:.1e} <= CS {err_cs:.1e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    def strip_seconds(text):
        rows = []
        for row in text.splitlines():
            cells = row.split(",")
            del cells[4]
            rows.append(",".join(cells))
        return "\n".join(rows)

    bs_conf = tmp_path / "bs.conf"
    bs_conf.write_text(
        "model = bs\nd = 3\nseed = 11\nmethods = MC\nmethods = QMC+CS\n"
        "methods = aSG+CS\nmethods = MC+CS+CV\nbudgets = 18\nbudgets = 108\n"
        "budgets = 648\nbudgets = 3888\ntol_schedule = 1e-2\ntol_schedule = 1e-3\n"
        "tol_schedule = 1e-4\ntol_schedule = 1e-5\n",
        encoding="utf-8",
    )
    vg_conf = tmp_path / "vg.conf"
    vg_conf.write_text(
        "example = ls15_modified\nseed = 4\nmethods = MC+CS\nmethods = aSG+CS\n"
        "methods = aSG+CS2\nbudgets = 108\nbudgets = 648\ntol_schedule = 1e-2\n"
        "tol_schedule = 1e-3\n",
        encoding="utf-8",
    )
    ok = True
    details = []
    for verb, conf in (("converge", bs_conf), ("vg", vg_conf)):
        outputs = []
        for name in ("a", "b", "c"):
            out = tmp_path / f"{verb}_{name}"
            code = cli.main([verb, "--config", str(conf), "--out", str(out)])
            assert code == 0
            outputs.append(strip_seconds(Path(f"{out}.csv").read_text(encoding="utf-8")))
        same = outputs[0] == outputs[1] == outputs[2]
        ok = ok and same
        details.append(f"{verb}: reruns identical {same}")
    report(10, ok, "; ".join(details))
