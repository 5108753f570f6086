"""Univariate quadrature rules: exactness, nesting, and sequence growth.

Closed-form moments are the ground truth: E[Z^k] for N(0,1) and
Gamma(alpha+1+k)/Gamma(alpha+1) for the Gamma(alpha+1, 1) density.  For
odd normal moments (exactly zero) the error is measured against E|Z|^k
so the tolerance tracks the natural magnitude of the monomial.
"""
import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre, roots_hermitenorm

from smoothquad import rules1d
from smoothquad.errors import AlphaOutOfRange, OrderOutOfRange


def normal_moment(k):
    if k % 2 == 1:
        return 0.0
    m = k // 2
    return math.exp(math.lgamma(k + 1) - m * math.log(2.0) - math.lgamma(m + 1))


def normal_abs_moment(k):
    return math.exp(
        0.5 * k * math.log(2.0) + math.lgamma(0.5 * (k + 1)) - 0.5 * math.log(math.pi)
    )


def gamma_moment(alpha, k):
    return math.exp(math.lgamma(alpha + 1 + k) - math.lgamma(alpha + 1))


class TestGaussHermite:
    def test_one_point(self):
        r = rules1d.gauss_hermite(1)
        np.testing.assert_allclose(r.nodes, [0.0])
        np.testing.assert_allclose(r.weights, [1.0])

    def test_two_points(self):
        r = rules1d.gauss_hermite(2)
        np.testing.assert_allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_three_points(self):
        r = rules1d.gauss_hermite(3)
        s = math.sqrt(3.0)
        np.testing.assert_allclose(r.nodes, [-s, 0.0, s], atol=1e-14)
        np.testing.assert_allclose(r.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)

    def test_moment_exactness_up_to_degree(self):
        worst = 0.0
        for n in range(1, 41):
            r = rules1d.gauss_hermite(n)
            for k in range(2 * n):
                q = float(r.weights @ r.nodes**k)
                scale = max(normal_abs_moment(k), 1.0)
                worst = max(worst, abs(q - normal_moment(k)) / scale)
        assert worst <= 1e-12

    def test_weight_sum_and_symmetry(self):
        for n in (1, 2, 3, 17, 40, 143, 200):
            r = rules1d.gauss_hermite(n)
            assert abs(float(np.sum(r.weights)) - 1.0) <= 1e-13
            np.testing.assert_allclose(r.nodes, -r.nodes[::-1], atol=1e-13)
            np.testing.assert_allclose(r.weights, r.weights[::-1], atol=1e-13)
            assert np.all(np.diff(r.nodes) > 0)

    def test_against_scipy(self):
        for n in (5, 40, 100, 200):
            r = rules1d.gauss_hermite(n)
            xs, ws = roots_hermitenorm(n)
            ws = ws / math.sqrt(2.0 * math.pi)
            np.testing.assert_allclose(r.nodes, xs, atol=1e-12)
            np.testing.assert_allclose(r.weights, ws, rtol=1e-10)

    def test_order_guard(self):
        with pytest.raises(OrderOutOfRange):
            rules1d.gauss_hermite(0)
        with pytest.raises(OrderOutOfRange):
            rules1d.gauss_hermite(201)


class TestGenzKeister:
    def test_level_zero_and_one(self):
        r0 = rules1d.genz_keister(0)
        np.testing.assert_allclose(r0.nodes, [0.0])
        np.testing.assert_allclose(r0.weights, [1.0])
        r1 = rules1d.genz_keister(1)
        s = math.sqrt(3.0)
        np.testing.assert_allclose(r1.nodes, [-s, 0.0, s], atol=1e-15)
        np.testing.assert_allclose(r1.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)

    def test_table_sizes(self):
        assert [len(rules1d.genz_keister(j)) for j in range(5)] == [1, 3, 9, 19, 35]

    def test_polynomial_degrees(self):
        # levels 0..4 integrate monomials exactly up to the listed degree
        for level, degree in zip(range(5), (1, 5, 15, 29, 51)):
            r = rules1d.genz_keister(level)
            for k in range(degree + 1):
                q = float(r.weights @ r.nodes**k)
                scale = max(normal_abs_moment(k), 1.0)
                assert abs(q - normal_moment(k)) / scale <= 1e-10, (level, k)

    def test_nesting(self):
        for level in range(4):
            lo = rules1d.genz_keister(level)
            hi = rules1d.genz_keister(level + 1)
            for x in lo.nodes:
                assert float(np.min(np.abs(hi.nodes - x))) <= 1e-12

    def test_weight_sums(self):
        for level in range(7):
            r = rules1d.genz_keister(level)
            assert abs(float(np.sum(r.weights)) - 1.0) <= 1e-13

    def test_level_three_has_a_negative_weight(self):
        # nested extensions give up weight positivity past the 9-point rule
        assert float(np.min(rules1d.genz_keister(3).weights)) < 0.0

    def test_levels_five_and_six_are_gauss_hermite(self):
        # the table holds the doubles gauss_hermite gave when it was made;
        # another LAPACK may round the rule built now in the last bits
        for level, n in ((5, 71), (6, 143)):
            gk = rules1d.genz_keister(level)
            gh = rules1d.gauss_hermite(n)
            assert len(gk) == n
            np.testing.assert_allclose(gk.nodes, gh.nodes, rtol=1e-14, atol=0)
            np.testing.assert_allclose(gk.weights, gh.weights, rtol=1e-14, atol=0)

    def test_levels_five_and_six_build_no_rule(self, monkeypatch):
        def no_build(n):
            raise AssertionError(f"gauss_hermite({n}) called")

        monkeypatch.setattr(rules1d, "gauss_hermite", no_build)
        # past the cache, so the table is read whatever ran before
        assert [len(rules1d.genz_keister.__wrapped__(lv)) for lv in (5, 6)] == [71, 143]

    def test_level_past_the_order_cap_rejected(self):
        assert rules1d.genz_keister_sequence().size(7) > rules1d.MAX_ORDER
        with pytest.raises(OrderOutOfRange):
            rules1d.genz_keister(7)

    def test_negative_level_rejected(self):
        with pytest.raises(OrderOutOfRange):
            rules1d.genz_keister(-1)


def _refine_rule_loop(nodes, weights, diag, offdiag_ext):
    """The Newton polish as a plain loop over p_k and p'_k: the reference."""
    n = nodes.shape[0]
    x = nodes.copy()
    chris = None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            pkm1 = np.zeros(n)
            pk = np.ones(n)
            dkm1 = np.zeros(n)
            dk = np.zeros(n)
            s = np.zeros(n)
            for k in range(n):
                s += pk * pk
                b_hi = offdiag_ext[k]
                b_lo = offdiag_ext[k - 1] if k > 0 else 0.0
                shifted = x - diag[k]
                pk_next = (shifted * pk - b_lo * pkm1) / b_hi
                dk_next = (shifted * dk + pk - b_lo * dkm1) / b_hi
                pkm1, pk = pk, pk_next
                dkm1, dk = dk, dk_next
            chris = s
            step = pk / dk
            ok = np.isfinite(step) & (np.abs(step) <= 1e-6 * (1.0 + np.abs(x)))
            x = np.where(ok, x - step, x)
        refined = np.where(np.isfinite(chris), 1.0 / chris, 0.0)
    bad = ~np.isfinite(refined)
    if np.any(bad):
        refined[bad] = weights[bad]
    return x, refined


def _recurrences():
    for n in [*range(1, 61), 71, 143, 199]:
        yield np.zeros(n), np.sqrt(np.arange(1.0, n + 1.0))
    for alpha in (-0.5, 0.0, 16 / 9, 2.3):
        for n in range(1, 81):
            k = np.arange(n, dtype=float)
            j = np.arange(1.0, n + 1.0)
            yield 2.0 * k + alpha + 1.0, np.sqrt(j * (j + alpha))


class TestNewtonPolish:
    def test_matches_the_loop_bit_for_bit(self):
        for diag, offdiag_ext in _recurrences():
            off = offdiag_ext[:-1]
            jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            nodes, vectors = np.linalg.eigh(jacobi)
            weights = vectors[0] ** 2
            got = rules1d._refine_rule(nodes, weights, diag, offdiag_ext)
            want = _refine_rule_loop(nodes, weights, diag, offdiag_ext)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], len(diag)


class TestGeneralizedLaguerre:
    def test_one_point_is_gamma_mean(self):
        for alpha in (0.0, -0.5, 2.5):
            r = rules1d.gauss_laguerre_generalized(1, alpha)
            assert r.nodes[0] == pytest.approx(alpha + 1.0, abs=1e-13)
            assert r.weights[0] == pytest.approx(1.0, abs=1e-14)

    def test_two_points_closed_form(self):
        r = rules1d.gauss_laguerre_generalized(2, 0.0)
        s = math.sqrt(2.0)
        np.testing.assert_allclose(r.nodes, [2.0 - s, 2.0 + s], atol=1e-13)
        np.testing.assert_allclose(r.weights, [(2 + s) / 4, (2 - s) / 4], atol=1e-13)

    def test_gamma_moments_small_rule(self):
        r = rules1d.gauss_laguerre_generalized(10, 1.5)
        for k in range(20):
            q = float(r.weights @ r.nodes**k)
            assert abs(q - gamma_moment(1.5, k)) / gamma_moment(1.5, k) <= 1e-10

    def test_moment_exactness_up_to_degree(self):
        worst = 0.0
        for alpha in (0.0, -0.5, 1.5, 3.0):
            for n in range(1, 41):
                r = rules1d.gauss_laguerre_generalized(n, alpha)
                for k in range(2 * n):
                    q = float(r.weights @ r.nodes**k)
                    exact = gamma_moment(alpha, k)
                    worst = max(worst, abs(q - exact) / exact)
        assert worst <= 1e-12

    def test_against_scipy(self):
        for alpha in (0.0, -0.5, 3.0):
            for n in (10, 40, 80):
                r = rules1d.gauss_laguerre_generalized(n, alpha)
                xs, ws = roots_genlaguerre(n, alpha)
                ws = ws / math.gamma(alpha + 1.0)
                np.testing.assert_allclose(r.nodes, xs, rtol=1e-12, atol=1e-13)
                np.testing.assert_allclose(r.weights, ws, rtol=1e-10, atol=1e-300)

    def test_weight_sum_and_positivity(self):
        for alpha in (0.0, -0.5, 1.5):
            for n in (1, 7, 40):
                r = rules1d.gauss_laguerre_generalized(n, alpha)
                assert abs(float(np.sum(r.weights)) - 1.0) <= 1e-13
                assert np.all(r.nodes > 0)
                assert np.all(np.diff(r.nodes) > 0)

    def test_guards(self):
        with pytest.raises(OrderOutOfRange):
            rules1d.gauss_laguerre_generalized(0, 0.5)
        with pytest.raises(AlphaOutOfRange):
            rules1d.gauss_laguerre_generalized(5, -1.0)


class TestRuleSequences:
    def test_gauss_hermite_sizes(self):
        seq = rules1d.gauss_hermite_sequence()
        assert [seq.size(j) for j in range(6)] == [1, 3, 5, 7, 9, 11]
        assert len(seq.rule(4)) == 9

    def test_genz_keister_sizes(self):
        seq = rules1d.genz_keister_sequence()
        assert [seq.size(j) for j in range(7)] == [1, 3, 9, 19, 35, 71, 143]

    def test_laguerre_sizes(self):
        seq = rules1d.laguerre_sequence(0.5)
        assert [seq.size(j) for j in range(5)] == [1, 2, 3, 4, 5]
        assert len(seq.rule(3)) == 4

    def test_sizes_strictly_increase(self):
        for seq in (
            rules1d.gauss_hermite_sequence(),
            rules1d.genz_keister_sequence(),
            rules1d.laguerre_sequence(1.0),
        ):
            sizes = [seq.size(j) for j in range(8)]
            assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_center_is_level_zero_node(self):
        assert rules1d.gauss_hermite_sequence().rule(0).nodes[0] == 0.0
        assert rules1d.genz_keister_sequence().rule(0).nodes[0] == 0.0
        assert rules1d.laguerre_sequence(0.25).rule(0).nodes[0] == pytest.approx(1.25)

    def test_rules_are_immutable(self):
        r = rules1d.gauss_hermite(3)
        with pytest.raises(ValueError):
            r.nodes[0] = 99.0
