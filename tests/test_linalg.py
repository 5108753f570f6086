"""Rank-one smoothing decomposition, captured variance and the binary
direction search."""
import math

import numpy as np
import pytest

from smoothquad import linalg, models
from smoothquad.errors import (
    DimensionTooLarge,
    NotPositiveDefinite,
    ZeroVector,
)


def random_spd(rng, d, jitter=1.0):
    m = rng.standard_normal((d, d))
    return m @ m.T + jitter * np.eye(d)


class TestCholesky:
    """The Cholesky step behind lambda1_sq and rank_one_reduce."""

    def test_identity(self):
        for v in ([1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, -1.0, 0.5]):
            v = np.asarray(v)
            assert linalg.lambda1_sq(np.eye(3), v) == pytest.approx(
                1.0 / float(v @ v), rel=1e-14
            )

    def test_two_by_two_closed_form(self):
        # sigma^-1 = [[3, -2], [-2, 4]] / 8
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        assert linalg.lambda1_sq(a) == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert linalg.lambda1_sq(a, [1.0, 0.0]) == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert linalg.lambda1_sq(a, [0.0, 1.0]) == pytest.approx(2.0, rel=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_spd(rng, 10)
            dec = linalg.rank_one_reduce(a)
            rebuilt = dec.V @ np.diag(dec.lambda_sq) @ dec.V.T
            scale = np.max(np.abs(a))
            assert np.max(np.abs(rebuilt - a)) <= 1e-12 * scale
            assert np.all(dec.lambda_sq > 0)

    def test_indefinite_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            linalg.rank_one_reduce(a)
        with pytest.raises(NotPositiveDefinite):
            linalg.lambda1_sq(a)

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.3, 1.0]])
        with pytest.raises(ValueError):
            linalg.rank_one_reduce(a)
        with pytest.raises(ValueError):
            linalg.lambda1_sq(a)


class TestSolveSpd:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(2, 12))
            a = random_spd(rng, d)
            v = rng.standard_normal(d)
            expected = 1.0 / float(v @ np.linalg.solve(a, v))
            assert linalg.lambda1_sq(a, v) == pytest.approx(expected, rel=1e-9)


class TestSymEigen:
    """The eigendecomposition of the reduced matrix inside rank_one_reduce."""

    def test_diagonal_sorted_descending(self):
        # v = e_0 removes the first axis; the rest stay axis eigenvectors
        dec = linalg.rank_one_reduce(np.diag([5.0, 3.0, 1.0, 2.0]), np.eye(4)[0])
        np.testing.assert_allclose(dec.lambda_sq, [5.0, 3.0, 2.0, 1.0])
        np.testing.assert_allclose(dec.V[:, 1:], np.eye(4)[:, [1, 3, 2]], atol=1e-13)

    def test_two_by_two_closed_form(self):
        # reduced matrix [[1, -1], [-1, 1]] / 2 has eigenvalues {1, 0}
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        dec = linalg.rank_one_reduce(a)
        np.testing.assert_allclose(dec.lambda_sq, [1.5, 1.0], atol=1e-14)
        s = 1.0 / math.sqrt(2.0)
        # both entries of the eigenvector tie in magnitude, so its sign is open
        np.testing.assert_allclose(dec.V[:, 0], [1.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.V[:, 1]), [s, s], atol=1e-13)
        assert dec.V[0, 1] == pytest.approx(-dec.V[1, 1], abs=1e-13)

    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(2, 16))
            sigma = random_spd(rng, d)
            dec = linalg.rank_one_reduce(sigma)
            Q = dec.V[:, 1:]
            tail = dec.lambda_sq[1:]
            scale = np.max(np.abs(sigma))
            reduced = sigma - dec.lambda_sq[0] * np.outer(dec.v, dec.v)
            assert np.max(np.abs(reduced @ Q - Q * tail)) <= 1e-10 * scale
            rebuilt = dec.V @ np.diag(dec.lambda_sq) @ dec.V.T
            assert np.max(np.abs(rebuilt - sigma)) <= 1e-10 * scale
            assert np.max(np.abs(Q.T @ Q - np.eye(d - 1))) <= 1e-12
            assert np.all(np.diff(tail) <= 1e-14 * scale)

    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(31)
        sigma = random_spd(rng, 12)
        v = np.ones(12)
        reduced = sigma - np.outer(v, v) / float(v @ np.linalg.solve(sigma, v))
        ref = np.sort(np.linalg.eigvalsh(reduced))[::-1][:-1]
        dec = linalg.rank_one_reduce(sigma)
        np.testing.assert_allclose(
            dec.lambda_sq[1:], ref, atol=1e-10 * np.max(np.abs(sigma))
        )


class TestLambda1Sq:
    def test_identity_basis_vector(self):
        assert linalg.lambda1_sq(np.eye(4), np.eye(4)[0]) == pytest.approx(1.0)

    def test_diagonal_last_axis(self):
        mu2 = np.array([4.0, 2.5, 0.49])
        sigma = np.diag(mu2)
        v = np.array([0.0, 0.0, 1.0])
        assert linalg.lambda1_sq(sigma, v) == pytest.approx(0.49, rel=1e-12)

    def test_identity_all_ones_default(self):
        # default direction is the all-ones vector
        assert linalg.lambda1_sq(np.eye(5)) == pytest.approx(0.2, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            linalg.lambda1_sq(np.eye(3), np.zeros(3))

    def test_upper_bound_largest_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            sigma = random_spd(rng, d, jitter=0.5)
            v = rng.standard_normal(d)
            if np.linalg.norm(v) < 1e-8:
                continue
            mu1 = float(np.max(np.linalg.eigvalsh(sigma)))
            bound = mu1 / float(v @ v) + 1e-12
            assert linalg.lambda1_sq(sigma, v) <= bound


class TestRankOneReduce:
    def test_identity_all_ones(self):
        # I - (1/d) 11^T has eigenvalues {1 x(d-1), 0}; the structural zero
        # is dropped, so the retained spectrum is all ones
        d = 6
        dec = linalg.rank_one_reduce(np.eye(d))
        assert dec.lambda_sq[0] == pytest.approx(1.0 / d, rel=1e-12)
        np.testing.assert_allclose(dec.lambda_sq[1:], np.ones(d - 1), atol=1e-12)
        np.testing.assert_allclose(dec.V[:, 0], np.ones(d))

    def test_reconstruction_over_dimensions(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            d = int(rng.integers(2, 36))
            sigma = random_spd(rng, d)
            dec = linalg.rank_one_reduce(sigma)
            rebuilt = dec.V @ np.diag(dec.lambda_sq) @ dec.V.T
            scale = np.max(np.abs(sigma))
            assert np.max(np.abs(rebuilt - sigma)) <= 1e-10 * scale
            assert dec.lambda_sq[0] == pytest.approx(
                linalg.lambda1_sq(sigma), rel=1e-10
            )
            tail = dec.lambda_sq[1:]
            assert np.all(np.diff(tail) <= 1e-12 * scale)
            assert np.all(tail >= 0.0)

    def test_reduced_matrix_rank_deficient(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            sigma = random_spd(rng, 8)
            v = np.ones(8)
            w = np.linalg.solve(sigma, v)
            dec = linalg.rank_one_reduce(sigma, v)
            # the rank-1 subtraction removes exactly one dimension: its null
            # vector sigma^-1 v is the dropped one, the kept spectrum is not zero
            assert np.max(np.abs(dec.V[:, 1:].T @ w)) <= 1e-10 * np.linalg.norm(w)
            assert dec.lambda_sq[-1] > 1e-6

    def test_eigenvector_sign_rule(self):
        # each eigenvector column has a positive largest-magnitude entry
        prob = models.effective_bs(models.random_instance(8, 208))
        sigmas = [prob.Sigma] + [random_spd(np.random.default_rng(s), 9) for s in range(5)]
        for sigma in sigmas:
            Q = linalg.rank_one_reduce(sigma).V[:, 1:]
            pivots = np.argmax(np.abs(Q), axis=0)
            assert np.all(Q[pivots, np.arange(Q.shape[1])] > 0.0)

    def test_custom_direction_kept_as_first_column(self):
        rng = np.random.default_rng(3)
        sigma = random_spd(rng, 5)
        v = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        dec = linalg.rank_one_reduce(sigma, v)
        np.testing.assert_allclose(dec.V[:, 0], v)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            linalg.rank_one_reduce(np.eye(36))


class TestBestBinaryV:
    def test_identity_tie_break(self):
        v, lam = linalg.best_binary_v(np.eye(4))
        np.testing.assert_array_equal(v, [1, 0, 0, 0])
        assert lam == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            sigma = random_spd(rng, d, jitter=0.3)
            v, lam = linalg.best_binary_v(sigma)
            best = None
            for m in range(1, 2**d):
                cand = np.array([(m >> i) & 1 for i in range(d)], dtype=float)
                val = linalg.lambda1_sq(sigma, cand)
                if best is None or val > best[1] + 1e-15:
                    best = (cand, val)
            assert lam == pytest.approx(best[1], rel=1e-10)
            np.testing.assert_array_equal(v, best[0])

    def test_lower_bound_smallest_eigenvalue(self):
        # the best binary direction is never worse than the smallest
        # eigenvalue of sigma
        rng = np.random.default_rng(53)
        for _ in range(30):
            d = int(rng.integers(2, 11))
            sigma = random_spd(rng, d, jitter=0.2)
            _, lam = linalg.best_binary_v(sigma)
            mu_min = float(np.min(np.linalg.eigvalsh(sigma)))
            assert lam >= mu_min - 1e-12

    def test_enumeration_guard(self):
        with pytest.raises(DimensionTooLarge):
            linalg.best_binary_v(np.eye(26))
