"""Rank-one smoothing decomposition, captured variance and the binary
direction search."""
import math
import tracemalloc

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


def _single_loop_best_binary_v(sigma):
    """The search as one loop over all 2^d patterns, 2^16 at a time."""
    n = sigma.shape[0]
    Linv = np.linalg.inv(np.linalg.cholesky(sigma))
    P = Linv.T @ Linv

    bits = np.arange(n, dtype=np.uint32)
    best_q = np.inf
    best_m = -1
    chunk = 1 << 16
    for start in range(1, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        ms = np.arange(start, stop, dtype=np.uint32)
        B = ((ms[:, None] >> bits[None, :]) & 1).astype(float)
        quad = np.einsum("ij,ij->i", B @ P, B)
        k = int(np.argmin(quad))
        # strict comparison keeps the smallest integer on exact ties
        if quad[k] < best_q:
            best_q = float(quad[k])
            best_m = int(ms[k])
    v = ((best_m >> bits) & 1).astype(float)
    return v, 1.0 / best_q


def _bit_table(n):
    """All of ``{0,1}^n`` as one float table; row ``m`` holds the bits of ``m``."""
    m = np.arange(1 << n, dtype=np.uint32)
    return ((m[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)


def _joined_best_binary_v(sigma):
    """``best_binary_v``'s join of the two halves over every block, unpruned,
    from whole bit tables."""
    n = sigma.shape[0]
    Linv = linalg._inv_factor(sigma)
    P = Linv.T @ Linv
    n_l = (n + 1) // 2
    B_l, B_h = _bit_table(n_l), _bit_table(n - n_l)
    q_l = np.einsum("ij,ij->i", B_l @ P[:n_l, :n_l], B_l)
    q_h = np.einsum("ij,ij->i", B_h @ P[n_l:, n_l:], B_h)
    M = 2.0 * P[n_l:, :n_l] @ B_l.T
    rows = max(1, linalg._BLOCK_ENTRIES >> n_l)
    best_q = np.inf
    best_m = -1
    for h0 in range(0, B_h.shape[0], rows):
        quad = B_h[h0 : h0 + rows] @ M
        quad += q_h[h0 : h0 + rows, None]
        quad += q_l
        if h0 == 0:
            quad[0, 0] = np.inf
        k = int(np.argmin(quad))
        if quad.flat[k] < best_q:
            best_q = float(quad.flat[k])
            best_m = (h0 << n_l) + k
    v = ((best_m >> np.arange(n)) & 1).astype(float)
    return v, 1.0 / best_q


def _equicorrelated(d, rho):
    sigma = np.full((d, d), rho)
    np.fill_diagonal(sigma, 1.0)
    return sigma


# inputs on which the search's lower bound prunes least or ties most: with
# rho = 0.5 every single bit and the all-ones vector tie exactly, with
# rho = -0.9/(d-1) every single bit does, and the diagonal repeats its
# largest variance
_TIED_SIGMAS = {
    "equicorrelated+0.5": lambda d: _equicorrelated(d, 0.5),
    "equicorrelated-0.9/(d-1)": lambda d: _equicorrelated(d, -0.9 / (d - 1)),
    "repeated-diagonal": lambda d: np.diag(np.resize([1.0, 2.0, 2.0, 0.5], d)),
}


class TestBestBinaryV:
    def test_identity_tie_break(self):
        v, lam = linalg.best_binary_v(np.eye(4))
        np.testing.assert_array_equal(v, [1, 0, 0, 0])
        assert lam == pytest.approx(1.0)

    def test_matches_brute_force(self, monkeypatch):
        # d from 2 to 12 covers odd and even splits; the tiny block size
        # makes the sweep cross many blocks
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = int(rng.integers(2, 13))
            sigma = random_spd(rng, d, jitter=0.3)
            best = None
            for m in range(1, 2**d):
                cand = np.array([(m >> i) & 1 for i in range(d)], dtype=float)
                val = linalg.lambda1_sq(sigma, cand)
                if best is None or val > best[1] + 1e-15:
                    best = (cand, val)
            for entries in (linalg._BLOCK_ENTRIES, 8):
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "_BLOCK_ENTRIES", entries)
                    v, lam = linalg.best_binary_v(sigma)
                assert lam == pytest.approx(best[1], rel=1e-10)
                np.testing.assert_array_equal(v, best[0])

    def test_tie_in_high_half(self):
        # e_20 and e_24 tie exactly; both bits lie in the high half
        sigma = np.eye(25)
        sigma[20, 20] = sigma[24, 24] = 2.0
        v, lam = linalg.best_binary_v(sigma)
        np.testing.assert_array_equal(v, np.eye(25)[20])
        assert lam == pytest.approx(2.0, rel=1e-14)

    def test_one_dimension(self):
        # the high half is empty
        v, lam = linalg.best_binary_v(np.array([[0.04]]))
        np.testing.assert_array_equal(v, [1.0])
        assert lam == pytest.approx(0.04, rel=1e-14)

    @pytest.mark.parametrize("d", [12, 16, 20])
    @pytest.mark.parametrize("seed", [1, 2, 3, *_TIED_SIGMAS])
    def test_matches_single_loop_enumeration(self, monkeypatch, d, seed):
        if seed in _TIED_SIGMAS:
            sigma = _TIED_SIGMAS[seed](d)
        else:
            sigma = models.effective_bs(models.random_instance(d, seed)).Sigma
        v_ref, lam_ref = _single_loop_best_binary_v(sigma)
        # the tiny block size makes the bound choose among many blocks
        for entries in (linalg._BLOCK_ENTRIES, 8) if d <= 12 else (linalg._BLOCK_ENTRIES,):
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_BLOCK_ENTRIES", entries)
                v, lam = linalg.best_binary_v(sigma)
                v_join, lam_join = _joined_best_binary_v(sigma)
            # skipping blocks changes nothing, ties included
            np.testing.assert_array_equal(v, v_join)
            assert lam == lam_join
            if seed != "equicorrelated+0.5":
                # there the all-ones sum ties with the single bits, and each
                # order of summation rounds it its own way
                np.testing.assert_array_equal(v, v_ref)
            assert lam == pytest.approx(lam_ref, rel=1e-13)

    def test_benchmark_instance(self):
        sigma = models.effective_bs(models.random_instance(25, 2)).Sigma
        v, lam = linalg.best_binary_v(sigma)
        np.testing.assert_array_equal(np.flatnonzero(v), [20, 21, 22, 23, 24])
        assert lam == 0.04191258545910668

    def test_benchmark_instance_evaluates_only_blocks_below_the_winner(self, monkeypatch):
        # each evaluated block takes one argmin; on this instance 9 of the
        # 512 blocks have a least bound at or below the winner's q
        blocks = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argmin(self, a, *args, **kwargs):
                blocks.append(a.shape)
                return np.argmin(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "np", CountingNumpy())
        sigma = models.effective_bs(models.random_instance(25, 2)).Sigma
        _, lam = linalg.best_binary_v(sigma)
        assert lam == 0.04191258545910668
        assert blocks == [(8, 8192)] * 9

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
        # the search's only cap is the one on every covariance, at 35
        linalg.best_binary_v(np.eye(linalg.MAX_DIM))
        with pytest.raises(DimensionTooLarge, match="exceeds the cap of 35"):
            linalg.best_binary_v(np.eye(linalg.MAX_DIM + 1))

    @pytest.mark.parametrize(
        "case, d, pieces",
        [
            ("equicorrelated+0.5", 12, (linalg._PIECE_ROWS, 2)),
            (1, 20, (linalg._PIECE_ROWS, 16)),
            (2, 25, (linalg._PIECE_ROWS,)),
        ],
    )
    def test_pieces_match_the_unpruned_join(self, monkeypatch, case, d, pieces):
        # bit patterns made a piece at a time give every q the double that
        # whole tables give: the same v and the same bits of lambda1_sq.
        # At d = 25 the 1,024-row pieces split both halves; the smaller
        # patched sizes split them at d = 12 and 20 (a one-row piece would
        # be a matrix-vector product, which can round apart)
        if case in _TIED_SIGMAS:
            sigma = _TIED_SIGMAS[case](d)
        else:
            sigma = models.effective_bs(models.random_instance(d, case)).Sigma
        v_join, lam_join = _joined_best_binary_v(sigma)
        if case == "equicorrelated+0.5":
            np.testing.assert_array_equal(v_join, np.eye(d)[2])
        for rows in pieces:
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_PIECE_ROWS", rows)
                v, lam = linalg.best_binary_v(sigma)
            np.testing.assert_array_equal(v, v_join)
            assert lam.hex() == lam_join.hex()

    @pytest.mark.parametrize("d, seed", [(30, 1), (35, 2)])
    def test_traced_peak_holds_no_bit_table(self, d, seed):
        # what the search keeps is M (n_h by 2^n_l floats) and about a
        # dozen vectors of one float per high-half pattern: the bound is
        # 3.9 + 3.1 MB at d = 30 and 35.7 + 12.6 MB at d = 35, and the
        # search peaks at 5.8 and 45.3 MB.  Whole float bit tables, with
        # their products and an |M| temporary, would peak at 16.8 and 132 MB
        sigma = models.effective_bs(models.random_instance(d, seed)).Sigma
        n_l = (d + 1) // 2
        M_bytes = (d - n_l) * 8 << n_l
        tracemalloc.start()
        try:
            linalg.best_binary_v(sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M_bytes < peak < M_bytes + (12 * 8 << (d - n_l))
