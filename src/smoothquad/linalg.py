"""Covariance splitting for the smoothing decomposition.

``rank_one_reduce`` splits a covariance into the smoothing direction
``v`` and a positive semidefinite remainder, ``lambda1_sq`` scores one
direction and ``best_binary_v`` searches all 2^d binary ones, enumerating
each half of the coordinates once and joining the halves with one
matrix product per block of bit patterns.  The Cholesky
factor and the eigendecomposition are numpy's LAPACK calls; eigenvector
signs are fixed by a rule because LAPACK leaves them arbitrary.
Dimension is capped at 35.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotPositiveDefinite, ZeroVector

MAX_DIM = 35
MAX_ENUM_DIM = 25
# entries of one block of the binary search (512 KB of float64)
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SmoothingDecomposition:
    """Result of the rank-one covariance splitting.

    Attributes
    ----------
    V : ndarray, shape (d, d)
        Change-of-basis matrix.  The first column is the smoothing
        direction ``v``; the remaining columns are orthonormal
        eigenvectors of the reduced matrix, each signed so that its
        largest-magnitude entry is positive.
    lambda_sq : ndarray, shape (d,)
        Factor variances.  ``lambda_sq[0]`` belongs to the smoothing
        direction, the rest are sorted in decreasing order and are
        nonnegative (tiny negative round-off is clamped to zero).
    v : ndarray, shape (d,)
        The smoothing direction that was supplied.
    """

    V: np.ndarray
    lambda_sq: np.ndarray
    v: np.ndarray

    @property
    def dim(self) -> int:
        return self.v.shape[0]


def _as_sym_matrix(a, max_dim=None) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if max_dim is not None and n > max_dim:
        raise DimensionTooLarge(f"dimension {n} exceeds the cap of {max_dim}")
    scale = max(1.0, float(np.max(np.abs(a)))) if n else 1.0
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return a


def _inv_factor(sigma: np.ndarray) -> np.ndarray:
    """Inverse ``Linv`` of the lower Cholesky factor: sigma^-1 = Linv.T Linv."""
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc
    return np.linalg.inv(L)


def _inv_quadratic(sigma: np.ndarray, v: np.ndarray) -> float:
    """``<v, sigma^-1 v>`` computed as ``|Linv v|^2``."""
    y = _inv_factor(sigma) @ v
    ip = float(y @ y)
    if ip <= 0.0:
        raise NotPositiveDefinite(f"<v, sigma^-1 v> = {ip:.3e}, expected > 0")
    return ip


def _check_direction(v, n: int) -> np.ndarray:
    if v is None:
        return np.ones(n)
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"direction has shape {v.shape}, expected ({n},)")
    if not np.any(v != 0.0):
        raise ZeroVector("smoothing direction is identically zero")
    return v


def lambda1_sq(sigma, v=None) -> float:
    """Variance captured by direction ``v``: ``1 / <v, sigma^-1 v>``.

    ``v`` defaults to the all-ones vector.
    """
    sigma = _as_sym_matrix(sigma, max_dim=MAX_DIM)
    v = _check_direction(v, sigma.shape[0])
    return 1.0 / _inv_quadratic(sigma, v)


def rank_one_reduce(sigma, v=None) -> SmoothingDecomposition:
    """Split a covariance into a rank-one part along ``v`` plus a remainder.

    Writes ``sigma = V diag(lambda_sq) V.T`` where the first column of
    ``V`` is ``v`` itself and the remaining columns are orthonormal
    eigenvectors of ``sigma - v v.T / <v, sigma^-1 v>``.  That reduced
    matrix is positive semidefinite with a one-dimensional null space, so
    its smallest eigenvalue is discarded as the structural zero.  Each
    eigenvector is signed so that its largest-magnitude entry is positive.

    Parameters
    ----------
    sigma : array_like, shape (d, d)
        Symmetric positive definite covariance.
    v : array_like, shape (d,), optional
        Nonzero direction; defaults to all ones.

    Returns
    -------
    SmoothingDecomposition

    Raises
    ------
    NotPositiveDefinite
        If ``sigma`` fails the Cholesky test, or the reduced matrix has an
        eigenvalue more negative than round-off allows.
    ZeroVector
        If ``v`` is identically zero.
    """
    sigma = _as_sym_matrix(sigma, max_dim=MAX_DIM)
    n = sigma.shape[0]
    v = _check_direction(v, n)

    ip = _inv_quadratic(sigma, v)
    lam1 = 1.0 / ip

    reduced = sigma - np.outer(v, v) / ip
    reduced = 0.5 * (reduced + reduced.T)
    eigvals, Q = np.linalg.eigh(reduced)
    eigvals, Q = eigvals[::-1], Q[:, ::-1]
    # LAPACK picks eigenvector signs arbitrarily; a fixed rule keeps the
    # rotated coordinates, and so every sampled estimate, independent of it
    pivots = np.argmax(np.abs(Q), axis=0)
    Q = Q * np.sign(Q[pivots, np.arange(n)])

    scale = float(np.linalg.norm(reduced))
    tail = eigvals[: n - 1].copy()
    floor = -1e-12 * max(scale, 1e-300)
    if np.any(tail < floor):
        worst = float(tail.min())
        raise NotPositiveDefinite(
            f"reduced matrix has eigenvalue {worst:.3e} below round-off"
        )
    tail[tail < 0.0] = 0.0

    V = np.empty((n, n))
    V[:, 0] = v
    V[:, 1:] = Q[:, : n - 1]
    lambda_sq = np.concatenate(([lam1], tail))
    return SmoothingDecomposition(V=V, lambda_sq=lambda_sq, v=v)


def _bit_rows(n: int) -> np.ndarray:
    """All of ``{0,1}^n`` as rows; row ``m`` holds the bits of ``m``."""
    m = np.arange(1 << n, dtype=np.uint32)
    return ((m[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)


def best_binary_v(sigma) -> tuple[np.ndarray, float]:
    """Binary direction with the largest captured variance.

    Minimizes ``q(m) = <b, P b>`` with ``P = sigma^-1`` over the bits
    ``b`` of every nonzero integer ``m < 2^d``, i.e. maximizes
    ``lambda1_sq(sigma, v)`` over ``v`` in ``{0,1}^d``.  The coordinates
    split into a low half of ``n_l = ceil(d/2)`` bits and a high half of
    ``d - n_l``; with ``m = (h << n_l) | l``,
    ``q(m) = q_h[h] + q_l[l] + (B_h M)[h, l]``, where ``B_l`` and ``B_h``
    enumerate each half once, ``q_l`` and ``q_h`` are their own
    quadratic forms and ``M = 2 P_hl B_l^T``.  Blocks of consecutive
    ``h`` cost one matrix product each.  Row-major order over
    ``(h, l)`` is increasing ``m``, so the flat argmin of a block and a
    strict comparison across blocks break ties towards the smallest
    integer whose bit ``i`` equals ``v_i``.

    Raises
    ------
    DimensionTooLarge
        If ``d > 25`` (the enumeration is exponential in ``d``).
    """
    sigma = _as_sym_matrix(sigma, max_dim=MAX_DIM)
    n = sigma.shape[0]
    if n > MAX_ENUM_DIM:
        raise DimensionTooLarge(
            f"binary search enumerates 2^d vectors; d = {n} exceeds {MAX_ENUM_DIM}"
        )

    # quadratic form v' P v with P = sigma^-1
    Linv = _inv_factor(sigma)
    P = Linv.T @ Linv

    n_l = (n + 1) // 2
    B_l, B_h = _bit_rows(n_l), _bit_rows(n - n_l)
    q_l = np.einsum("ij,ij->i", B_l @ P[:n_l, :n_l], B_l)
    q_h = np.einsum("ij,ij->i", B_h @ P[n_l:, n_l:], B_h)
    M = 2.0 * P[n_l:, :n_l] @ B_l.T
    rows = max(1, _BLOCK_ENTRIES >> n_l)
    best_q = np.inf
    best_m = -1
    for h0 in range(0, B_h.shape[0], rows):
        quad = B_h[h0 : h0 + rows] @ M
        quad += q_h[h0 : h0 + rows, None]
        quad += q_l
        if h0 == 0:
            quad[0, 0] = np.inf  # m = 0 is not a direction
        k = int(np.argmin(quad))
        # strict comparison keeps the smallest integer on exact ties
        if quad.flat[k] < best_q:
            best_q = float(quad.flat[k])
            best_m = (h0 << n_l) + k
    v = ((best_m >> np.arange(n)) & 1).astype(float)
    return v, 1.0 / best_q
