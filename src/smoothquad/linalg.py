"""Covariance splitting for the smoothing decomposition.

``rank_one_reduce`` splits a covariance into the smoothing direction
``v`` and a positive semidefinite remainder, ``lambda1_sq`` scores one
direction and ``best_binary_v`` searches all 2^d binary ones, enumerating
each half of the coordinates once and joining the halves with one
matrix product per block of bit patterns; no table of the patterns is
held whole.  A lower bound per pattern of the high half skips every
block whose values all lie above one already computed, so the search
returns what the full enumeration would.  The Cholesky factor and the
eigendecomposition are numpy's LAPACK calls; eigenvector signs are fixed
by a rule because LAPACK leaves them arbitrary.  Dimension is capped at
35.  ``finite`` and ``symmetric`` check every array where it enters this
module and ``models``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotPositiveDefinite, ZeroVector

MAX_DIM = 35
# entries of one block of the binary search (512 KB of float64)
_BLOCK_ENTRIES = 1 << 16
# rows of one piece of a bit-pattern table (at most 18 columns, 147 KB of
# float64); more than one, so a piece takes the products a whole table does
_PIECE_ROWS = 1 << 10


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


def finite(a, name) -> np.ndarray:
    """``a`` as a new float array; raises ValueError on nan or +-inf."""
    arr = np.array(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def symmetric(a, name) -> np.ndarray:
    """:func:`finite` ``a``, required square and symmetric to ``1e-12 max|a|``."""
    arr = finite(a, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if np.max(np.abs(arr - arr.T), initial=0.0) > 1e-12 * np.max(np.abs(arr), initial=0.0):
        raise ValueError(f"{name} is not symmetric")
    return arr


def _inv_factor(sigma: np.ndarray) -> np.ndarray:
    """Inverse ``Linv`` of the lower Cholesky factor: sigma^-1 = Linv.T Linv."""
    if sigma.shape[0] > MAX_DIM:
        raise DimensionTooLarge(f"dimension {sigma.shape[0]} exceeds the cap of {MAX_DIM}")
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
    v = finite(v, "direction")
    if v.shape != (n,):
        raise ValueError(f"direction has shape {v.shape}, expected ({n},)")
    if not np.any(v != 0.0):
        raise ZeroVector("smoothing direction is identically zero")
    return v


def lambda1_sq(sigma, v=None) -> float:
    """Variance captured by direction ``v``: ``1 / <v, sigma^-1 v>``.

    ``v`` defaults to the all-ones vector.
    """
    sigma = symmetric(sigma, "covariance")
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
    sigma = symmetric(sigma, "covariance")
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


def _bit_rows(start: int, stop: int, n: int) -> np.ndarray:
    """Rows ``start`` to ``stop - 1`` of ``{0,1}^n``; row ``m`` holds the bits of ``m``."""
    m = np.arange(start, stop, dtype=np.uint32)
    return ((m[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)


def _pieces(n: int):
    """``(slice, rows)`` of ``{0,1}^n`` in order, ``_PIECE_ROWS`` rows at a time.

    Every piece is one buffer, valid until the next piece is made: the
    bits below the piece size run through the same patterns in every
    piece and are written once, and each piece writes only its higher
    bits, which are constant within it.
    """
    rows = min(_PIECE_ROWS, 1 << n)
    low = rows.bit_length() - 1
    high = np.arange(low, n, dtype=np.uint32)
    B = _bit_rows(0, rows, n)
    for start in range(0, 1 << n, rows):
        B[:, low:] = (start >> high) & 1
        yield slice(start, start + rows), B


def best_binary_v(sigma) -> tuple[np.ndarray, float]:
    """Binary direction with the largest captured variance.

    Minimizes ``q(m) = <b, P b>`` with ``P = sigma^-1`` over the bits
    ``b`` of every nonzero integer ``m < 2^d``, i.e. maximizes
    ``lambda1_sq(sigma, v)`` over ``v`` in ``{0,1}^d``.  The coordinates
    split into a low half of ``n_l = ceil(d/2)`` bits and a high half of
    ``d - n_l``; with ``m = (h << n_l) | l``,
    ``q(m) = q_h[h] + q_l[l] + (B_h M)[h, l]``, where ``B_l`` and ``B_h``
    enumerate each half, ``q_l`` and ``q_h`` are their own quadratic
    forms and ``M = 2 P_hl B_l^T``.  Blocks of consecutive ``h`` cost one
    matrix product each.  Row-major order over ``(h, l)`` is increasing
    ``m``; the flat argmin of a block, and the smaller ``m`` across
    blocks, break ties of the computed ``q`` towards the smallest
    integer whose bit ``i`` equals ``v_i``.  Patterns whose ``q`` tie in
    exact arithmetic can round apart, and then the least rounded value
    wins: on the equicorrelated ``rho = 0.5`` covariance at ``d = 12``
    every single bit ties with the all-ones vector, and the search
    returns ``e_2``.

    Only the blocks that can hold the minimum are evaluated.  Every
    ``q(m)`` with high half ``h`` is at least
    ``q_h[h] + min q_l + sum_i B_h[h, i] min_l M[i, l]``; from that bound
    is taken a slack of ``1e-9 * (|q_h[h]| + max |q_l| +
    sum_i B_h[h, i] max_l |M[i, l]|)``, far above the rounding of either
    side.  Blocks are evaluated in increasing order of their least
    bound, and the search stops at the first block whose least bound
    lies above the best ``q`` found so far.  A skipped block holds only
    values above one already computed, so the winner, its tie-break and
    its ``q`` are those of the full enumeration, and the blocks
    evaluated are exactly those whose least bound is at most the
    winner's ``q``.

    No table of bit patterns is held whole: ``B_l`` and ``B_h`` are made
    ``_PIECE_ROWS`` rows at a time, and a block's rows of ``B_h`` when it
    is evaluated.  What the search keeps is ``M`` (``d - n_l`` by
    ``2^n_l``, 36 MB at ``d = 35``) and one float per pattern of each
    half (``q_l``, ``q_h`` and the bound).  A piece of more than one row
    takes the same BLAS matrix product as a whole table, so every entry
    is the double a whole table gives (a one-row piece would be a
    matrix-vector product, which can round apart).

    Raises
    ------
    DimensionTooLarge
        If ``d > 35``, like every covariance entering this module.
    """
    sigma = symmetric(sigma, "covariance")
    n = sigma.shape[0]

    # quadratic form v' P v with P = sigma^-1
    Linv = _inv_factor(sigma)
    P = Linv.T @ Linv

    n_l = (n + 1) // 2
    n_h = n - n_l
    P_l, P_h, P_hl = P[:n_l, :n_l], P[n_l:, n_l:], 2.0 * P[n_l:, :n_l]
    q_l = np.empty(1 << n_l)
    M = np.empty((n_h, 1 << n_l))
    for piece, B in _pieces(n_l):
        q_l[piece] = np.einsum("ij,ij->i", B @ P_l, B)
        M[:, piece] = P_hl @ B.T
    rows = max(1, _BLOCK_ENTRIES >> n_l)

    def block_min(h0):
        quad = _bit_rows(h0, min(h0 + rows, 1 << n_h), n_h) @ M
        quad += q_h[h0 : h0 + rows, None]
        quad += q_l
        if h0 == 0:
            quad[0, 0] = np.inf  # m = 0 is not a direction
        k = int(np.argmin(quad))
        return float(quad.flat[k]), (h0 << n_l) + k

    # lower bound of every q(m) with high half h, less a slack far above
    # the rounding of either side, so no skipped block can hold a value
    # at or below one already computed; max |x| is max(max x, -min x)
    M_min, M_max = M.min(axis=1), M.max(axis=1)
    M_abs = np.maximum(M_max, -M_min)
    q_l_min = q_l.min()
    q_l_abs = max(q_l.max(), -q_l_min)
    q_h = np.empty(1 << n_h)
    bound = np.empty(1 << n_h)
    for piece, B in _pieces(n_h):
        q = np.einsum("ij,ij->i", B @ P_h, B)
        q_h[piece] = q
        low = q + q_l_min + B @ M_min
        low -= 1e-9 * (np.abs(q) + q_l_abs + B @ M_abs)
        bound[piece] = low
    starts = np.arange(0, 1 << n_h, rows)
    lows = np.minimum.reduceat(bound, starts)
    best_q = np.inf
    best_m = -1
    for i in np.argsort(lows, kind="stable"):
        if lows[i] > best_q:
            break  # this block and every later one lie above best_q
        q, m = block_min(int(starts[i]))
        # on equal q the smaller integer wins, whichever block came first
        if q < best_q or (q == best_q and m < best_m):
            best_q, best_m = q, m
    v = ((best_m >> np.arange(n)) & 1).astype(float)
    return v, 1.0 / best_q
