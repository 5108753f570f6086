"""Covariance splitting for the smoothing decomposition.

``rank_one_reduce`` splits a covariance into the smoothing direction
``v`` and a positive semidefinite remainder, ``lambda1_sq`` scores one
direction and ``best_binary_v`` searches all 2^d binary ones, enumerating
each half of the coordinates once and joining the halves with one
matrix product per block of bit patterns; neither a table of the
patterns nor the join's matrix is held whole.  A lower bound per cell,
a piece of one half's patterns against a piece of the other's, skips
every block whose values all lie above one already computed, so the
search returns what the full enumeration would.  The Cholesky factor
and the eigendecomposition are numpy's LAPACK calls; eigenvector signs
are fixed by a rule because LAPACK leaves them arbitrary.  Dimension is
capped at 35.  ``finite`` and ``symmetric`` check every array where it
enters this module and ``models``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotPositiveDefinite, ZeroVector

MAX_DIM = 35
# entries of one product of the binary search (512 KB of float64); a
# block has the rows that a product this size over every low half has
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


def _pieces(n: int, rows: int, starts=None):
    """``(start, rows)`` of ``{0,1}^n``, ``rows`` (a power of two) at a time.

    The pieces begin at each of ``starts`` (multiples of ``rows``; by
    default every one, in order).  Every piece is one buffer, valid
    until the next piece is made: the bits below the piece size run
    through the same patterns in every piece and are written once, and
    each piece writes only its higher bits, which are constant within it.
    """
    rows = min(rows, 1 << n)
    low = rows.bit_length() - 1
    high = np.arange(low, n, dtype=np.uint32)
    B = _bit_rows(0, rows, n)
    for start in range(0, 1 << n, rows) if starts is None else starts:
        B[:, low:] = (int(start) >> high) & 1
        yield int(start), B


def best_binary_v(sigma) -> tuple[np.ndarray, float]:
    """Binary direction with the largest captured variance.

    Minimizes ``q(m) = <b, P b>`` with ``P = sigma^-1`` over the bits
    ``b`` of every nonzero integer ``m < 2^d``, i.e. maximizes
    ``lambda1_sq(sigma, v)`` over ``v`` in ``{0,1}^d``.  The coordinates
    split into a low half of ``n_l = ceil(d/2)`` bits and a high half of
    ``d - n_l``; with ``m = (h << n_l) | l``,
    ``q(m) = q_h[h] + q_l[l] + (B_h M)[h, l]``, where ``B_l`` and ``B_h``
    enumerate each half, ``q_l`` and ``q_h`` are their own quadratic
    forms and ``M = 2 P_hl B_l^T``.  A block of ``rows`` consecutive
    ``h`` (``_BLOCK_ENTRIES >> n_l``, at least one) against a piece of
    ``_PIECE_ROWS`` consecutive ``l`` costs one matrix product, of one
    or more blocks in increasing ``h``.  Its flat argmin, and the
    smaller ``m`` across products, break ties of the computed ``q``
    towards the smallest integer whose bit ``i`` equals ``v_i``.
    Patterns whose ``q`` tie in exact arithmetic can round apart, and
    then the least rounded value wins: on the equicorrelated
    ``rho = 0.5`` covariance at ``d = 12`` every single bit ties with
    the all-ones vector, and the search returns ``e_2``.

    Only the blocks that can hold the minimum are evaluated.  The search
    starts from the best pattern within one half, whose ``q`` the join
    gives exactly: ``q_l[l]`` or ``q_h[h]``.  A cell is a piece of
    ``_PIECE_ROWS`` patterns ``h`` (one block, if that is more) against
    a piece ``p`` of ``l``.  Every ``q(m)`` in it with high half ``h`` is
    at least ``q_h[h] + min_p q_l + sum_i B_h[h, i] min_p M[i, :]``, both
    minima over the piece's own ``l``; from that bound is taken a slack
    of ``1e-9 * (|q_h[h]| + max |q_l| + sum_i B_h[h, i] max |M[i, :]|)``,
    far above the rounding of either side.  A cell keeps the least of
    its bounds, over the ``h`` whose bound with the minima over all
    ``l`` is at most the starting ``q`` (the others hold nothing lower).
    Cells are evaluated in increasing order of that least bound, and the
    search stops at the first cell whose least bound lies above the best
    ``q`` found so far; within a cell, its blocks do the same.  A skipped
    block holds only values above one already computed, so the winner,
    its tie-break and its ``q`` are those of the full enumeration.

    Minima over all ``l`` at once bound loosely where ``P`` couples the
    halves strongly, since the ``l`` that minimizes ``q_l`` seldom
    minimizes a row of ``M``; a piece's own minima do not (bounds of
    this kind on ``min b^T P b`` over binary ``b``: Pardalos & Rodgers,
    Computing 45, 1990).  On seeds 0-19 of ``random_instance(35, seed)``
    the search takes at most 0.06 s and evaluates at most two blocks of
    one ``h`` against 1,024 ``l``.  One bound per ``h`` took up to 100 s
    there (seed 4), evaluating 65,538 blocks of one ``h`` against all
    262,144 ``l``.

    Neither the bit tables nor ``M`` are held whole: the halves'
    patterns are made a piece at a time, and a cell makes its ``h``
    rows, its ``l`` piece and that piece's columns of ``M`` when it is
    evaluated.  What the search keeps is ``q_l``, ``q_h`` and ``q_h``
    less the slack, a float per piece of ``l`` (``min_p q_l``) and per
    cell, ``min_p M[i, :]`` for each ``i`` and piece, and, while the
    bounds are made, the low bits' share of one piece of ``h`` against
    every piece of ``l``: 8.2 MB at ``d = 35``, where ``M`` alone would
    be 35.7 MB.  A block's product has the shape of the whole-``M``
    product over the same ``rows``, with fewer columns, and on every
    covariance checked it gives every entry the same double (a one-row
    block is a matrix-vector product, and so is the whole-``M`` one).

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
    # the low half a piece at a time: q_l, and each piece's minima of q_l
    # and of every row of its columns of M, which is then dropped
    width = min(_PIECE_ROWS, 1 << n_l)
    n_p = (1 << n_l) // width
    q_l = np.empty(1 << n_l)
    M_min = np.empty((n_h, n_p))
    M_max = np.empty((n_h, n_p))
    for l0, B in _pieces(n_l, width):
        q_l[l0 : l0 + width] = np.einsum("ij,ij->i", B @ P_l, B)
        M = P_hl @ B.T
        M.min(axis=1, out=M_min[:, l0 // width])
        M.max(axis=1, out=M_max[:, l0 // width])
    q_l_min = q_l.reshape(n_p, width).min(axis=1)
    q_l_least, M_row_min = q_l_min.min(), M_min.min(axis=1)
    # max |x| is max(max x, -min x)
    q_l_abs = max(q_l.max(), -q_l_least)
    M_abs = np.maximum(M_max.max(axis=1), -M_row_min)

    # a block's rows, and a cell's: a piece of h or one block
    rows = min(max(1, _BLOCK_ENTRIES >> n_l), 1 << n_h)
    height = max(min(_PIECE_ROWS, 1 << n_h), rows)
    q_h = np.empty(1 << n_h)
    floor = np.empty(1 << n_h)  # q_h less the slack of its bounds
    for h0, B in _pieces(n_h, height):
        q = np.einsum("ij,ij->i", B @ P_h, B)
        q_h[h0 : h0 + height] = q
        floor[h0 : h0 + height] = q - 1e-9 * (np.abs(q) + q_l_abs + B @ M_abs)

    # the search starts from the best pattern within one half: the join
    # gives q(l) = q_l[l] and q(h << n_l) = q_h[h] exactly, since a zero
    # row of B_h or a zero column of M adds only zeros; on equal q the
    # low half's pattern is the smaller integer
    best_m = 1 + int(np.argmin(q_l[1:]))
    best_q = float(q_l[best_m])
    if n_h:
        h = 1 + int(np.argmin(q_h[1:]))
        if q_h[h] < best_q:
            best_q, best_m = float(q_h[h]), h << n_l

    # the least lower bound of every cell, over its h whose bound with
    # the minima over all l is at most best_q (the others hold nothing
    # lower), the slack taken so no skipped block can hold a value at or
    # below one already computed.  B_h[h] @ M_min splits into the bits
    # that run through every piece of h, the same product in each, and
    # the piece's constant higher bits
    low_bits = height.bit_length() - 1
    M_min_low = _bit_rows(0, height, low_bits) @ M_min[:low_bits]
    cell_low = np.full(((1 << n_h) // height, n_p), np.inf)
    for h0, B in _pieces(n_h, height):
        top = floor[h0 : h0 + height]
        keep = np.flatnonzero(top + q_l_least + B @ M_row_min <= best_q)
        if keep.size:
            low = M_min_low[keep]
            low += top[keep, None]
            cell_low[h0 // height] = low.min(axis=0) + B[0] @ M_min
            del low  # not held while the next piece's is made
    cell_low += q_l_min
    cell_low = cell_low.ravel()

    # cells in increasing order of their least bound; in each, blocks in
    # increasing order of theirs, as many to a product as _BLOCK_ENTRIES
    # holds
    per_product = max(1, _BLOCK_ENTRIES // (rows * width))
    order = np.argsort(cell_low, kind="stable")
    h_pieces = _pieces(n_h, height, order // n_p * height)
    l_pieces = _pieces(n_l, width, order % n_p * width)
    for c, (h0, B_h), (l0, B_l) in zip(order, h_pieces, l_pieces):
        if cell_low[c] > best_q:
            break  # this cell and every later one lie above best_q
        p = l0 // width
        M = P_hl @ B_l.T
        low = floor[h0 : h0 + height] + B_h @ M_min[:, p]
        low = low.reshape(-1, rows).min(axis=1) + q_l_min[p]
        B_h = B_h.reshape(height // rows, rows, n_h)
        q_hb = q_h[h0 : h0 + height].reshape(-1, rows, 1)
        blocks = np.argsort(low, kind="stable")
        for j in range(0, blocks.size, per_product):
            chunk = blocks[j : j + per_product]
            # in increasing h, so the flat argmin is the smallest m
            chunk = np.sort(chunk[low[chunk] <= best_q])
            if chunk.size == 0:
                break  # these blocks and every later one lie above best_q
            quad = B_h[chunk] @ M
            quad += q_hb[chunk]
            quad += q_l[l0 : l0 + width]
            if h0 == l0 == chunk[0] == 0:
                quad[0, 0, 0] = np.inf  # m = 0 is not a direction
            k = int(np.argmin(quad))
            block, k = divmod(k, rows * width)
            row, col = divmod(k, width)
            q = float(quad[block, row, col])
            m = ((h0 + int(chunk[block]) * rows + row) << n_l) + l0 + col
            # on equal q the smaller integer wins, whichever came first
            if q < best_q or (q == best_q and m < best_m):
                best_q, best_m = q, m
    v = ((best_m >> np.arange(n)) & 1).astype(float)
    return v, 1.0 / best_q
