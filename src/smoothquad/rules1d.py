"""Univariate quadrature rules for Gaussian and Gamma weights.

All rules integrate against probability densities, so weights always sum
to one.  Three families are provided:

* Gauss-Hermite for the standard normal weight,
* the Genz-Keister sequence, read from a table: the nested levels 0..4
  with 1, 3, 9, 19 and 35 nodes, then the 71- and 143-node Gauss-Hermite
  rules as levels 5 and 6, the last that fit ``MAX_ORDER``,
* generalized Gauss-Laguerre for the Gamma(alpha+1, 1) weight
  u^alpha e^-u / Gamma(alpha+1).

Gauss-Hermite and Laguerre nodes and weights come from the Golub-Welsch
eigenproblem, solved with ``numpy.linalg.eigh`` and then Newton-polished.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ._gk_table import GK_NODES, GK_SIZES, GK_WEIGHTS
from .errors import AlphaOutOfRange, OrderOutOfRange

MAX_ORDER = 200

GAUSS_HERMITE = "gauss-hermite"
GENZ_KEISTER = "genz-keister"
GENERALIZED_LAGUERRE = "generalized-laguerre"


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and matching weights of a univariate rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.nodes.shape[0]


def _golub_welsch(diag, offdiag_ext) -> QuadratureRule:
    """Gauss rule from a three-term recurrence.

    ``diag`` holds a_0 .. a_{n-1} and ``offdiag_ext`` holds b_1 .. b_n of
    the orthonormal recurrence x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k
    p_{k-1}; the extra coefficient b_n lets the refinement step evaluate
    p_n itself.  Nodes start as eigenvalues of the truncated Jacobi
    matrix and are polished below.
    """
    off = offdiag_ext[:-1]
    J = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, Q = np.linalg.eigh(J)
    weights = Q[0] ** 2
    nodes, weights = _refine_rule(nodes, weights, np.asarray(diag), np.asarray(offdiag_ext))
    return QuadratureRule(nodes=nodes, weights=weights)


def _refine_rule(nodes, weights, diag, offdiag_ext):
    """Newton-polish eigenvalue nodes and rebuild weights.

    Eigenvector-based weights are only absolutely accurate, which ruins
    the relative accuracy of the tiny tail weights.  Re-deriving each
    weight from the Christoffel function 1 / sum_k p_k(x)^2 restores
    relative accuracy at every magnitude.  Where the polynomial values
    overflow (extreme Laguerre tails) the true weight underflows, so the
    weight is set to zero; a non-finite Newton step keeps the eigenvalue
    node.

    Each pass carries p_k and p'_k as the two rows of one array, in
    three buffers that take turns as p_{k-1}, p_k and p_{k+1}, with
    every x - a_k made in one call per pass; the Christoffel sum is
    formed on the last pass only, the one whose nodes it was always
    taken at.  The floating-point operations, and their order, are those
    of a loop over p_k and p'_k separately.
    """
    n = nodes.shape[0]
    # b_k and b_{k+1} (b_0 = 0) as 0-d arrays, which numpy multiplies by
    # faster than by floats
    b_lo = [np.array(0.0), *map(np.array, offdiag_ext[:-1])]
    b_hi = list(map(np.array, offdiag_ext))
    x = nodes.copy()
    prev, cur, nxt = np.empty((2, n)), np.empty((2, n)), np.empty((2, n))
    shifted = np.empty((n, 2, n))
    square = np.empty(n)
    chris = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for last in (False, False, True):
            # row k holds x - a_k twice, one for p_k and one for p'_k
            np.subtract(x, diag[:, None, None], out=shifted)
            prev[...] = 0.0
            cur[0] = 1.0
            cur[1] = 0.0
            for s_k, b_k, b_next in zip(shifted, b_lo, b_hi):
                if last:
                    np.multiply(cur[0], cur[0], out=square)
                    chris += square
                # (s_k p_k - b_k p_{k-1}, s_k p'_k + p_k - b_k p'_{k-1}) / b_{k+1}
                np.multiply(cur, s_k, out=nxt)
                nxt[1] += cur[0]
                prev *= b_k
                nxt -= prev
                nxt /= b_next
                prev, cur, nxt = cur, nxt, prev
            step = cur[0] / cur[1]
            ok = np.isfinite(step) & (np.abs(step) <= 1e-6 * (1.0 + np.abs(x)))
            x = np.where(ok, x - step, x)
        refined = np.where(np.isfinite(chris), 1.0 / chris, 0.0)
    bad = ~np.isfinite(refined)
    if np.any(bad):
        refined[bad] = weights[bad]
    return x, refined


@functools.lru_cache(maxsize=None)
def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule with ``n`` nodes for the standard normal weight.

    Exact for polynomials up to degree ``2n - 1``.  The one-point rule is
    the midpoint {0} with weight 1; three points give {-sqrt(3), 0,
    sqrt(3)} with weights {1/6, 2/3, 1/6}.
    """
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"gauss_hermite order {n} outside [1, {MAX_ORDER}]")
    diag = np.zeros(n)
    offdiag_ext = np.sqrt(np.arange(1.0, n + 1.0))
    return _golub_welsch(diag, offdiag_ext)


def _gk_size(level: int) -> int:
    if level < len(GK_SIZES):
        return GK_SIZES[level]
    n = GK_SIZES[-1]
    for _ in range(level - len(GK_SIZES) + 1):
        n = 2 * n + 1
    return n


@functools.lru_cache(maxsize=None)
def genz_keister(level: int) -> QuadratureRule:
    """Rule for the standard normal weight at the given level, from the table.

    Levels 0..4 are the nested rules (1, 3, 9, 19, 35 nodes with degrees
    1, 5, 15, 29, 51).  Levels 5 and 6 continue the odd growth 2N+1 with
    the Gauss-Hermite rules of 71 and 143 nodes, stored as the doubles
    ``gauss_hermite`` gives for them; level 7 (287 nodes) is past
    ``MAX_ORDER`` and raises ``OrderOutOfRange``.
    """
    if not 0 <= level < len(GK_SIZES):
        raise OrderOutOfRange(
            f"genz_keister level {level} outside [0, {len(GK_SIZES) - 1}]"
        )
    return QuadratureRule(
        nodes=_parse_doubles(GK_NODES[level]), weights=_parse_doubles(GK_WEIGHTS[level])
    )


def _parse_doubles(text: str) -> np.ndarray:
    """The doubles of a table string of space-separated reprs, bit for bit."""
    return np.array([float(x) for x in text.split()])


@functools.lru_cache(maxsize=None)
def gauss_laguerre_generalized(n: int, alpha: float) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the Gamma(alpha+1, 1) density.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 200.
    alpha : float
        Exponent of the weight u^alpha e^-u / Gamma(alpha+1); must be
        greater than -1.

    Returns
    -------
    QuadratureRule
        Positive, strictly increasing nodes; weights summing to one.
    """
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(
            f"gauss_laguerre_generalized order {n} outside [1, {MAX_ORDER}]"
        )
    alpha = float(alpha)
    if not alpha > -1.0:
        raise AlphaOutOfRange(f"alpha = {alpha} must be > -1")
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    j = np.arange(1.0, n + 1.0)
    offdiag_ext = np.sqrt(j * (j + alpha))
    return _golub_welsch(diag, offdiag_ext)


@dataclass(frozen=True)
class RuleSequence:
    """A growing family of rules {Q_0, Q_1, ...} for one coordinate.

    ``kind`` selects the rule family, ``alpha`` is only meaningful for
    the generalized-Laguerre family.  Sizes are strictly increasing in
    the level and the level-0 rule has a single node, so difference
    operators of consecutive levels are always well defined.
    """

    kind: str
    alpha: float | None = None

    def size(self, level: int) -> int:
        if level < 0:
            raise OrderOutOfRange(f"level {level} is negative")
        if self.kind == GAUSS_HERMITE:
            return 2 * level + 1
        if self.kind == GENZ_KEISTER:
            return _gk_size(level)
        return level + 1

    def rule(self, level: int) -> QuadratureRule:
        if self.kind == GAUSS_HERMITE:
            return gauss_hermite(self.size(level))
        if self.kind == GENZ_KEISTER:
            return genz_keister(level)
        return gauss_laguerre_generalized(self.size(level), self.alpha)


def gauss_hermite_sequence() -> RuleSequence:
    """Gauss-Hermite sequence with sizes 1, 3, 5, ... (2j+1)."""
    return RuleSequence(kind=GAUSS_HERMITE)


def genz_keister_sequence() -> RuleSequence:
    """Nested normal-weight sequence with sizes 1, 3, 9, 19, 35, 71, ..."""
    return RuleSequence(kind=GENZ_KEISTER)


def laguerre_sequence(alpha: float) -> RuleSequence:
    """Generalized-Laguerre sequence with linear size growth 1, 2, 3, ..."""
    if not float(alpha) > -1.0:
        raise AlphaOutOfRange(f"alpha = {alpha} must be > -1")
    return RuleSequence(kind=GENERALIZED_LAGUERRE, alpha=float(alpha))
