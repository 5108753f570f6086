"""Tensorized difference quadrature and dimension-adaptive sparse grids.

Multi-indices are plain tuples of nonnegative ints, one entry per
coordinate.  The difference operator in each coordinate is Q_j - Q_{j-1}
of a univariate rule sequence (with Q_{-1} = 0), and tensor products of
differences are summed either over a fixed total-degree index set or
adaptively, steered by the absolute value of each index's contribution.

Integrands are batched: a callable receiving an (n, d) array of points
and returning n values.  A tensor grid expands only the coordinates
whose rule has more than one node; every other coordinate sits at its
single node.  Each tensor-rule value Q_beta = w_beta . f(grid beta) is
computed once and kept, keyed by its level tuple, so the difference for
alpha is the signed sum of 2^k kept values (k the number of positive
entries).  This holds for nested and non-nested rule sequences alike.

Two cost counts are kept.  ``evaluations`` counts the nodes of the 2^k
difference grids of every index, repeats included, as if each
difference were evaluated on its own; it is what ``max_evals`` caps.
The integrand itself is called on sum over alpha of |grid(alpha)|
points, once per new tensor grid, and ``distinct_points`` counts the
distinct nodes among them.

The total-degree-2 interpolant behind the control variate is kept as a
closed-form polynomial in which each term touches at most two
coordinates: monomial coefficients from one integrand call, evaluated
by two matrix products per block of rows.
"""

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExhausted, NonFiniteIntegrand
from .rules1d import RuleSequence, gauss_hermite_sequence

DEFAULT_MAX_EVALS = 10**7
# rows per block of the interpolant's power tables
_ROW_CHUNK = 2048


def _seq_list(seqs, d):
    if isinstance(seqs, RuleSequence):
        return [seqs] * d
    seqs = list(seqs)
    if len(seqs) != d:
        raise ValueError(f"need {d} rule sequences, got {len(seqs)}")
    return seqs


def _tensor_block(levels, seqs):
    """Nodes (prod N, d) and weights (prod N,) of one tensor rule.

    Only the coordinates whose rule has more than one node are expanded;
    the other columns hold their rule's single node.
    """
    rules = [seqs[j].rule(lv) for j, lv in enumerate(levels)]
    wide = [j for j, r in enumerate(rules) if len(r) > 1]
    single = math.prod(float(r.weights[0]) for r in rules if len(r) == 1)
    pts = np.array([[r.nodes[0] for r in rules]])
    w = np.array(single)
    if wide:
        grids = np.meshgrid(*[rules[j].nodes for j in wide], indexing="ij")
        pts = np.repeat(pts, grids[0].size, axis=0)
        for j, g in zip(wide, grids):
            pts[:, j] = g.reshape(-1)
            w = np.multiply.outer(w, rules[j].weights)
    return pts, w.reshape(-1)


def _evaluate(f, pts):
    vals = np.asarray(f(pts), dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise ValueError(
            f"integrand returned {vals.shape[0]} values for {pts.shape[0]} points"
        )
    finite = np.isfinite(vals)
    if not np.all(finite):
        where = int(np.argmin(finite))
        raise NonFiniteIntegrand(
            f"integrand returned {vals[where]}", node=tuple(pts[where])
        )
    return vals


def _evaluate_grids(f, level_list, seqs):
    """Evaluate ``f`` on the tensor grids of ``level_list`` in one call.

    Returns the stacked points and, per grid, its weights and values.
    """
    blocks = [_tensor_block(levels, seqs) for levels in level_list]
    pts = blocks[0][0] if len(blocks) == 1 else np.vstack([p for p, _ in blocks])
    vals = _evaluate(f, pts)
    grids = []
    offset = 0
    for _, w in blocks:
        m = w.shape[0]
        grids.append((w, vals[offset : offset + m]))
        offset += m
    return pts, grids


class _TensorValues:
    """Tensor-rule values Q_beta = w_beta . f(grid beta), each computed once.

    ``values`` maps a level tuple to (Q_beta, |grid beta|); ``points``
    holds every node the integrand has seen, as row bytes.
    """

    def __init__(self, f, seqs):
        self.f = f
        self.seqs = seqs
        self.values = {}
        self.points = set()

    def fill(self, level_list):
        """Evaluate the grids of ``level_list`` not kept yet, in one call."""
        missing = [levels for levels in level_list if levels not in self.values]
        if not missing:
            return
        pts, grids = _evaluate_grids(self.f, missing, self.seqs)
        for levels, (w, vals) in zip(missing, grids):
            self.values[levels] = (float(w @ vals), w.shape[0])
        row_bytes = np.dtype((np.void, pts.itemsize * pts.shape[1]))
        self.points.update(np.ascontiguousarray(pts).view(row_bytes).ravel().tolist())

    def delta(self, alpha):
        """Difference value for ``alpha`` and the node count of its 2^k grids."""
        active = [j for j, a in enumerate(alpha) if a > 0]
        terms = []
        for drops in itertools.product((0, 1), repeat=len(active)):
            levels = list(alpha)
            sign = 1.0
            for j, drop in zip(active, drops):
                if drop:
                    levels[j] -= 1
                    sign = -sign
            terms.append((sign, tuple(levels)))
        self.fill([levels for _, levels in terms])
        total = 0.0
        evals = 0
        for sign, levels in terms:
            value, size = self.values[levels]
            total += sign * value
            evals += size
        return total, evals


def delta_tensor(f, alpha, seqs):
    """Apply the tensorized difference operator for one multi-index.

    Expands every coordinate with alpha_j > 0 into Q_j - Q_{j-1}, so the
    integrand is evaluated on 2^k tensor grids (k the number of positive
    entries), all batched into a single call.

    Returns
    -------
    (value, evaluations)
        The signed combination and the number of nodes of the 2^k grids.
    """
    alpha = tuple(alpha)
    return _TensorValues(f, _seq_list(seqs, len(alpha))).delta(alpha)


def total_degree_indices(d, q):
    """All multi-indices with |alpha|_1 <= q, lexicographically sorted."""
    if d == 1:
        return [(a,) for a in range(q + 1)]
    out = []
    for head in range(q + 1):
        for tail in total_degree_indices(d - 1, q - head):
            out.append((head,) + tail)
    return out


def total_degree_quadrature(f, d, q, seqs):
    """Sparse-grid quadrature over the index set {|alpha|_1 <= q}.

    Every tensor grid of the index set is evaluated once, all in one
    batched call.
    """
    if q < 0:
        raise ValueError(f"total degree {q} is negative")
    indices = total_degree_indices(d, q)
    tensor = _TensorValues(f, _seq_list(seqs, d))
    tensor.fill(indices)
    return math.fsum(tensor.delta(alpha)[0] for alpha in indices)


@dataclass
class AdaptiveState:
    """Index sets and bookkeeping of the dimension-adaptive loop.

    ``old_set`` is the accepted (admissible) region, ``active`` maps each
    frontier index to its local estimator g_alpha = |delta contribution|,
    and ``contributions`` keeps the signed contribution of every index
    examined so far.  ``value`` is the accumulated quadrature sum over
    old and active indices, ``eta`` the global estimate sum(g) over the
    active set.  ``evaluations`` counts the nodes of the 2^k difference
    grids of every index, repeats included (the quantity ``max_evals``
    caps); the integrand is called only on each index's own grid, and
    ``distinct_points`` counts the distinct nodes it has seen.
    """

    dim: int
    old_set: set = field(default_factory=set)
    active: dict = field(default_factory=dict)
    contributions: dict = field(default_factory=dict)
    value: float = 0.0
    eta: float = 0.0
    evaluations: int = 0
    distinct_points: int = 0

    def verify(self):
        """Raise ValueError if any structural invariant is broken."""
        overlap = self.old_set & set(self.active)
        if overlap:
            raise ValueError(f"old and active sets overlap: {sorted(overlap)[:3]}")
        for alpha in self.old_set:
            for q in range(self.dim):
                if alpha[q] > 0:
                    parent = alpha[:q] + (alpha[q] - 1,) + alpha[q + 1 :]
                    if parent not in self.old_set:
                        raise ValueError(f"old set not admissible at {alpha}")
        for alpha in self.active:
            for q in range(self.dim):
                if alpha[q] > 0:
                    parent = alpha[:q] + (alpha[q] - 1,) + alpha[q + 1 :]
                    if parent not in self.old_set:
                        raise ValueError(f"active index {alpha} lacks parent")
                child = alpha[:q] + (alpha[q] + 1,) + alpha[q + 1 :]
                if child in self.old_set:
                    raise ValueError(f"active index {alpha} behind old {child}")
        total = math.fsum(self.active.values())
        if abs(self.eta - total) > 1e-12 * max(abs(total), 1e-300):
            raise ValueError(f"eta {self.eta} inconsistent with sum {total}")


def admissible_children(alpha, old_set):
    """Forward neighbors of ``alpha`` whose parents are all accepted.

    A child alpha + e_k qualifies only if every backward neighbor is in
    ``old_set``; with ``alpha`` itself just accepted this is the standard
    admissibility check of the adaptive refinement rule.
    """
    d = len(alpha)
    out = []
    for k in range(d):
        beta = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
        ok = True
        for q in range(d):
            if beta[q] > 0:
                parent = beta[:q] + (beta[q] - 1,) + beta[q + 1 :]
                if parent not in old_set:
                    ok = False
                    break
        if ok:
            out.append(beta)
    return out


def adaptive_quadrature(
    f,
    d,
    tol,
    seqs,
    max_evals=DEFAULT_MAX_EVALS,
    trace=None,
    audit=None,
):
    """Dimension-adaptive sparse-grid quadrature.

    Starting from the root index, repeatedly accepts the active index
    with the largest local estimator (ties: lexicographically smallest),
    then admits its forward neighbors whose parents are all accepted,
    accumulating each newcomer's contribution.  Stops once the sum of
    active estimators drops to ``tol``.  The root is always expanded
    once, so an integrand vanishing at the center cannot cause a
    spurious immediate return.

    The index set stays downward closed, so when an index alpha is added
    every tensor value below it is already kept: the integrand is called
    once, on grid(alpha) alone, and the difference is formed from the
    kept values.  ``state.evaluations`` still counts all 2^k difference
    grids of each index, repeats included.

    Parameters
    ----------
    f : callable
        Batched integrand mapping an (n, d) array to n values.
    d : int
        Dimension.
    tol : float
        Termination threshold for the estimator sum eta.
    seqs : RuleSequence or sequence of RuleSequence
        Univariate rule sequence per coordinate (one shared or d many).
    max_evals : int
        Budget of difference-grid nodes (``state.evaluations``);
        exceeding it raises BudgetExhausted carrying the partial state.
    trace : callable, optional
        Receives one formatted line per accepted index.
    audit : callable, optional
        Receives the state after every acceptance round (testing hook).

    Returns
    -------
    (value, eta, state)
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance {tol} must be positive")
    if max_evals < 1:
        raise ValueError(f"max_evals {max_evals} must be at least 1")
    seqs = _seq_list(seqs, d)
    state = AdaptiveState(dim=d)
    tensor = _TensorValues(f, seqs)

    def add_index(alpha):
        value, evals = tensor.delta(alpha)
        state.evaluations += evals
        state.distinct_points = len(tensor.points)
        g = abs(value)
        state.active[alpha] = g
        state.contributions[alpha] = value
        state.value += value
        heapq.heappush(heap, (-g, alpha))
        if state.evaluations > max_evals:
            state.eta = math.fsum(state.active.values())
            raise BudgetExhausted(
                f"{state.evaluations} evaluations exceed budget {max_evals}",
                state=state,
            )

    heap = []
    root = (0,) * d
    add_index(root)
    state.eta = math.fsum(state.active.values())

    forced = True
    while state.active and (forced or state.eta > tol):
        forced = False
        _, alpha = heapq.heappop(heap)
        g = state.active.pop(alpha)
        state.old_set.add(alpha)
        for beta in admissible_children(alpha, state.old_set):
            add_index(beta)
        state.eta = math.fsum(state.active.values())
        if trace is not None:
            trace(
                f"{alpha} | {g:.6e} | {state.evaluations} | {state.eta:.6e}"
            )
        if audit is not None:
            audit(state)
    return state.value, state.eta, state


def _combination_coefficient(d, r):
    # sum over binary offsets z with |z| <= r of (-1)^|z| C(d, |z|),
    # collapsed by the alternating-sum identity
    if r < 0:
        return 0
    if r >= d:
        return 0 if d >= 1 else 1
    return (-1) ** r * math.comb(d - 1, r)


def interpolant_total_degree(f, d, q=2):
    """Total-degree-2 sparse-grid interpolant and its exact Gaussian mean.

    The interpolant is the sum over |alpha|_1 <= 2 of tensorized
    interpolation differences on the one-per-level Gauss-Hermite grids
    (sizes 1, 3, 5), written in combination form as the sum of c_alpha
    times the tensor interpolant on grid(alpha).  Each term touches at
    most two coordinates, so it is the closed-form polynomial

        g(x) = c + sum_j p_j(x_j) + sum_{j<k} p_jk(x_j, x_k),

    with p_j of degree <= 4 and p_jk of degree <= 2 in each variable.
    All grid values come from one integrand call and become monomial
    coefficients through the inverse Vandermonde matrices of the 3- and
    5-node rules: a constant, a (5, d) array over the powers x_j^0 ...
    x_j^4 and a (3d, 3d) matrix over the stacked powers x_j^0, x_j^1,
    x_j^2 (power-major, so entry p d + j is x_j^p).  ``g`` is then two
    matrix products per block of ``_ROW_CHUNK`` rows.  The mean of g
    under the standard normal is the sum of c_alpha Q_alpha over the
    same values, which equals the matching total-degree quadrature of f.
    Only ``q`` = 2 is supported.

    Returns
    -------
    (g, mean)
        ``g`` maps an (n, d) array to n values; ``mean`` is E[g(Z)].
    """
    if q != 2:
        raise ValueError(f"total degree {q} is not supported; only 2 is")
    coefficients = {}
    for alpha in total_degree_indices(d, q):
        c = _combination_coefficient(d, q - sum(alpha))
        if c != 0:
            coefficients[alpha] = float(c)
    seq = gauss_hermite_sequence()
    _, grids = _evaluate_grids(f, list(coefficients), _seq_list(seq, d))

    # nodal values to monomial coefficients, for the 3- and 5-node rules
    inverse = {
        lv: np.linalg.inv(np.vander(seq.rule(lv).nodes, increasing=True)) for lv in (1, 2)
    }
    const = 0.0
    single = np.zeros((5, d))
    pair = np.zeros((3 * d, 3 * d))
    weighted = []
    for (alpha, c), (w, vals) in zip(coefficients.items(), grids):
        weighted.append(c * float(w @ vals))
        wide = [j for j, a in enumerate(alpha) if a > 0]
        if not wide:
            const += c * vals[0]
        elif len(wide) == 1:
            j = wide[0]
            single[: 2 * alpha[j] + 1, j] += c * (inverse[alpha[j]] @ vals)
        else:
            j, k = wide
            pair[j::d, k::d] += c * (inverse[1] @ vals.reshape(3, 3) @ inverse[1].T)
    single = single.reshape(-1)

    def g(points):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        out = np.empty(points.shape[0])
        for lo in range(0, points.shape[0], _ROW_CHUNK):
            x = points[lo : lo + _ROW_CHUNK]
            x2 = x * x
            powers = np.hstack([np.ones_like(x), x, x2, x2 * x, x2 * x2])
            low = powers[:, : 3 * d]
            quad = np.einsum("mi,mi->m", low @ pair, low)
            out[lo : lo + x.shape[0]] = const + powers @ single + quad
        return out

    return g, math.fsum(weighted)
