"""Tensorized difference quadrature and dimension-adaptive sparse grids.

Multi-indices are plain tuples of nonnegative ints, one entry per
coordinate.  The difference operator in each coordinate is Q_j - Q_{j-1}
of a univariate rule sequence (with Q_{-1} = 0), and tensor products of
differences are summed either over a fixed total-degree index set or
adaptively, steered by the absolute value of each index's contribution.

Integrands are batched: a callable receiving an (n, d) array of points
and returning n values.  A tensor grid starts from a row of level-0
nodes, made once per run, and expands only the coordinates with a
positive level.  Each tensor-rule value Q_beta = w_beta . f(grid beta)
is computed once and kept, keyed by its level tuple, so the difference
for alpha is the signed sum of 2^k kept values (k the number of
positive entries).  This holds for nested and non-nested rule sequences
alike.  The adaptive loop calls the integrand once per accepted index,
on the grids of all the children that index admits.

Two cost counts are kept.  ``evaluations`` counts the nodes of the 2^k
difference grids of every index, repeats included, as if each
difference were evaluated on its own; it is what ``max_evals`` caps.
The integrand itself sees sum over alpha of |grid(alpha)| points, and
``distinct_points`` counts the distinct nodes among them from
per-coordinate counts of the nodes each level adds, without hashing
rows.  The error estimate ``eta`` is an exact running sum.

The total-degree-2 interpolant behind the control variate is kept as a
closed-form polynomial in which each term touches at most two
coordinates: monomial coefficients from one integrand call, evaluated
by two matrix products per block of rows.
"""

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteIntegrand
from .rules1d import MAX_ORDER, RuleSequence, gauss_hermite_sequence

DEFAULT_MAX_EVALS = 10**7
# rows per block of the interpolant's power table and product buffer:
# at d = 24 the two take 1.6 MB, less than a sampling block's points and
# exponent, so they do not set a control-variate worker's peak
_ROW_CHUNK = 1024


def _seq_list(seqs, d):
    if isinstance(seqs, RuleSequence):
        return [seqs] * d
    seqs = list(seqs)
    if len(seqs) != d:
        raise ValueError(f"need {d} rule sequences, got {len(seqs)}")
    return seqs


def _base_row(seqs):
    """The level-0 node of every coordinate, as one (d,) row."""
    return np.array([seq.rule(0).nodes[0] for seq in seqs])


def _tensor_block(levels, seqs, base):
    """Nodes (prod N, d) and weights (prod N,) of one tensor rule.

    Rows start as ``base``, the row of level-0 nodes, and only the
    coordinates with a positive level are expanded, the first of them
    slowest (meshgrid "ij" order).  Every level-0 rule is one node of
    weight exactly 1 (the Christoffel weight 1 / p_0^2), so the weights
    are the outer product of the expanded coordinates' weights alone.
    """
    rules = [(j, seqs[j].rule(lv)) for j, lv in enumerate(levels) if lv]
    pts = np.empty([len(r) for _, r in rules] + [base.shape[0]])
    pts[...] = base
    for i, (j, r) in enumerate(rules):
        pts[..., j] = r.nodes.reshape((-1,) + (1,) * (len(rules) - 1 - i))
    w = functools.reduce(np.multiply.outer, [r.weights for _, r in rules] or [np.ones(1)])
    return pts.reshape(w.size, base.shape[0]), w.reshape(-1)


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


def _evaluate_grids(f, level_list, seqs, base):
    """Evaluate ``f`` on the tensor grids of ``level_list`` in one call.

    Returns, per grid, its weights and values.
    """
    blocks = [_tensor_block(levels, seqs, base) for levels in level_list]
    pts = blocks[0][0] if len(blocks) == 1 else np.concatenate([p for p, _ in blocks])
    vals = _evaluate(f, pts)
    grids = []
    offset = 0
    for _, w in blocks:
        m = w.shape[0]
        grids.append((w, vals[offset : offset + m]))
        offset += m
    return grids


def _below(alpha):
    """The 2^k level tuples of alpha's difference, first positive coordinate slowest."""
    return itertools.product(*[(a, a - 1) if a else (0,) for a in alpha])


@functools.lru_cache(maxsize=None)
def _signs(k):
    # (-1)^(number of lowered coordinates), in the order of _below
    signs = (1.0,)
    for _ in range(k):
        signs = tuple(t for s in signs for t in (s, -s))
    return signs


class _TensorValues:
    """Tensor-rule values Q_beta = w_beta . f(grid beta), each computed once.

    ``values`` maps a level tuple to Q_beta; ``base`` is the row of
    level-0 nodes every grid starts from.
    """

    def __init__(self, f, seqs):
        self.f = f
        self.seqs = seqs
        self.base = _base_row(seqs)
        self.values = {}
        self._level_counts = {}

    def fill(self, level_list):
        """Evaluate the grids of ``level_list`` not kept yet, in one call."""
        missing = [levels for levels in level_list if levels not in self.values]
        if missing:
            grids = _evaluate_grids(self.f, missing, self.seqs, self.base)
            for levels, (w, vals) in zip(missing, grids):
                self.values[levels] = float(w @ vals)

    def delta(self, alpha):
        """Difference value for ``alpha``, from the kept values below it."""
        values = map(self.values.__getitem__, _below(alpha))
        signs = _signs(len(alpha) - alpha.count(0))
        return functools.reduce(operator.add, map(operator.mul, signs, values), 0.0)

    def counts(self, alpha):
        """Nodes of alpha's 2^k difference grids, and of grid(alpha) alone.

        The first count includes repeats.  The second counts the nodes of
        grid(alpha) in no grid registered before it, and holds when every
        grid below alpha is registered before alpha and none above it is,
        as in the adaptive loop.  A node of grid(alpha) that also lies in
        a registered grid beta lies in grid(min(alpha, beta)) too, so it
        is new exactly when each positive coordinate holds a node of its
        level that no lower level of that coordinate has.  Nodes compare
        by their bytes, as distinct rows would.
        """
        size = new = 1
        for seq, a in zip(self.seqs, alpha):
            if a:
                s, n = self._level_counts.get((seq, a)) or self._count_level(seq, a)
                size *= s
                new *= n
        return size, new

    def _count_level(self, seq, level):
        # keyed by the sequence, so coordinates that share one share the count
        lower = set()
        for lv in range(level):
            lower.update(seq.rule(lv).nodes.view(np.uint64).tolist())
        fresh = set(seq.rule(level).nodes.view(np.uint64).tolist()) - lower
        counts = (seq.size(level) + seq.size(level - 1), len(fresh))
        self._level_counts[(seq, level)] = counts
        return counts


def total_degree_indices(d, q):
    """All multi-indices with |alpha|_1 <= q, lexicographically sorted."""
    if d == 1:
        return [(a,) for a in range(q + 1)]
    out = []
    for head in range(q + 1):
        for tail in total_degree_indices(d - 1, q - head):
            out.append((head,) + tail)
    return out


@dataclass
class AdaptiveState:
    """Index sets and bookkeeping of the dimension-adaptive loop.

    ``old_set`` is the accepted (admissible) region and ``active`` maps
    each frontier index to its local estimator g_alpha = |delta
    contribution|.  ``value`` is the accumulated quadrature sum over
    old and active indices, ``eta`` the global estimate sum(g) over the
    active set, kept as an exact running sum: it always equals
    ``math.fsum(active.values())``.  ``evaluations`` counts the nodes of
    the 2^k difference grids of every index, repeats included (the
    quantity ``max_evals`` caps); the integrand is called once per
    accepted index, on the grids of the indices it admits, and
    ``distinct_points`` counts the distinct nodes of the grids of old
    and active indices.  ``tol`` is the tolerance asked for (nan if
    unset) and ``status`` how the run ended: ``"ok"``, ``"saturated"``
    at the rule-order cap or ``"BudgetExhausted"`` past ``max_evals``.
    """

    dim: int
    tol: float = math.nan
    old_set: set = field(default_factory=set)
    active: dict = field(default_factory=dict)
    value: float = 0.0
    eta: float = 0.0
    evaluations: int = 0
    distinct_points: int = 0
    status: str = "ok"

    def verify(self):
        """Raise ValueError if any structural invariant is broken."""
        overlap = self.old_set & set(self.active)
        if overlap:
            raise ValueError(f"old and active sets overlap: {sorted(overlap)[:3]}")

        def step(alpha, q, by):
            return alpha[:q] + (alpha[q] + by,) + alpha[q + 1 :]

        # every parent of an old or active index is old; no child of an active one is
        for alpha in itertools.chain(self.old_set, self.active):
            for q in range(self.dim):
                if alpha[q] > 0 and step(alpha, q, -1) not in self.old_set:
                    raise ValueError(f"index {alpha} lacks its parent {step(alpha, q, -1)}")
                if alpha in self.active and step(alpha, q, 1) in self.old_set:
                    raise ValueError(f"active index {alpha} behind old {step(alpha, q, 1)}")
        total = math.fsum(self.active.values())
        if self.eta != total:
            raise ValueError(f"eta {self.eta!r} differs from the active sum {total!r}")


def admissible_children(alpha, old_set):
    """Forward neighbors of ``alpha`` whose parents are all accepted.

    A child alpha + e_k qualifies only if every backward neighbor is in
    ``old_set``; with ``alpha`` itself just accepted this is the standard
    admissibility check of the adaptive refinement rule.  The backward
    neighbor along k is ``alpha``; along any other q it is alpha - e_q +
    e_k, so only the positive coordinates of ``alpha`` need checking.
    """
    if alpha not in old_set:
        return []
    positive = [q for q, a in enumerate(alpha) if a]
    out = []
    for k in range(len(alpha)):
        ok = True
        for q in positive:
            if q != k:
                parent = list(alpha)
                parent[q] -= 1
                parent[k] += 1
                if tuple(parent) not in old_set:
                    ok = False
                    break
        if ok:
            out.append(alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :])
    return out


def _add_exact(partials, x):
    """Add ``x`` to Shewchuk partials whose exact sum is a running total.

    The partials are nonoverlapping and increasing in magnitude, so
    ``math.fsum(partials)`` is the correctly rounded total.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def adaptive_quadrature(
    f,
    d,
    tol,
    seqs,
    max_evals=DEFAULT_MAX_EVALS,
    trace=None,
):
    """Dimension-adaptive sparse-grid quadrature.

    Starting from the root index, repeatedly accepts the active index
    with the largest local estimator (ties: lexicographically smallest),
    then admits its forward neighbors whose parents are all accepted,
    accumulating each newcomer's contribution.  Stops once the sum of
    active estimators drops to ``tol``.  The root is always expanded
    once, so an integrand vanishing at the center cannot cause a
    spurious immediate return.  If the index about to be accepted
    would admit a child needing a rule of more than ``MAX_ORDER`` nodes,
    the run stops "saturated" instead: that index stays active, its
    estimator in ``eta``, and no grid of that round is evaluated.

    The index set stays downward closed, so when an index is added every
    tensor value below it is already kept.  The integrand is called once
    per accepted index, on the grids of all the children it admits, and
    each difference is formed from kept values.  ``state.evaluations``
    still counts all 2^k difference grids of each index, repeats
    included, and the children are added one by one in order, with the
    budget checked after each; a batch stops at the first child over
    budget, so no grid past it is evaluated, and the run stops
    "BudgetExhausted" after that round.  ``eta`` is an exact running sum
    over the active set.

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
        Budget of difference-grid nodes (``state.evaluations``); the
        round that exceeds it is the last, and is not traced.
    trace : callable, optional
        Called as ``trace(state, alpha, g)`` after each acceptance round,
        with the accepted index ``alpha``, its local estimator ``g`` and
        the state once its admitted children are added.

    Returns
    -------
    (value, eta, state)
        On every stop; ``state.status`` is ``"ok"``, ``"saturated"`` or
        ``"BudgetExhausted"``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance {tol} must be positive and finite")
    if not 1 <= max_evals < math.inf:
        raise ValueError(f"max_evals {max_evals} must be at least 1 and finite")
    seqs = _seq_list(seqs, d)
    # the highest level of each coordinate whose rule fits the order cap
    top = [next(lv for lv in itertools.count() if seq.size(lv + 1) > MAX_ORDER) for seq in seqs]
    state = AdaptiveState(dim=d, tol=tol)
    tensor = _TensorValues(f, seqs)
    heap = []
    partials = []  # eta as Shewchuk partials

    def add_indices(indices):
        # evaluate up to the first index over budget, then add in order
        counts = []
        evaluations = state.evaluations
        for alpha in indices:
            counts.append(tensor.counts(alpha))
            evaluations += counts[-1][0]
            if evaluations > max_evals:
                break
        tensor.fill(indices[: len(counts)])
        for alpha, (size, new) in zip(indices, counts):
            value = tensor.delta(alpha)
            state.evaluations += size
            state.distinct_points += new
            g = abs(value)
            state.active[alpha] = g
            state.value += value
            _add_exact(partials, g)
            heapq.heappush(heap, (-g, alpha))

    add_indices([(0,) * d])
    state.eta = math.fsum(partials)

    forced = True
    while state.active and (forced or state.eta > tol):
        forced = False
        _, alpha = heapq.heappop(heap)
        state.old_set.add(alpha)
        children = admissible_children(alpha, state.old_set)
        # only a coordinate where alpha is at its top level can take a child past it
        if any(map(operator.ge, alpha, top)) and any(
            any(map(operator.gt, child, top)) for child in children
        ):
            state.old_set.remove(alpha)
            state.status = "saturated"
            break
        g = state.active.pop(alpha)
        _add_exact(partials, -g)
        add_indices(children)
        state.eta = math.fsum(partials)
        if state.evaluations > max_evals:
            state.status = "BudgetExhausted"
            break
        if trace is not None:
            trace(state, alpha, g)
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
    matrix products per block of ``_ROW_CHUNK`` rows, built in a power
    table and a product buffer that each call allocates once, together
    the size of one 8,192-row block of points from a sampler.  The mean
    of g under the standard normal is the sum of c_alpha Q_alpha over
    the same values, which equals the matching total-degree quadrature
    of f.
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
    seqs = _seq_list(seq, d)
    grids = _evaluate_grids(f, list(coefficients), seqs, _base_row(seqs))

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
        n = points.shape[0]
        out = np.empty(n)
        # power table x^0 .. x^4, power-major, and low @ pair, one chunk each
        table = np.empty((min(n, _ROW_CHUNK), 5, d))
        table[:, 0] = 1.0
        mixed = np.empty((table.shape[0], 3 * d))
        for lo in range(0, n, _ROW_CHUNK):
            x = points[lo : lo + _ROW_CHUNK]
            m = x.shape[0]
            t = table[:m]
            t[:, 1] = x
            np.multiply(x, x, out=t[:, 2])
            np.multiply(t[:, 2], x, out=t[:, 3])
            np.multiply(t[:, 2], t[:, 2], out=t[:, 4])
            powers = t.reshape(m, 5 * d)
            low = powers[:, : 3 * d]
            np.matmul(low, pair, out=mixed[:m])
            quad = np.einsum("mi,mi->m", mixed[:m], low)
            out[lo : lo + m] = const + powers @ single + quad
        return out

    return g, math.fsum(weighted)
