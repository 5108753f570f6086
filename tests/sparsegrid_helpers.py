"""Sparse-grid oracles that only the tests call.

``delta_tensor`` applies one multi-index's difference operator on its
own, and ``total_degree_quadrature`` sums a fixed total-degree index
set; both reuse the package's tensor-value store, so the tests check the
difference operator and the interpolant's mean against them.
"""

import math

from smoothquad.sparsegrid import _below, _seq_list, _TensorValues, total_degree_indices


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
    tensor = _TensorValues(f, _seq_list(seqs, len(alpha)))
    tensor.fill(list(_below(alpha)))
    return tensor.delta(alpha), tensor.counts(alpha)[0]


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
    return math.fsum(tensor.delta(alpha) for alpha in indices)
