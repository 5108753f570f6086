"""Sobol sequences, inverse normal transform, and seeded random sampling.

The Sobol generator is the plain unscrambled construction from embedded
direction numbers (dimensions up to 64), generated in Gray-code order.
By default the all-zeros index is skipped so every coordinate lies
strictly inside (0, 1).  The inverse normal transform is
``scipy.special.ndtri`` behind a domain check.

Pseudo-random sampling goes through counter-based Philox streams keyed
by (base_seed, stream_id), so runs are reproducible under any thread
scheduling: the same spec always yields the same draws.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from ._sobol_table import DIRECTION_DATA, SOBOL_MAX_DIM
from .errors import DimensionTooLarge, OutOfDomain

_BITS = 32
_SCALE = float(2.0**-_BITS)
_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=None)
def _direction_matrix(dim: int) -> np.ndarray:
    """Direction numbers as a (dim, 32) uint64 matrix of bit columns."""
    v = np.zeros((dim, _BITS), dtype=np.uint64)
    # first coordinate: van der Corput, m_k = 1 for every k
    for b in range(_BITS):
        v[0, b] = np.uint64(1 << (_BITS - 1 - b))
    for row in range(1, dim):
        s, a, m = DIRECTION_DATA[row - 1]
        for b in range(min(s, _BITS)):
            v[row, b] = np.uint64(m[b] << (_BITS - 1 - b))
        for b in range(s, _BITS):
            acc = int(v[row, b - s])
            acc ^= acc >> s
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    acc ^= int(v[row, b - i])
            v[row, b] = np.uint64(acc)
    v.setflags(write=False)
    return v


class SobolStream:
    """Sequential Sobol point source for one fixed dimension.

    Successive calls to :meth:`points` continue the sequence, so a long
    quasi-Monte Carlo run can be consumed in chunks without storing all
    points at once.
    """

    def __init__(self, dim: int, start: int = 1):
        if not 1 <= dim <= SOBOL_MAX_DIM:
            raise DimensionTooLarge(
                f"sobol dimension {dim} outside [1, {SOBOL_MAX_DIM}]"
            )
        if start < 0:
            raise ValueError(f"start index {start} is negative")
        self.dim = dim
        self.next_index = start
        self._v = _direction_matrix(dim)

    def points(self, n: int) -> np.ndarray:
        """Next ``n`` points as an (n, dim) array in [0, 1)^dim."""
        if n < 0:
            raise ValueError(f"point count {n} is negative")
        if self.next_index + n > 1 << _BITS:
            raise ValueError("sobol index space of 2^32 points exhausted")
        idx = np.arange(self.next_index, self.next_index + n, dtype=np.uint64)
        gray = idx ^ (idx >> np.uint64(1))
        out = np.zeros((n, self.dim), dtype=np.uint64)
        for b in range(_BITS):
            hit = (gray >> np.uint64(b)) & np.uint64(1) == 1
            if np.any(hit):
                out[hit] ^= self._v[:, b]
        self.next_index += n
        return out.astype(np.float64) * _SCALE


def inv_norm_cdf(p):
    """Quantile of the standard normal distribution (``scipy.special.ndtri``).

    Accepts a scalar or an array with every entry in the open interval
    (0, 1); the return type matches.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise OutOfDomain("inverse normal CDF needs probabilities in (0, 1)")
    x = ndtri(arr)
    if np.isscalar(p) or arr.ndim == 0:
        return float(x)
    return x


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream pair identifying one reproducible random stream."""

    base_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.stream_id < 0:
            raise ValueError(f"stream_id {self.stream_id} is negative")

    def generator(self) -> np.random.Generator:
        """Fresh generator; equal specs always produce equal draws."""
        key = ((self.base_seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "RngSpec":
        """Same base seed, different stream."""
        return replace(self, stream_id=stream_id)
