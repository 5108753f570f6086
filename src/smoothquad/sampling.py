"""Sobol sequences, inverse normal transform, and seeded random sampling.

The Sobol generator is the plain unscrambled construction from embedded
direction numbers (dimensions up to 64), generated in Gray-code order
by the Antonov-Saleev recurrence: point i is point i-1 XOR the direction
numbers of bit c, where c is the number of trailing zeros of i, so a
chunk of points is one cumulative XOR down its rows.  By default the
all-zeros index is skipped so every coordinate lies strictly inside
(0, 1).  The inverse normal transform is ``scipy.special.ndtri`` behind
a domain check.

This module loads the package's two special functions, ``ndtri`` here
and ``ndtr`` for ``pricing``, once at import, straight from scipy's
compiled ``scipy.special._ufuncs``.  Running ``scipy/special/__init__.py``
would also load scipy's array-API layer, which imports ``numpy.testing``
and ``numpy.f2py`` and about doubles the package's import time.  The
objects are the ufuncs ``scipy.special`` exports by default, so no value
differs, and a later ``import scipy.special`` builds the package around
them with every name a plain import gives but ``_ufuncs_cxx``.

Pseudo-random sampling goes through counter-based Philox streams keyed
by (base_seed, stream_id), so runs are reproducible under any thread
scheduling: the same spec always yields the same draws.
"""

import functools
import importlib
import operator
import os
import sys
import types
from dataclasses import dataclass, replace

import numpy as np

from ._sobol_table import DIRECTION_DATA, SOBOL_MAX_DIM
from .errors import DimensionTooLarge, OutOfDomain

_BITS = 32
_SCALE = float(2.0**-_BITS)


def _scipy_ufuncs():
    """``scipy.special``'s ``ndtr`` and ``ndtri``, without its ``__init__``.

    They are taken from ``scipy.special._ufuncs`` on every path, so they
    are the plain ufuncs whatever was imported first, even where
    ``SCIPY_ARRAY_API=1`` makes ``scipy.special`` export wrappers.  A
    loaded ``_ufuncs`` is used as it is.  Otherwise a bare
    ``scipy.special`` module, holding only the directory as its
    ``__path__``, stands in while ``_ufuncs`` loads, so the extension
    finds its compiled siblings there; the stand-in and every submodule
    loaded under it are then removed from ``sys.modules``.  A later
    ``import scipy.special`` finds them missing and imports them again,
    so its namespace is the one a plain import gives, short of
    ``_ufuncs_cxx``: only ``_ufuncs``'s first run imports that, and an
    extension module is not run twice in a process.  A scipy whose
    extensions need more than that gets the package imported in full.
    """
    ufuncs = sys.modules.get("scipy.special._ufuncs")
    if ufuncs is None:
        try:
            ufuncs = _load_ufuncs_module()
        except ImportError:
            from scipy.special import _ufuncs as ufuncs
    return ufuncs.ndtr, ufuncs.ndtri


def _load_ufuncs_module():
    import scipy

    loaded = set(sys.modules)
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
    sys.modules["scipy.special"] = stub
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        # the submodules loaded under the stub are forgotten too, so a later
        # import of scipy.special imports them as its own attributes
        for name in set(sys.modules) - loaded:
            if name.startswith("scipy.special."):
                del sys.modules[name]
        # scipy's module __getattr__ imports any submodule it is asked for,
        # so the stub is looked up in the dicts, never as an attribute
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]
        if scipy.__dict__.get("special") is stub:
            del scipy.__dict__["special"]


ndtr, ndtri = _scipy_ufuncs()


@functools.lru_cache(maxsize=None)
def _direction_matrix(dim: int) -> np.ndarray:
    """Direction numbers as a (32, dim) uint64 matrix; row b holds bit b's numbers."""
    v = np.zeros((_BITS, dim), dtype=np.uint64)
    # first coordinate: van der Corput, m_k = 1 for every k
    for b in range(_BITS):
        v[b, 0] = np.uint64(1 << (_BITS - 1 - b))
    for col in range(1, dim):
        s, a, m = DIRECTION_DATA[col - 1]
        for b in range(min(s, _BITS)):
            v[b, col] = np.uint64(m[b] << (_BITS - 1 - b))
        for b in range(s, _BITS):
            acc = int(v[b - s, col])
            acc ^= acc >> s
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    acc ^= int(v[b - i, col])
            v[b, col] = np.uint64(acc)
    v.setflags(write=False)
    return v


class SobolStream:
    """Sequential Sobol point source for one fixed dimension.

    Successive calls to :meth:`points` continue the sequence, so a long
    quasi-Monte Carlo run can be consumed in chunks without storing all
    points at once.  A chunk starting at index s holds the Gray-code
    point of s in its first row and, in row k, the direction numbers of
    the lowest set bit of s + k; an in-place cumulative XOR down the
    rows turns these into the points, with no loop over bits.

    Each chunk's points are written as floats over the uint64 array
    they were built in, so a chunk takes one array.  With ``block`` set,
    the stream allocates that array once, ``block`` rows, and every
    chunk of at most that many points is built in it: :meth:`points`
    then returns a view that the next call overwrites, and a caller
    streaming blocks allocates nothing per call.  Without it every
    chunk is a new array.
    """

    def __init__(self, dim: int, start: int = 1, block=None):
        if not 1 <= dim <= SOBOL_MAX_DIM:
            raise DimensionTooLarge(
                f"sobol dimension {dim} outside [1, {SOBOL_MAX_DIM}]"
            )
        if start < 0:
            raise ValueError(f"start index {start} is negative")
        if block is not None and block < 1:
            raise ValueError(f"block of {block} rows is not positive")
        self.dim = dim
        self.next_index = start
        self._v = _direction_matrix(dim)
        self._block = block
        if block is not None:
            self._ints = np.empty((block, dim), dtype=np.uint64)

    def points(self, n: int) -> np.ndarray:
        """Next ``n`` points as an (n, dim) array in [0, 1)^dim."""
        if n < 0:
            raise ValueError(f"point count {n} is negative")
        start = self.next_index
        if start + n > 1 << _BITS:
            raise ValueError("sobol index space of 2^32 points exhausted")
        if self._block is None:
            ints = np.empty((n, self.dim), dtype=np.uint64)
        elif n <= self._block:
            ints = self._ints[:n]
        else:
            raise ValueError(f"{n} points do not fit the stream's {self._block}-row block")
        if n:
            gray = start ^ (start >> 1)
            bits = [b for b in range(_BITS) if gray >> b & 1]
            ints[0] = np.bitwise_xor.reduce(self._v[bits], axis=0)
            idx = np.arange(start + 1, start + n, dtype=np.int64)
            # log2 of the lowest set bit is the trailing-zero count, exact below 2^32
            ctz = np.log2((idx & -idx).astype(np.float64)).astype(np.intp)
            # every index is in range; "clip" writes straight into ints, "raise" copies
            np.take(self._v, ctz, axis=0, out=ints[1:], mode="clip")
            del idx, ctz  # freed before the conversion, whose pieces then set the peak
            np.bitwise_xor.accumulate(ints, axis=0, out=ints)
        self.next_index += n
        # every row of ints is rebuilt on each call, so the floats can take its place, in
        # pieces of 1,024 rows: numpy copies an input that overlaps an output of another dtype
        for piece in np.split(ints, range(1024, n, 1024)):
            np.multiply(piece, _SCALE, out=piece.view(np.float64))
        return ints.view(np.float64)


def inv_norm_cdf(p, out=None):
    """Quantile of the standard normal distribution (``scipy.special.ndtri``).

    Accepts a scalar or an array with every entry in the open interval
    (0, 1); the return type matches.  ``out``, as in numpy, is an array
    to write the quantiles into; it may be ``p`` itself.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise OutOfDomain("inverse normal CDF needs probabilities in (0, 1)")
    x = ndtri(arr, out=out)
    if np.isscalar(p) or arr.ndim == 0:
        return float(x)
    return x


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream pair identifying one reproducible random stream.

    Both are unsigned 64-bit integers, the two halves of the Philox key,
    so distinct specs never share a stream.
    """

    base_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("base_seed", "stream_id"):
            value = operator.index(getattr(self, name))
            if not 0 <= value < 1 << 64:
                raise ValueError(f"{name} {value} is outside [0, 2^64)")

    def generator(self) -> np.random.Generator:
        """Fresh generator; equal specs always produce equal draws."""
        key = (int(self.base_seed) << 64) | int(self.stream_id)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "RngSpec":
        """Same base seed, different stream."""
        return replace(self, stream_id=stream_id)
