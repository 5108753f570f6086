"""Sobol sequences, the inverse normal map, and seeded random streams."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from smoothquad import sampling
from smoothquad._sobol_table import DIRECTION_DATA
from smoothquad.errors import DimensionTooLarge, OutOfDomain


def reference_directions(dim):
    """Per-coordinate 32-bit direction numbers from the Joe-Kuo m-recurrence."""
    cols = [[1 << (31 - k) for k in range(32)]]
    for s, a, m_init in DIRECTION_DATA[: dim - 1]:
        m = list(m_init)
        for k in range(s, 32):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        cols.append([m[k] << (31 - k) for k in range(32)])
    return cols


def reference_points(dim, start, n):
    """Sobol points one index at a time: XOR the directions of the Gray code's bits."""
    cols = reference_directions(dim)
    rows = []
    for i in range(start, start + n):
        gray = i ^ (i >> 1)
        row = []
        for col in cols:
            x = 0
            for b in range(32):
                if gray >> b & 1:
                    x ^= col[b]
            row.append(x * 2.0**-32)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(n, dim)


class TestSobol:
    def test_first_point_is_center(self):
        np.testing.assert_array_equal(
            sampling.SobolStream(3).points(1), [[0.5, 0.5, 0.5]]
        )

    def test_first_three_points_dim2(self):
        pts = sampling.SobolStream(2).points(3)
        np.testing.assert_array_equal(
            pts, [[0.5, 0.5], [0.75, 0.25], [0.25, 0.75]]
        )

    def test_points_strictly_inside_unit_cube(self):
        pts = sampling.SobolStream(8).points(4096)
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    def test_dyadic_stratification(self):
        # aligned blocks of the raw sequence (start 0) put exactly one
        # point in every dyadic interval, in every coordinate
        for dim in (1, 2, 8):
            for k in (1, 4, 8, 12):
                n = 2**k
                pts = sampling.SobolStream(dim, start=0).points(n)
                cells = np.floor(pts * n).astype(int)
                for j in range(dim):
                    np.testing.assert_array_equal(
                        np.sort(cells[:, j]), np.arange(n)
                    )

    def test_stream_chunks_match_one_shot(self):
        stream = sampling.SobolStream(5)
        chunks = np.vstack([stream.points(7), stream.points(93)])
        np.testing.assert_array_equal(chunks, sampling.SobolStream(5).points(100))
        assert stream.next_index == 101

    @pytest.mark.parametrize("dim", [1, 2, 8, 25, 64])
    @pytest.mark.parametrize("start", [0, 1, 7, 1000, 2**20 - 3])
    def test_matches_gray_code_reference(self, dim, start):
        # the second call runs across the next power of two above start + 2
        stream = sampling.SobolStream(dim, start)
        first = stream.points(2)
        cross = (1 << (start + 2).bit_length()) - (start + 2) + 3
        second = stream.points(cross)
        np.testing.assert_array_equal(first, reference_points(dim, start, 2))
        np.testing.assert_array_equal(second, reference_points(dim, start + 2, cross))
        assert stream.points(0).shape == (0, dim)

    def test_block_stream_reuses_its_arrays(self):
        stream, fresh = sampling.SobolStream(25, block=100), sampling.SobolStream(25)
        first = stream.points(100)
        np.testing.assert_array_equal(first, fresh.points(100))
        for n in (37, 0, 100):
            pts = stream.points(n)
            assert n == 0 or np.shares_memory(pts, first)
            np.testing.assert_array_equal(pts, fresh.points(n))
        with pytest.raises(ValueError):
            stream.points(101)
        assert stream.next_index == fresh.next_index
        with pytest.raises(ValueError):
            sampling.SobolStream(2, block=0)

    def test_conversion_copies_no_whole_block(self):
        # numpy copies an input overlapping an output of another dtype, so the
        # floats are written in pieces: one whole 8,192 x 24 block is 1.57 MB
        stream = sampling.SobolStream(24, block=8192)
        stream.points(8192)
        tracemalloc.start()
        try:
            pts = stream.points(8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4e6
        # rows on both sides of the pieces' edges, against the Gray-code reference
        for lo in (1020, 2045, 8180):
            np.testing.assert_array_equal(pts[lo : lo + 12], reference_points(24, 8193 + lo, 12))

    def test_top_of_index_space(self):
        stream = sampling.SobolStream(3, 2**32 - 4)
        np.testing.assert_array_equal(stream.points(4), reference_points(3, 2**32 - 4, 4))
        with pytest.raises(ValueError):
            stream.points(1)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            sampling.SobolStream(65).points(1)
        with pytest.raises(DimensionTooLarge):
            sampling.SobolStream(0)

    def test_max_dimension_works(self):
        pts = sampling.SobolStream(64).points(16)
        assert pts.shape == (16, 64)
        assert np.all((pts > 0.0) & (pts < 1.0))


class TestInvNormCdf:
    def test_median(self):
        assert sampling.inv_norm_cdf(0.5) == 0.0

    def test_known_quantile(self):
        assert sampling.inv_norm_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        ps = np.concatenate(
            [
                rng.uniform(1e-12, 1.0 - 1e-12, 20000),
                10.0 ** rng.uniform(-280.0, -1.0, 2000),
                1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 2000),
            ]
        )
        x = sampling.inv_norm_cdf(ps)
        assert np.max(np.abs(ndtr(x) - ps)) <= 1e-13

    def test_symmetry(self):
        ps = np.array([0.123, 0.3, 0.0004, 0.49])
        left = sampling.inv_norm_cdf(ps)
        right = sampling.inv_norm_cdf(1.0 - ps)
        np.testing.assert_allclose(left, -right, atol=1e-13)

    def test_monotone(self):
        grid = np.linspace(1e-9, 1.0 - 1e-9, 20001)
        vals = sampling.inv_norm_cdf(grid)
        assert np.all(np.diff(vals) > 0.0)

    def test_roundtrip_inside_six_sigma(self):
        # feed well-scaled left-tail probabilities; the mirrored side is
        # identical by the symmetry reduction
        xs = np.linspace(-6.0, 0.0, 5001)
        back = sampling.inv_norm_cdf(ndtr(xs))
        assert np.max(np.abs(back - xs)) <= 1e-10

    def test_domain_guard(self):
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfDomain):
                sampling.inv_norm_cdf(bad)
        for bad in ([0.4, 1.0], [0.4, math.nan, 0.6]):
            with pytest.raises(OutOfDomain):
                sampling.inv_norm_cdf(np.array(bad))

    def test_writes_in_place(self):
        ps = np.linspace(0.01, 0.99, 99)
        expected = sampling.inv_norm_cdf(ps)
        out = sampling.inv_norm_cdf(ps, out=ps)
        assert out is ps
        np.testing.assert_array_equal(out, expected)
        bad = np.array([0.5, 1.0])
        with pytest.raises(OutOfDomain):
            sampling.inv_norm_cdf(bad, out=bad)
        np.testing.assert_array_equal(bad, [0.5, 1.0])

    def test_scalar_in_scalar_out(self):
        assert isinstance(sampling.inv_norm_cdf(0.25), float)
        assert sampling.inv_norm_cdf(np.array([0.25, 0.5])).shape == (2,)


class TestRngStreams:
    def test_normal_vector_deterministic(self):
        spec = sampling.RngSpec(base_seed=42, stream_id=3)
        first = spec.generator().standard_normal(16)
        second = spec.generator().standard_normal(16)
        np.testing.assert_array_equal(first, second)

    def test_streams_are_distinct(self):
        spec = sampling.RngSpec(base_seed=42)
        a = spec.generator().standard_normal(16)
        b = spec.stream(1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_empty_vector(self):
        assert sampling.RngSpec(1).generator().standard_normal(0).shape == (0,)

    def test_normal_moments(self):
        z = sampling.RngSpec(7).generator().standard_normal(10**6)
        assert abs(z.mean()) <= 4e-3
        assert abs(z.var() - 1.0) <= 0.01

    def test_gamma_moments(self):
        g = sampling.RngSpec(11).generator().gamma(2.0, 0.5, 10**6)
        assert g.mean() == pytest.approx(1.0, abs=5e-3)
        assert g.var() == pytest.approx(0.5, abs=0.01)
        assert np.all(g > 0.0)

    def test_gamma_process_mean_is_horizon(self):
        # subordinator at T=1 with variance rate 0.3 has mean 1
        nu = 0.3
        g = sampling.RngSpec(11, 5).generator().gamma(1.0 / nu, nu, 10**6)
        assert g.mean() == pytest.approx(1.0, abs=5e-3)

    def test_gamma_scalar_deterministic(self):
        spec = sampling.RngSpec(base_seed=3, stream_id=9)
        x = spec.generator().gamma(2.0, 0.5)
        assert isinstance(x, float) and x > 0.0
        assert x == spec.generator().gamma(2.0, 0.5)

    def test_guards(self):
        with pytest.raises(ValueError):
            sampling.RngSpec(1, -2)

    def test_negative_seed_is_rejected(self):
        # -1 and 2^64 - 1 used to be the same Philox key
        with pytest.raises(ValueError):
            sampling.RngSpec(-1)
        with pytest.raises(ValueError):
            sampling.RngSpec(2**64)
        top = sampling.RngSpec(2**64 - 1).generator().standard_normal(4)
        zero = sampling.RngSpec(0).generator().standard_normal(4)
        assert not np.array_equal(top, zero)

    def test_stream_past_64_bits_is_rejected(self):
        # stream 2^64 used to repeat stream 0
        with pytest.raises(ValueError):
            sampling.RngSpec(0, 2**64)
        with pytest.raises(ValueError):
            sampling.RngSpec(0).stream(2**64)
        last = sampling.RngSpec(0, 2**64 - 1).generator().standard_normal(4)
        first = sampling.RngSpec(0, 0).generator().standard_normal(4)
        assert not np.array_equal(last, first)
