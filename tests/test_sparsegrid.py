import itertools
import math
import re

import numpy as np
import pytest

from smoothquad import cli, linalg, models, pricing, sparsegrid
from smoothquad.errors import NonFiniteIntegrand
from smoothquad.rules1d import (
    gauss_hermite_sequence,
    genz_keister_sequence,
    laguerre_sequence,
)
from smoothquad.sparsegrid import (
    AdaptiveState,
    adaptive_quadrature,
    admissible_children,
    interpolant_total_degree,
    total_degree_indices,
)
from sparsegrid_helpers import delta_tensor, total_degree_quadrature

GH = gauss_hermite_sequence()


def constant(c):
    return lambda z: np.full(z.shape[0], c)


def counting(f):
    """``f`` that records the row count of every call in ``.calls``."""

    def wrapped(z):
        wrapped.calls.append(z.shape[0])
        return f(z)

    wrapped.calls = []
    return wrapped


def grid_size(alpha, seq):
    return math.prod(seq.size(a) for a in alpha)


def meshgrid_block(levels, seqs):
    """The meshgrid construction of one tensor rule that _tensor_block replaced."""
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


def loop_children(alpha, old_set):
    """admissible_children as the full d-by-d parent check."""
    out = []
    for k in range(len(alpha)):
        beta = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
        parents = [
            beta[:q] + (beta[q] - 1,) + beta[q + 1 :]
            for q in range(len(beta))
            if beta[q] > 0
        ]
        if all(p in old_set for p in parents):
            out.append(beta)
    return out


class TestDeltaTensor:
    def test_constant_root_index(self):
        value, evals = delta_tensor(constant(1.0), (0, 0), GH)
        assert value == 1.0
        assert evals == 1

    def test_constant_positive_index_cancels(self):
        for alpha in [(1, 0), (0, 2), (1, 1), (3, 2)]:
            value, _ = delta_tensor(constant(1.0), alpha, GH)
            assert abs(value) < 1e-14, alpha

    def test_quadratic_difference_pattern(self):
        f = lambda z: z[:, 0] ** 2
        v10, _ = delta_tensor(f, (1, 0), GH)
        v01, _ = delta_tensor(f, (0, 1), GH)
        v11, _ = delta_tensor(f, (1, 1), GH)
        np.testing.assert_allclose(v10, 1.0, atol=1e-14)
        np.testing.assert_allclose(v01, 0.0, atol=1e-14)
        np.testing.assert_allclose(v11, 0.0, atol=1e-14)

    def test_evaluation_count_counts_every_block(self):
        # (1,1) expands into levels (1,1), (0,1), (1,0), (0,0) with
        # Gauss-Hermite sizes 3 and 1: 9 + 3 + 3 + 1 evaluations
        calls = []

        def f(z):
            calls.append(z.shape[0])
            return np.ones(z.shape[0])

        _, evals = delta_tensor(f, (1, 1), GH)
        assert evals == 16
        assert sum(calls) == 16
        assert len(calls) == 1  # one batched call

    def test_telescoping_sum_recovers_rule(self):
        # summing deltas along one axis telescopes to the plain rule
        f = lambda z: np.cos(z[:, 0])
        total = math.fsum(delta_tensor(f, (j,), GH)[0] for j in range(4))
        rule = GH.rule(3)
        np.testing.assert_allclose(total, rule.weights @ np.cos(rule.nodes), rtol=1e-14)

    def test_nonfinite_reports_node(self):
        def f(z):
            out = np.ones(z.shape[0])
            out[np.abs(z[:, 0] - math.sqrt(3.0)) < 1e-9] = np.nan
            return out

        with pytest.raises(NonFiniteIntegrand) as exc:
            delta_tensor(f, (1, 0), GH)
        node = exc.value.node
        assert node is not None
        np.testing.assert_allclose(node[0], math.sqrt(3.0), rtol=1e-12)


class TestTotalDegree:
    def test_index_enumeration(self):
        idx = total_degree_indices(2, 2)
        assert idx == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        assert total_degree_indices(1, 3) == [(0,), (1,), (2,), (3,)]

    def test_index_count_matches_binomial(self):
        for d in (1, 2, 3, 5):
            for q in (0, 1, 2, 4):
                assert len(total_degree_indices(d, q)) == math.comb(d + q, d)

    def test_constant(self):
        for q in (0, 1, 3):
            np.testing.assert_allclose(
                total_degree_quadrature(constant(2.5), 3, q, GH), 2.5, rtol=1e-14
            )

    def test_sum_of_squares_level_one(self):
        f = lambda z: z[:, 0] ** 2 + z[:, 1] ** 2
        np.testing.assert_allclose(
            total_degree_quadrature(f, 2, 1, GH), 2.0, atol=1e-13
        )

    def test_agrees_with_adaptive_on_smooth_integrand(self):
        f = lambda z: np.exp(0.3 * z[:, 0] - 0.2 * z[:, 1])
        exact = math.exp(0.5 * (0.09 + 0.04))
        td = total_degree_quadrature(f, 2, 8, GH)
        adaptive, _, _ = adaptive_quadrature(f, 2, 1e-10, GH)
        np.testing.assert_allclose(td, exact, rtol=1e-9)
        np.testing.assert_allclose(td, adaptive, rtol=1e-8)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            total_degree_quadrature(constant(1.0), 2, -1, GH)


class TestAdaptiveQuadrature:
    def test_constant_terminates_after_root(self):
        value, eta, state = adaptive_quadrature(constant(1.0), 3, 1e-12, GH)
        np.testing.assert_allclose(value, 1.0, atol=1e-14)
        assert eta <= 1e-12
        allowed = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert state.old_set | set(state.active) <= allowed
        assert state.old_set == {(0, 0, 0)}

    def test_exponential_product_closed_form(self):
        d = 4
        a = 1.0 / math.sqrt(d)
        f = lambda z: np.exp(a * z.sum(axis=1))
        value, eta, state = adaptive_quadrature(f, d, 1e-10, GH)
        np.testing.assert_allclose(value, math.exp(0.5), rtol=1e-9)
        assert eta <= 1e-10
        assert state.evaluations >= state.distinct_points
        assert state.status == "ok"
        assert state.tol == 1e-10

    def test_cubic_polynomials_integrated_exactly(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            d = int(rng.integers(1, 4))
            coef = rng.normal(size=(d, 4))

            def f(z, coef=coef, d=d):
                out = np.zeros(z.shape[0])
                for j in range(d):
                    out += sum(coef[j, k] * z[:, j] ** k for k in range(4))
                return out

            # E sum_j p_j(Z_j): odd powers drop, E Z^2 = 1
            exact = float(coef[:, 0].sum() + coef[:, 2].sum())
            value, _, _ = adaptive_quadrature(f, d, 1e-12, GH)
            np.testing.assert_allclose(value, exact, atol=1e-12)

    def test_genz_keister_sequence_agrees(self):
        f = lambda z: np.exp(0.5 * z[:, 0]) * np.cos(z[:, 1])
        v_gh, _, _ = adaptive_quadrature(f, 2, 1e-11, GH)
        v_gk, _, _ = adaptive_quadrature(f, 2, 1e-11, genz_keister_sequence())
        np.testing.assert_allclose(v_gh, v_gk, rtol=1e-9)

    def test_deterministic_reruns(self):
        f = lambda z: np.exp(0.4 * z.sum(axis=1)) + np.sin(z[:, 0])
        lines_a, lines_b = [], []

        def recorder(lines):
            return lambda state, alpha, g: lines.append(
                (alpha, g, state.evaluations, state.eta)
            )

        va, ea, sa = adaptive_quadrature(f, 3, 1e-9, GH, trace=recorder(lines_a))
        vb, eb, sb = adaptive_quadrature(f, 3, 1e-9, GH, trace=recorder(lines_b))
        assert va == vb and ea == eb
        assert lines_a == lines_b
        # an ok run traces every round, each accepting one index
        assert sa.status == "ok"
        assert len(lines_a) == len(sa.old_set)
        assert sa.old_set == sb.old_set
        assert sa.evaluations == sb.evaluations

    def test_trace_line_format(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text(
            "model = bs\nd = 3\nseed = 9\nmethods = aSG+CS\ntol_schedule = 1e-6\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "t")
        assert cli.main(["converge", "--config", str(conf), "--out", out, "--trace"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines
        pattern = re.compile(
            r"^\(\d+(, \d+)*\) \| \d\.\d{6}e[+-]\d+ \| \d+ \| \d\.\d{6}e[+-]\d+$"
        )
        for line in lines:
            assert pattern.match(line), line

    def test_audit_hook_sees_consistent_state(self):
        audits = []

        def audit(state, alpha, g):
            state.verify()
            audits.append(len(state.old_set))

        f = lambda z: np.exp(0.4 * z.sum(axis=1))
        _, _, state = adaptive_quadrature(f, 3, 1e-9, GH, trace=audit)
        assert audits == sorted(audits)
        assert len(audits) == len(state.old_set)
        state.verify()

    def test_zero_at_center_still_expands(self):
        # integrand vanishing at the origin must not terminate immediately
        f = lambda z: z[:, 0] ** 2
        value, _, state = adaptive_quadrature(f, 2, 1e-12, GH)
        np.testing.assert_allclose(value, 1.0, atol=1e-13)
        assert len(state.old_set) >= 1

    def test_budget_stop_returns_its_state(self):
        f = lambda z: np.exp(z.sum(axis=1))
        value, eta, state = adaptive_quadrature(f, 5, 1e-14, GH, max_evals=50)
        assert (value, eta) == (state.value, state.eta)
        assert state.evaluations > 50
        assert state.status == "BudgetExhausted"
        state.verify()

    def test_rule_cap_stops_the_run_saturated(self):
        # |x| needs ever finer rules; Genz-Keister level 7 is Gauss-Hermite order 287
        f = counting(lambda z: np.abs(z[:, 0]))
        seq = genz_keister_sequence()
        value, eta, state = adaptive_quadrature(f, 1, 1e-12, seq)
        assert state.status == "saturated"
        state.verify()
        # the index that would admit level 7 stays active, its estimator in eta
        assert list(state.active) == [(6,)]
        assert eta == state.active[(6,)] > 1e-12
        assert state.old_set == {(lv,) for lv in range(6)}
        assert state.evaluations == 419
        assert max(f.calls) == seq.size(6)
        assert eta >= abs(value - math.sqrt(2.0 / math.pi))

    @pytest.mark.parametrize(
        "seq, d, max_evals, left_out",
        [
            (GH, 5, 50, 0),
            (GH, 5, 100, 6),
            (genz_keister_sequence(), 8, 50, 2),
            (genz_keister_sequence(), 8, 500, 8),
        ],
    )
    def test_budget_stop_inside_a_child_batch(self, seq, d, max_evals, left_out):
        f = lambda z: np.exp(z.sum(axis=1))
        calls = []
        _, _, state = adaptive_quadrature(
            f, d, 1e-14, seq, max_evals=max_evals, trace=lambda *args: calls.append(args)
        )
        assert state.status == "BudgetExhausted"
        state.verify()
        # the round the budget cut is not traced
        assert len(calls) == len(state.old_set) - 1
        indices = state.old_set | set(state.active)
        # admissible children the stop left out of the last batch
        assert left_out == sum(
            beta not in indices
            for alpha in state.old_set
            for beta in admissible_children(alpha, state.old_set)
        )
        rows = set()
        evaluations = 0
        for alpha in indices:
            nodes = [seq.rule(a).nodes for a in alpha]
            rows.update(np.array(row).tobytes() for row in itertools.product(*nodes))
            lowered = [(a, a - 1) if a else (0,) for a in alpha]
            evaluations += sum(grid_size(beta, seq) for beta in itertools.product(*lowered))
        assert state.distinct_points == len(rows)
        assert state.evaluations == evaluations
        assert state.evaluations > max_evals

    def test_dimension_zero_counts_its_point(self):
        value, _, state = adaptive_quadrature(
            lambda p: np.full(len(p), 1.5), 0, 1e-3, gauss_hermite_sequence()
        )
        assert value == 1.5
        assert state.evaluations == 1
        assert state.distinct_points == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(constant(1.0), 2, 0.0, GH)
        with pytest.raises(ValueError):
            adaptive_quadrature(constant(1.0), 2, 1e-6, GH, max_evals=0)


class TestTensorValuesKept:
    """Each tensor grid reaches the integrand once; counts keep their meaning."""

    def test_adaptive_calls_once_per_accepted_index(self):
        # one call for the root, then one per accepted index that admits
        # at least one child, on the grids of all the children it admits
        gk = genz_keister_sequence()
        f = counting(lambda z: np.exp(0.3 * z[:, 0] - 0.2 * z[:, 1] + 0.1 * z[:, 2]))
        sizes = []
        _, _, state = adaptive_quadrature(
            f, 3, 1e-10, gk, trace=lambda s, *_: sizes.append(len(s.old_set) + len(s.active))
        )
        grew = sum(b > a for a, b in zip([1] + sizes, sizes))
        assert len(f.calls) == 1 + grew
        assert len(f.calls) < len(sizes)
        indices = state.old_set | set(state.active)
        grids = sum(grid_size(alpha, gk) for alpha in indices)
        assert sum(f.calls) == grids
        assert grids < state.evaluations
        assert state.distinct_points <= grids

    def test_adaptive_counts_and_price_unchanged_at_d8(self):
        prob = models.effective_bs(models.random_instance(8, 208, "atm"))
        g = pricing.smoothed_integrand(prob, linalg.rank_one_reduce(prob.Sigma))
        value, state = pricing.price_asg(g, 1e-6)
        assert state.evaluations == 8645
        assert state.distinct_points == 1247
        assert abs(value / 1.7730058461361355 - 1.0) <= 1e-13

    def test_total_degree_evaluates_each_grid_once(self):
        f = counting(lambda z: np.exp(0.3 * z.sum(axis=1)))
        total_degree_quadrature(f, 3, 3, GH)
        grids = sum(grid_size(alpha, GH) for alpha in total_degree_indices(3, 3))
        assert f.calls == [grids]

    def test_interpolant_build_makes_one_call(self):
        f = counting(lambda z: np.exp(0.3 * z.sum(axis=1)))
        g, _ = interpolant_total_degree(f, 4)
        assert len(f.calls) == 1
        g(np.zeros((3, 4)))
        assert len(f.calls) == 1

    def test_interpolant_chunks_match_row_by_row(self):
        f = lambda z: np.exp(0.3 * z[:, 0] - 0.5 * z[:, 1]) * np.cos(z[:, 2])
        g, _ = interpolant_total_degree(f, 3)
        pts = np.random.default_rng(3).normal(size=(sparsegrid._ROW_CHUNK + 37, 3))
        rows = np.array([g(p)[0] for p in pts])
        np.testing.assert_allclose(g(pts), rows, rtol=1e-14, atol=1e-14)


class TestAdmissibility:
    def test_refinement_frontier_replay(self):
        old = {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)}
        assert set(admissible_children((0, 2), old)) == {(0, 3), (1, 2)}
        old2 = {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1)}
        # (2,2) fails the parent check because (1,2)... is missing
        assert set(admissible_children((2, 1), old2)) == {(3, 1)}

    def test_root_children(self):
        assert set(admissible_children((0, 0, 0), {(0, 0, 0)})) == {
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        }

    def test_state_verify_catches_violations(self):
        bad = AdaptiveState(dim=2, old_set={(1, 0)})
        with pytest.raises(ValueError):
            bad.verify()
        bad2 = AdaptiveState(
            dim=2, old_set={(0, 0)}, active={(0, 0): 1.0}, eta=1.0
        )
        with pytest.raises(ValueError):
            bad2.verify()
        bad3 = AdaptiveState(
            dim=2, old_set={(0, 0)}, active={(1, 0): 1.0}, eta=2.0
        )
        with pytest.raises(ValueError):
            bad3.verify()

    def test_state_verify_wants_eta_exact(self):
        f = lambda z: np.exp(0.4 * z.sum(axis=1))
        _, eta, state = adaptive_quadrature(f, 3, 1e-9, GH)
        assert eta == math.fsum(state.active.values())
        state.verify()
        for off in (np.inf, -np.inf):
            state.eta = float(np.nextafter(eta, off))
            with pytest.raises(ValueError):
                state.verify()

    def test_trimmed_check_matches_full_parent_check(self):
        # every index of a grown adaptive set, against the set at its end
        f = lambda z: np.exp(0.3 * z[:, 0] + 0.2 * z[:, 1] - 0.4 * z[:, 2] + 0.1 * z[:, 3])
        _, _, state = adaptive_quadrature(f, 4, 1e-10, GH)
        for alpha in state.old_set | set(state.active):
            assert admissible_children(alpha, state.old_set) == loop_children(
                alpha, state.old_set
            ), alpha


class TestBookkeeping:
    def test_running_sum_equals_fsum_bit_for_bit(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(0.0, 12.0, size=400) * rng.choice([1.0, 1e-17, 1e17], 400)
        partials = []
        live = []
        for i, x in enumerate(values):
            sparsegrid._add_exact(partials, x)
            live.append(x)
            if i % 3 == 2:
                gone = live.pop(int(rng.integers(len(live))))
                sparsegrid._add_exact(partials, -gone)
            assert math.fsum(partials) == math.fsum(live)

    def test_delta_matches_the_signed_loop(self):
        f = lambda z: np.exp(0.3 * z.sum(axis=1)) * np.sin(1.0 + z[:, 0])
        tensor = sparsegrid._TensorValues(f, [GH] * 4)
        alphas = [(0, 0, 0, 0), (2, 0, 1, 0), (1, 1, 1, 1), (3, 0, 0, 2)]
        for alpha in alphas:
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
            tensor.fill([levels for _, levels in terms])
            total = 0.0
            for sign, levels in terms:
                total += sign * tensor.values[levels]
            assert tensor.delta(alpha) == total
            assert tensor.counts(alpha)[0] == sum(grid_size(lv, GH) for _, lv in terms)

    @pytest.mark.parametrize("d", [1, 3, 25])
    def test_tensor_block_matches_meshgrid(self, d):
        gk = genz_keister_sequence()
        families = {
            "gk": [gk] * d,
            "gh": [GH] * d,
            "laguerre+gk": [laguerre_sequence(0.4)] + [gk] * (d - 1),
        }
        rng = np.random.default_rng(d)
        level_list = [(0,) * d]
        for _ in range(12):
            levels = [0] * d
            for j in rng.choice(d, size=min(d, 3), replace=False):
                levels[j] = int(rng.integers(0, 4))
            level_list.append(tuple(levels))
        for seqs in families.values():
            base = sparsegrid._base_row(seqs)
            for levels in level_list:
                pts, w = sparsegrid._tensor_block(levels, seqs, base)
                ref_pts, ref_w = meshgrid_block(levels, seqs)
                assert pts.shape == ref_pts.shape and w.shape == ref_w.shape
                assert pts.tobytes() == ref_pts.tobytes(), levels
                assert w.tobytes() == ref_w.tobytes(), levels


class TestInterpolant:
    def test_linear_reproduced_everywhere(self):
        f = lambda z: 2.0 * z[:, 0] - z[:, 1] + 0.5
        g, mean = interpolant_total_degree(f, 2)
        pts = np.random.default_rng(0).normal(size=(50, 2))
        np.testing.assert_allclose(g(pts), f(pts), atol=1e-12)
        np.testing.assert_allclose(mean, 0.5, atol=1e-13)

    def test_pure_square_reproduced(self):
        f = lambda z: z[:, 0] ** 2
        g, mean = interpolant_total_degree(f, 2)
        pts = np.random.default_rng(1).normal(size=(50, 2))
        np.testing.assert_allclose(g(pts), f(pts), atol=1e-12)
        np.testing.assert_allclose(mean, 1.0, atol=1e-13)

    def test_mixed_quartic_mean_and_grid_interpolation(self):
        f = lambda z: z[:, 0] ** 2 * z[:, 1] ** 2
        g, mean = interpolant_total_degree(f, 2)
        td = total_degree_quadrature(f, 2, 2, GH)
        np.testing.assert_allclose(mean, td, rtol=1e-14)
        # union grid of the level <= 2 tensor rules: the 3x3 grid plus
        # the four outer five-point nodes on each axis, 17 points
        n3 = GH.rule(1).nodes
        n5 = GH.rule(2).nodes
        grid = {(x, y) for x in n3 for y in n3}
        grid |= {(x, 0.0) for x in n5}
        grid |= {(0.0, y) for y in n5}
        assert len(grid) == 17
        pts = np.array(sorted(grid))
        np.testing.assert_allclose(g(pts), f(pts), atol=1e-10)

    def test_mean_equals_quadrature_for_generic_integrand(self):
        f = lambda z: np.exp(0.2 * z[:, 0]) * np.cos(0.7 * z[:, 1] + 0.3)
        for d in (2, 3):
            fd = lambda z: np.exp(0.2 * z[:, 0]) * np.cos(0.7 * z[:, 1] + 0.3)
            g, mean = interpolant_total_degree(fd, d)
            td = total_degree_quadrature(fd, d, 2, GH)
            np.testing.assert_allclose(mean, td, rtol=1e-13)

    def test_interpolation_error_vanishes_where_f_is_resolved(self):
        # the control-variate residual f - g is zero for any polynomial
        # of total degree <= 2, the space the level-2 grid resolves
        rng = np.random.default_rng(5)
        c = rng.normal(size=6)
        f = (
            lambda z: c[0]
            + c[1] * z[:, 0]
            + c[2] * z[:, 1]
            + c[3] * z[:, 0] ** 2
            + c[4] * z[:, 1] ** 2
            + c[5] * z[:, 0] * z[:, 1]
        )
        g, mean = interpolant_total_degree(f, 2)
        pts = rng.normal(size=(80, 2))
        np.testing.assert_allclose(g(pts), f(pts), atol=1e-12)
        np.testing.assert_allclose(mean, c[0] + c[3] + c[4], atol=1e-12)

    def test_nonfinite_propagates(self):
        def f(z):
            out = np.ones(z.shape[0])
            out[z[:, 0] > 2.0] = np.inf
            return out

        with pytest.raises(NonFiniteIntegrand):
            interpolant_total_degree(f, 2)

    def test_only_total_degree_two(self):
        f = lambda z: z[:, 0] ** 2 + z[:, 1]
        with pytest.raises(ValueError):
            interpolant_total_degree(f, 2, q=3)

    def test_single_point_batch_and_vector_input(self):
        f = lambda z: z[:, 0] ** 2 + z[:, 1]
        g, _ = interpolant_total_degree(f, 2)
        out = g(np.array([0.3, -0.2]))
        np.testing.assert_allclose(out, [0.09 - 0.2], atol=1e-12)
