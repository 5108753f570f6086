import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothquad
from smoothquad import cli, linalg, models, pricing
from smoothquad.errors import ConfigInvalid, DimensionTooLarge, NonFiniteIntegrand
from smoothquad.sampling import RngSpec
from smoothquad.sparsegrid import AdaptiveState


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def strip_seconds(csv_text):
    rows = []
    for row in csv_text.splitlines():
        cells = row.split(",")
        del cells[4]
        rows.append(",".join(cells))
    return "\n".join(rows)


BS2_SWEEP = """
model = bs
d = 2
seed = 9
strike_mode = atm
methods = MC
methods = QMC+CS
methods = aSG+CS
budgets = 18
budgets = 108
budgets = 648
tol_schedule = 1e-2
tol_schedule = 1e-3
"""


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        text = """
        # comment line
        model = bs
        d = 5
        seed = 123
        strike_mode = itm

        methods = MC
        methods = aSG+CS
        budgets = 10
        budgets = 20
        tol_schedule = 1e-3
        output = sweep
        """
        cfg = cli.parse_config(write_config(tmp_path / "a.conf", text))
        assert cfg.model == "bs"
        assert cfg.d == 5
        assert cfg.seed == 123
        assert cfg.strike_mode == "itm"
        assert cfg.methods == ["MC", "aSG+CS"]
        assert cfg.budgets == [10, 20]
        assert cfg.tol_schedule == [1e-3]
        assert cfg.output == "sweep"

    def test_defaults(self, tmp_path):
        cfg = cli.parse_config(
            write_config(tmp_path / "a.conf", "model = bs\nd = 2\nseed = 1\n")
        )
        assert cfg.budgets == [3 * 6**q for q in range(1, 9)]
        assert cfg.tol_schedule == [10.0**-k for k in range(2, 10)]
        assert cfg.strike_mode == "atm"
        assert cfg.nu == 0.3
        assert cfg.methods == []

    def test_example_implies_vg(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path / "a.conf", "example = ls15\n"))
        assert cfg.model == "vg"
        assert cfg.example == "ls15"

    @pytest.mark.parametrize(
        "text",
        ["example = ls15\nmodel = vg\nseed = 4\n", "model = vg\nd = 2\nseed = 1\nnu = 0.5\n"],
    )
    def test_keys_the_instance_uses_parse(self, tmp_path, text):
        cli.parse_config(write_config(tmp_path / "a.conf", text))

    @pytest.mark.parametrize(
        "text",
        [
            "model = bs\nd = 2\nseed = 1\nunknown_key = 3\n",
            "model = bs\nmodel = bs\nd = 2\nseed = 1\n",
            "model = heston\nd = 2\nseed = 1\n",
            "model = bs\nd = 2\nseed = 1\nmethods = bogus\n",
            "model = bs\nd = 2\nseed = 1\nmethods = MC\nmethods = MC\n",
            "model = bs\nd = 2\nseed = 1\nbudgets = 20\nbudgets = 10\n",
            "model = bs\nd = 2\nseed = 1\nbudgets = 0\n",
            "model = bs\nd = 2\nseed = 1\ntol_schedule = 2.0\n",
            "model = bs\nd = 2\nseed = 1\nstrike_mode = deep\n",
            "model = bs\nd = 2\nseed = 1\nnot a key value line\n",
            "model = bs\nseed = 1\n",
            "model = bs\nd = 2\n",
            "model = bs\nd = 1\nseed = 1\n",
            "model = vg\nd = 3\nseed = 1\ntheta = 0.1\n",
            "model = vg\nd = 2\nseed = 1\nnu = 0\n",
            "model = vg\nd = 2\nseed = 1\ntheta_range = 0.5\n",
            "model = vg\nd = 3\nseed = 1\nnu = nan\n",
            "model = vg\nd = 3\nseed = 1\nnu = inf\n",
            "model = vg\nd = 3\nseed = 1\ntheta_range = nan\ntheta_range = nan\n",
            "example = ls16\n",
            "example = ls15\nd = 7\n",
            "example = ls15\nstrike_mode = otm\n",
            "example = ls15\nnu = 0.9\n",
            "example = ls15\ntheta = 0.1\n",
            "example = ls15\ntheta_range = -0.1\ntheta_range = 0.1\n",
            "example = ls15\nmodel = bs\n",
            "model = bs\nexample = ls15_modified\n",
            "model = bs\nd = 2\nseed = 1\nnu = 0.5\n",
            "model = bs\nd = 2\nseed = 1\ntheta = 0.1\ntheta = 0.1\n",
            "model = bs\nd = 2\nseed = 1\ntheta_range = -0.1\ntheta_range = 0.1\n",
            "model = vg\nd = 2\nseed = 1\ntheta = 0.1\ntheta = 0.1\n"
            "theta_range = -0.1\ntheta_range = 0.1\n",
        ],
    )
    def test_invalid_configs(self, tmp_path, text):
        with pytest.raises(ConfigInvalid):
            cli.parse_config(write_config(tmp_path / "bad.conf", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            cli.parse_config(tmp_path / "absent.conf")


class TestInstanceBuilding:
    def test_bs_matches_library_generator(self, tmp_path):
        cfg = cli.parse_config(
            write_config(tmp_path / "a.conf", "model = bs\nd = 4\nseed = 7\nstrike_mode = otm\n")
        )
        built = cli.build_instance(cfg)
        expected = models.random_instance(4, 7, "otm")
        np.testing.assert_array_equal(built.S0, expected.S0)
        assert built.K == expected.K

    def test_vg_with_explicit_theta(self, tmp_path):
        text = "model = vg\nd = 2\nseed = 7\ntheta = -0.1\ntheta = 0.02\nnu = 0.5\n"
        cfg = cli.parse_config(write_config(tmp_path / "a.conf", text))
        built = cli.build_instance(cfg)
        np.testing.assert_array_equal(built.theta, [-0.1, 0.02])
        assert built.nu == 0.5

    def test_vg_with_theta_range(self, tmp_path):
        text = "model = vg\nd = 3\nseed = 7\ntheta_range = -0.02\ntheta_range = 0.01\n"
        cfg = cli.parse_config(write_config(tmp_path / "a.conf", text))
        built = cli.build_instance(cfg)
        assert np.all(built.theta >= -0.02)
        assert np.all(built.theta <= 0.01)

    def test_example_instances(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path / "a.conf", "example = ls15_modified\n"))
        built = cli.build_instance(cfg)
        assert built.sigma[2] == 0.1365


class TestConvergeVerb:
    def run_sweep(self, tmp_path, name, extra_args=()):
        conf = write_config(tmp_path / f"{name}.conf", BS2_SWEEP)
        out = str(tmp_path / name)
        code = cli.main(
            ["converge", "--config", conf, "--out", out, *extra_args]
        )
        assert code == 0
        return (tmp_path / f"{name}.csv").read_text(encoding="utf-8")

    def test_csv_schema_and_order(self, tmp_path):
        csv_text = self.run_sweep(tmp_path, "sweep")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "method,n_points,estimate,rel_error,seconds,status"
        methods = [row.split(",")[0] for row in lines[1:]]
        assert methods == ["MC"] * 3 + ["QMC+CS"] * 3 + ["aSG+CS"] * 2
        assert all(row.split(",")[-1] == "ok" for row in lines[1:])

    def test_rows_respect_price_bounds(self, tmp_path):
        csv_text = self.run_sweep(tmp_path, "bounds")
        model = models.random_instance(2, 9, "atm")
        upper = model.forward()
        for row in csv_text.strip().splitlines()[1:]:
            estimate = float(row.split(",")[2])
            assert 0.0 <= estimate <= upper + 1e-9

    def test_adaptive_rows_report_evaluations(self, tmp_path):
        csv_text = self.run_sweep(tmp_path, "evals")
        rows = [r.split(",") for r in csv_text.strip().splitlines()[1:]]
        asg = [r for r in rows if r[0] == "aSG+CS"]
        counts = [int(r[1]) for r in asg]
        assert counts == sorted(counts)
        assert counts[0] >= 1
        final_err = float(asg[-1][3])
        assert final_err <= 1e-4

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        first = self.run_sweep(tmp_path, "one")
        second = self.run_sweep(tmp_path, "two")
        third = self.run_sweep(tmp_path, "three")
        assert strip_seconds(first) == strip_seconds(second)
        assert strip_seconds(first) == strip_seconds(third)

    def test_threads_flag_rejected(self, tmp_path):
        conf = write_config(tmp_path / "t.conf", BS2_SWEEP)
        out = str(tmp_path / "t")
        with pytest.raises(SystemExit) as exc:
            cli.main(["converge", "--config", conf, "--out", out, "--threads", "2"])
        assert exc.value.code == 2

    def cs2_rows(self, tmp_path):
        conf = write_config(
            tmp_path / "d26.conf",
            "model = bs\nd = 26\nseed = 3\nmethods = QMC+CS\nmethods = aSG+CS2\n"
            "budgets = 18\ntol_schedule = 1e-1\n",
        )
        out = str(tmp_path / "d26")
        assert cli.main(["converge", "--config", conf, "--out", out]) == 0
        lines = (tmp_path / "d26.csv").read_text(encoding="utf-8").strip().splitlines()
        return [row.split(",") for row in lines[1:]]

    def test_binary_search_runs_above_d25(self, tmp_path, monkeypatch):
        # the search takes every d up to the dimension cap of 35
        monkeypatch.setattr(cli, "_bs_reference", lambda *args: 1.0)
        rows = self.cs2_rows(tmp_path)
        assert [(r[0], r[-1]) for r in rows] == [("QMC+CS", "ok"), ("aSG+CS2", "ok")]
        assert float(rows[1][2]) > 0.0 and int(rows[1][1]) > 0

    def test_binary_search_above_its_cap_is_a_row_status(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_bs_reference", lambda *args: 1.0)

        def capped(sigma):
            raise DimensionTooLarge(f"d = {sigma.shape[0]} exceeds the search's cap")

        monkeypatch.setattr(linalg, "best_binary_v", capped)
        rows = self.cs2_rows(tmp_path)
        assert [(r[0], r[-1]) for r in rows] == [
            ("QMC+CS", "ok"),
            ("aSG+CS2", "DimensionTooLarge"),
        ]
        assert float(rows[0][2]) > 0.0
        # an error row has no estimate and counts no points
        assert rows[1][1:3] == ["0", ""]

    def test_sampling_error_row_counts_no_points(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_bs_reference", lambda *args: 1.0)

        def non_finite(g):
            raise NonFiniteIntegrand("control variate is not finite")

        monkeypatch.setattr(pricing, "control_variate", non_finite)
        conf = write_config(
            tmp_path / "cv.conf",
            "model = bs\nd = 2\nseed = 9\nmethods = MC+CS+CV\nbudgets = 18\n",
        )
        assert cli.main(["converge", "--config", conf, "--out", str(tmp_path / "cv")]) == 0
        lines = (tmp_path / "cv.csv").read_text(encoding="utf-8").strip().splitlines()
        rows = [row.split(",") for row in lines[1:]]
        assert [(r[0], r[-1]) for r in rows] == [("MC+CS+CV", "NonFiniteIntegrand")]
        # no estimate, and 0 points as an adaptive error row counts, not the budget
        assert rows[0][1:3] == ["0", ""]

    def test_control_variate_built_once_per_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_bs_reference", lambda *args: 1.0)
        builds = []
        build = pricing.interpolant_total_degree

        def counted(*args, **kwargs):
            builds.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(pricing, "interpolant_total_degree", counted)
        conf = write_config(
            tmp_path / "cv.conf",
            "model = bs\nd = 4\nseed = 5\nmethods = MC+CS+CV\nmethods = QMC+CS+CV\n"
            "budgets = 18\nbudgets = 108\n",
        )
        assert cli.main(["converge", "--config", conf, "--out", str(tmp_path / "cv")]) == 0
        assert builds == [3]
        lines = (tmp_path / "cv.csv").read_text(encoding="utf-8").strip().splitlines()
        rows = [row.split(",") for row in lines[1:]]
        assert [(r[0], r[1], r[-1]) for r in rows] == [
            ("MC+CS+CV", "18", "ok"),
            ("MC+CS+CV", "108", "ok"),
            ("QMC+CS+CV", "18", "ok"),
            ("QMC+CS+CV", "108", "ok"),
        ]
        prob = models.effective_bs(models.random_instance(4, 5, "atm"))
        g = pricing.smoothed_integrand(prob, linalg.rank_one_reduce(prob.Sigma))
        for method, n, estimate, *_ in rows:
            if method == "MC+CS+CV":
                runs = [
                    pricing.price_cv(g, int(n), mode="mc", rng=RngSpec(5, stream_id=r))
                    for r in range(20)
                ]
                assert abs(float(estimate) / float(np.median(runs)) - 1.0) <= 1e-14
            else:
                assert float(estimate) == pricing.price_cv(g, int(n), mode="qmc")

    def test_budget_stop_is_a_row_status(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_bs_reference", lambda *args: 2.0)
        state = AdaptiveState(
            dim=1, value=2.5, eta=1e-3, evaluations=4321, status="BudgetExhausted"
        )

        def exhausted(*args, **kwargs):
            return 2.5, state

        monkeypatch.setattr(pricing, "price_asg", exhausted)
        conf = write_config(
            tmp_path / "b.conf",
            "model = bs\nd = 2\nseed = 9\nmethods = aSG+CS\ntol_schedule = 1e-2\n",
        )
        assert cli.main(["converge", "--config", conf, "--out", str(tmp_path / "b")]) == 0
        csv_text = (tmp_path / "b.csv").read_text(encoding="utf-8")
        assert strip_seconds(csv_text).splitlines()[1] == "aSG+CS,4321,2.5,0.25,BudgetExhausted"

    def test_adaptive_row_at_the_rule_cap_is_saturated(self, tmp_path, monkeypatch):
        # raw aSG on this instance would admit a Gauss-Hermite rule above the order cap
        monkeypatch.setattr(cli, "_bs_reference", lambda *args: 1.0)
        conf = write_config(
            tmp_path / "e.conf",
            "model = bs\nd = 8\nseed = 208\nmethods = aSG\nmethods = MC\n"
            "budgets = 18\ntol_schedule = 1e-2\n",
        )
        assert cli.main(["converge", "--config", conf, "--out", str(tmp_path / "e")]) == 0
        csv_text = (tmp_path / "e.csv").read_text(encoding="utf-8")
        rows = [row.split(",") for row in strip_seconds(csv_text).splitlines()[1:]]
        assert (rows[0][0], rows[0][1], rows[0][2], rows[0][-1]) == (
            "aSG",
            "1997",
            "1.6325871223835193",
            "saturated",
        )
        assert (rows[1][0], rows[1][1], rows[1][-1]) == ("MC", "18", "ok")
        assert float(rows[1][2]) > 0.0

    def test_seed_override_changes_rows(self, tmp_path):
        base = self.run_sweep(tmp_path, "base")
        moved = self.run_sweep(tmp_path, "moved", ("--seed", "10"))
        assert strip_seconds(base) != strip_seconds(moved)

    def test_empty_methods_rejected(self, tmp_path):
        conf = write_config(tmp_path / "m.conf", "model = bs\nd = 2\nseed = 9\n")
        assert cli.main(["converge", "--config", conf]) == 2

    def test_rejects_vg_model(self, tmp_path, capsys):
        # theta = 4.0 leaves the second instance's omega undefined: the model is checked first
        for theta in ("", "theta = 4.0\ntheta = 4.0\n"):
            conf = write_config(
                tmp_path / "m.conf", f"model = vg\nd = 2\nseed = 9\n{theta}methods = MC\n"
            )
            assert cli.main(["converge", "--config", conf]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "config error: converge expects a bs model" in err


class TestVgVerb:
    def test_modified_example_sweep(self, tmp_path, capsys):
        text = (
            "example = ls15_modified\nseed = 4\nmethods = aSG+CS\nmethods = aSG+CS2\n"
            "tol_schedule = 1e-2\ntol_schedule = 1e-3\n"
        )
        conf = write_config(tmp_path / "vg.conf", text)
        out = str(tmp_path / "vg")
        assert cli.main(["vg", "--config", conf, "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "lambda_sq 0.01034/0.02255/0.00526" in captured
        lines = (tmp_path / "vg.csv").read_text(encoding="utf-8").strip().splitlines()
        methods = [row.split(",")[0] for row in lines[1:]]
        assert methods == ["aSG+CS"] * 2 + ["aSG+CS2"] * 2
        errors = [float(row.split(",")[3]) for row in lines[1:]]
        assert max(errors) < 1e-2

    def test_random_vg_instance_runs(self, tmp_path):
        text = (
            "model = vg\nd = 2\nseed = 5\nmethods = MC+CS\nmethods = aSG+CS\n"
            "budgets = 108\nbudgets = 648\ntol_schedule = 1e-2\ntol_schedule = 1e-4\n"
        )
        conf = write_config(tmp_path / "vg.conf", text)
        out = str(tmp_path / "r")
        assert cli.main(["vg", "--config", conf, "--out", out]) == 0
        lines = (tmp_path / "r.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 5
        final = lines[-1].split(",")
        assert float(final[3]) < 1e-3

    def test_unsupported_method_for_vg(self, tmp_path):
        conf = write_config(
            tmp_path / "vg.conf", "model = vg\nd = 2\nseed = 5\nmethods = QMC\n"
        )
        assert cli.main(["vg", "--config", conf]) == 2

    def test_methods_checked_before_direction_search(self, tmp_path, monkeypatch, capsys):
        searches = []
        search = linalg.best_binary_v

        def counted(sigma):
            searches.append(sigma)
            return search(sigma)

        monkeypatch.setattr(linalg, "best_binary_v", counted)
        conf = write_config(
            tmp_path / "vg.conf",
            "model = vg\nd = 2\nseed = 5\nmethods = aSG+CS2\nmethods = QMC\n",
        )
        assert cli.main(["vg", "--config", conf]) == 2
        out, err = capsys.readouterr()
        # rejected before any set-up: not even the eigenvalue line
        assert out == ""
        assert "config error: method QMC is not available for vg runs" in err
        assert searches == []

    def test_sampling_rows_are_medians_of_streams(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_vg_reference", lambda *args: 1.0)
        conf = write_config(
            tmp_path / "vg.conf",
            "model = vg\nd = 3\nseed = 5\nmethods = MC\nmethods = MC+CS\n"
            "budgets = 18\nbudgets = 8200\n",
        )
        assert cli.main(["vg", "--config", conf, "--out", str(tmp_path / "vg")]) == 0
        lines = (tmp_path / "vg.csv").read_text(encoding="utf-8").strip().splitlines()
        rows = [row.split(",") for row in lines[1:]]
        assert [(r[0], r[1], r[-1]) for r in rows] == [
            ("MC", "18", "ok"),
            ("MC", "8200", "ok"),
            ("MC+CS", "18", "ok"),
            ("MC+CS", "8200", "ok"),
        ]
        model = models.random_vg_instance(3, 5)
        for method, n, estimate, *_ in rows:
            runs = [
                pricing.price_vg_mc(model, int(n), RngSpec(5, stream_id=r), raw=method == "MC")
                for r in range(20)
            ]
            assert float(estimate) == float(np.median(runs))

    def test_sampling_rows_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_vg_reference", lambda *args: 1.0)
        conf = write_config(
            tmp_path / "vg.conf",
            "model = vg\nd = 3\nseed = 5\nmethods = MC\nmethods = MC+CS\nbudgets = 8200\n",
        )
        rows = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(pricing, "_usable_cores", lambda: workers)
            out = tmp_path / f"vg{workers}"
            assert cli.main(["vg", "--config", conf, "--out", str(out)]) == 0
            rows.append(strip_seconds(out.with_suffix(".csv").read_text(encoding="utf-8")))
        assert rows[0].count("\n") == 2
        assert rows[1] == rows[0] and rows[2] == rows[0]

    def test_undefined_skew_is_numerical_failure(self, tmp_path):
        conf = write_config(
            tmp_path / "vg.conf",
            "model = vg\nd = 2\nseed = 9\ntheta = 4.0\ntheta = 4.0\nmethods = aSG+CS\n",
        )
        assert cli.main(["vg", "--config", conf]) == 3

    @pytest.mark.parametrize(
        "methods, statuses",
        [
            (["MC+CS"], [("MC+CS", "ok")]),
            (["MC+CS", "aSG+CS2"], [("MC+CS", "ok"), ("aSG+CS2", "ok")]),
        ],
    )
    def test_binary_search_only_for_cs2_rows(
        self, tmp_path, monkeypatch, capsys, methods, statuses
    ):
        monkeypatch.setattr(cli, "_vg_reference", lambda *args: 1.0)
        text = "model = vg\nd = 26\nseed = 1\nbudgets = 18\ntol_schedule = 1e-1\n"
        text += "".join(f"methods = {m}\n" for m in methods)
        conf = write_config(tmp_path / "vg26.conf", text)
        out = str(tmp_path / "vg26")
        assert cli.main(["vg", "--config", conf, "--out", out]) == 0
        # the search runs, and prints its line, only for an aSG+CS2 row
        assert ("best v" in capsys.readouterr().out) == ("aSG+CS2" in methods)
        lines = (tmp_path / "vg26.csv").read_text(encoding="utf-8").strip().splitlines()
        rows = [row.split(",") for row in lines[1:]]
        assert [(r[0], r[-1]) for r in rows] == statuses
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_ls15_default_schedule_runs(self, tmp_path, capsys):
        # the reference at min(default tol_schedule) / 100 stops at the order cap
        conf = write_config(
            tmp_path / "ls15.conf", "example = ls15\nmethods = MC\nbudgets = 18\n"
        )
        out = str(tmp_path / "ls15")
        assert cli.main(["vg", "--config", conf, "--out", out]) == 0
        records = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("reference ")
        ]
        assert len(records) == 1
        assert " status saturated tol 1e-11 " in records[0]
        lines = (tmp_path / "ls15.csv").read_text(encoding="utf-8").strip().splitlines()
        assert [row.split(",")[-1] for row in lines[1:]] == ["ok"]


class TestReferenceBudget:
    """A reference that runs out of budget keeps its partial value and
    says so in its stdout record."""

    VALUE = 0.123456789
    CONFIGS = {
        "converge": (BS2_SWEEP, "price_asg"),
        "vg": (
            "model = vg\nd = 2\nseed = 5\nmethods = MC+CS\nbudgets = 18\n"
            "tol_schedule = 1e-2\n",
            "price_asg",
        ),
    }

    def run(self, tmp_path, capsys, monkeypatch, verb, pricer):
        text, name = self.CONFIGS[verb]
        monkeypatch.setattr(pricing, name, pricer)
        conf = write_config(tmp_path / f"{verb}.conf", text)
        out = str(tmp_path / verb)
        code = cli.main([verb, "--config", conf, "--out", out])
        csv_text = (tmp_path / f"{verb}.csv").read_text(encoding="utf-8")
        captured = capsys.readouterr()
        return code, strip_seconds(csv_text), captured.out, captured.err

    @pytest.mark.parametrize("verb", ["converge", "vg"])
    def test_partial_reference_is_reported(self, tmp_path, capsys, monkeypatch, verb):
        def state(tol, status):
            return AdaptiveState(
                dim=2, tol=tol, value=self.VALUE, eta=3.5e-6, evaluations=4321, status=status
            )

        asg = pricing.price_asg

        def rows(model, trace=None, **kwargs):
            # converge's aSG+CS rows are checkpoints of the reference's run:
            # they pass as a real run to 1e-3 would, before the stubbed end
            if verb == "converge":
                asg(model, 1e-3, trace=trace)

        def converged(model, tol=pricing.reference_tolerance(2), **kwargs):
            rows(model, **kwargs)
            return self.VALUE, state(tol, "ok")

        def exhausted(model, tol=pricing.reference_tolerance(2), **kwargs):
            rows(model, **kwargs)
            return self.VALUE, state(tol, "BudgetExhausted")

        code, csv_ok, out_ok, err_ok = self.run(tmp_path, capsys, monkeypatch, verb, converged)
        assert code == 0 and err_ok == ""
        code, csv_text, out, err = self.run(tmp_path, capsys, monkeypatch, verb, exhausted)
        assert code == 0
        assert csv_text == csv_ok
        assert err == ""
        tol = pricing.reference_tolerance(2) if verb == "converge" else 1e-4
        record = (
            f"reference {self.VALUE!r} status {{}} tol {tol:g} eta 3.500e-06 "
            "evaluations 4321 distinct_points 0\n"
        )
        assert out == out_ok.replace(record.format("ok"), record.format("BudgetExhausted"))
        assert record.format("BudgetExhausted") in out


def reference_record(state):
    return (
        f"reference {state.value!r} status {state.status} tol {state.tol:g} "
        f"eta {state.eta:.3e} evaluations {state.evaluations} "
        f"distinct_points {state.distinct_points}"
    )


class TestSharedRuns:
    """Each adaptive method's rows, and the reference, are checkpoints of
    one run; each must equal the same run made on its own at its tolerance."""

    def sweep(self, tmp_path, capsys, verb, text, *flags):
        conf = write_config(tmp_path / "s.conf", text)
        assert cli.main([verb, "--config", conf, "--out", str(tmp_path / "s"), *flags]) == 0
        lines = (tmp_path / "s.csv").read_text(encoding="utf-8").strip().splitlines()
        return [row.split(",") for row in lines[1:]], capsys.readouterr()

    def assert_rows_equal_own_runs(self, rows, pricers, tols):
        assert [r[0] for r in rows] == [m for m in pricers for _ in tols]
        for (method, n, estimate, _, _, status), tol in zip(rows, tols * len(pricers)):
            state = pricers[method](tol)[1]
            assert (int(n), float(estimate), status) == (
                state.evaluations, state.value, state.status
            )

    def test_converge_rows_and_reference(self, tmp_path, capsys):
        # 1e-12 lies below the reference's 1e-11, and raw aSG saturates
        tols = [1e-2, 1e-5, 1e-12]
        text = "model = bs\nd = 3\nseed = 11\nmethods = aSG\nmethods = aSG+CS\n"
        text += "methods = aSG+CS2\n" + "".join(f"tol_schedule = {t!r}\n" for t in tols)
        rows, captured = self.sweep(tmp_path, capsys, "converge", text)
        model = models.random_instance(3, 11)
        prob = models.effective_bs(model)
        v, _ = linalg.best_binary_v(prob.Sigma)
        integrands = {
            "aSG": pricing.raw_integrand(prob, linalg.rank_one_reduce(prob.Sigma)),
            "aSG+CS": pricing.smoothed_integrand(prob, linalg.rank_one_reduce(prob.Sigma)),
            "aSG+CS2": pricing.smoothed_integrand_v(
                prob, v, linalg.rank_one_reduce(prob.Sigma, v)
            ),
        }
        pricers = {m: functools.partial(pricing.price_asg, g) for m, g in integrands.items()}
        self.assert_rows_equal_own_runs(rows, pricers, tols)
        assert {r[-1] for r in rows[:3]} == {"saturated"}
        reference = pricing.reference_price(model)[1]
        assert reference_record(reference) in captured.out.splitlines()

    def test_vg_rows_and_reference(self, tmp_path, capsys):
        tols = [1e-2, 1e-3]
        text = "example = ls15_modified\nmethods = aSG+CS\nmethods = aSG+CS2\n"
        text += "".join(f"tol_schedule = {t!r}\n" for t in tols)
        rows, captured = self.sweep(tmp_path, capsys, "vg", text)
        model = models.vg_example(modified=True)
        v, _ = linalg.best_binary_v(models.vg_base_matrix(model))
        pricers = {
            "aSG+CS": functools.partial(pricing.price_vg_smoothed, model),
            "aSG+CS2": functools.partial(pricing.price_vg_smoothed, model, v=v),
        }
        self.assert_rows_equal_own_runs(rows, pricers, tols)
        reference = pricers["aSG+CS"](1e-5)[1]
        assert reference_record(reference) in captured.out.splitlines()

    def test_saturated_rows(self, tmp_path, capsys, monkeypatch):
        # the d = 25 reference alone takes seconds; only the CS2 run is compared
        monkeypatch.setattr(cli, "_bs_reference", lambda *args: 1.0)
        text = "model = bs\nd = 25\nseed = 2\nmethods = aSG+CS2\n"
        text += "tol_schedule = 1e-2\ntol_schedule = 1e-3\n"
        rows, _ = self.sweep(tmp_path, capsys, "converge", text)
        prob = models.effective_bs(models.random_instance(25, 2))
        v, _ = linalg.best_binary_v(prob.Sigma)
        g = pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(prob.Sigma, v))
        pricers = {"aSG+CS2": functools.partial(pricing.price_asg, g)}
        self.assert_rows_equal_own_runs(rows, pricers, [1e-2, 1e-3])
        assert [r[-1] for r in rows] == ["ok", "saturated"]

    def test_budget_stop(self):
        prob = models.effective_bs(models.random_instance(3, 1))
        g = pricing.smoothed_integrand(prob, linalg.rank_one_reduce(prob.Sigma))
        price = functools.partial(pricing.price_asg, g, max_evals=100)
        tols = [1e-2, 1e-4, 1e-8, 1e-10]
        at = cli._checkpoints(price, tols, None)
        statuses = []
        for tol in tols:
            mark, _ = at(tol)
            state = price(tol)[1]
            assert mark == tuple(getattr(state, f) for f in mark._fields)
            statuses.append(mark.status)
        assert statuses == ["ok", "ok", "BudgetExhausted", "BudgetExhausted"]

    def test_error_after_a_checkpoint(self):
        # nan at the Genz-Keister nodes past level 2 (|x| > 4.2), first needed below 1e-6
        prob = models.effective_bs(models.random_instance(3, 1))
        g = pricing.smoothed_integrand(prob, linalg.rank_one_reduce(prob.Sigma))

        def func(points):
            return np.where(np.abs(points).max(axis=1) > 4.2, np.nan, g(points))

        price = functools.partial(pricing.price_asg, pricing.Integrand(g.dim, func, "nan"))
        at = cli._checkpoints(price, [1e-2, 1e-8], None)
        mark, _ = at(1e-2)
        state = price(1e-2)[1]
        assert mark == tuple(getattr(state, f) for f in mark._fields)
        for _ in range(2):
            with pytest.raises(NonFiniteIntegrand):
                at(1e-8)
        with pytest.raises(NonFiniteIntegrand):
            price(1e-8)

    def test_trace_writes_each_run_once(self, tmp_path, capsys):
        text = "model = bs\nd = 3\nseed = 11\nmethods = aSG+CS\nmethods = aSG+CS2\n"
        text += "tol_schedule = 1e-2\ntol_schedule = 1e-4\n"
        _, captured = self.sweep(tmp_path, capsys, "converge", text, "--trace")
        prob = models.effective_bs(models.random_instance(3, 11))
        v, _ = linalg.best_binary_v(prob.Sigma)
        write = cli._trace_writer(True)
        # the aSG+CS run goes on to the reference's tolerance, 1e-11
        g = pricing.smoothed_integrand(prob, linalg.rank_one_reduce(prob.Sigma))
        pricing.price_asg(g, 1e-11, trace=write)
        g = pricing.smoothed_integrand_v(prob, v, linalg.rank_one_reduce(prob.Sigma, v))
        pricing.price_asg(g, 1e-4, trace=write)
        expected = capsys.readouterr().err
        assert expected.count("\n") > 10
        assert captured.err == expected


class TestDecompVerb:
    def test_fixed_example_report(self, tmp_path, capsys):
        conf = write_config(tmp_path / "d.conf", "example = ls15\n")
        assert cli.main(["decomp", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "lambda_sq (v = 1): 0.00023 / 0.03432 / 0.00652" in out
        assert "best v:" in out
        # the shares are of the forward weights the VG integrand splits
        assert "weight share (v = 1): 1.00000, lambda1 x share 0.01514\n" in out
        assert "best v: [0, 1, 0]\n" in out
        assert out.endswith("weight share (best v): 0.30795, lambda1 x share 0.02753\n")

    def test_report_matches_brute_force(self, tmp_path):
        conf = write_config(tmp_path / "d.conf", "model = bs\nd = 4\nseed = 31\n")
        cfg = cli.parse_config(conf)
        report = cli.report_decomposition(cfg)
        assert report.count("/") >= 3

    def test_best_v_at_the_search_cap(self, tmp_path, capsys):
        # d = 35, the dimension cap, is the search's only cap
        conf = write_config(tmp_path / "d.conf", "model = bs\nd = 35\nseed = 2\n")
        assert cli.main(["decomp", "--config", conf]) == 0
        out = capsys.readouterr().out
        sigma = models.effective_bs(models.random_instance(35, 2)).Sigma
        v, _ = linalg.best_binary_v(sigma)
        assert f"best v: {v.astype(int).tolist()}\n" in out

    def test_weight_shares(self, tmp_path, capsys):
        # d = 25 seed 2: the best v holds the last five assets, a fifth of
        # the basket weight, so aSG+CS2 smooths less than aSG+CS does
        conf = write_config(tmp_path / "d.conf", "model = bs\nd = 25\nseed = 2\n")
        assert cli.main(["decomp", "--config", conf]) == 0
        lines = capsys.readouterr().out.splitlines()
        prob = models.effective_bs(models.random_instance(25, 2))
        v, lam1_sq = linalg.best_binary_v(prob.Sigma)
        share = prob.w @ v / prob.w.sum()
        lam1_ones = linalg.lambda1_sq(prob.Sigma) ** 0.5
        assert lines[1:] == [
            f"weight share (v = 1): 1.00000, lambda1 x share {lam1_ones:.5f}",
            f"best v: {v.astype(int).tolist()}",
            f"lambda1_sq (best v): {lam1_sq:.5f}",
            f"weight share (best v): {share:.5f}, lambda1 x share {lam1_sq**0.5 * share:.5f}",
        ]
        assert lines[-1] == "weight share (best v): 0.19690, lambda1 x share 0.04031"
        assert lines[1] == "weight share (v = 1): 1.00000, lambda1 x share 0.15237"


@pytest.mark.parametrize("verb", ["price", "decomp"])
@pytest.mark.parametrize("flag", [["--out", "x"], ["--trace"]])
def test_report_verbs_take_no_sweep_flags(tmp_path, capsys, verb, flag):
    conf = write_config(tmp_path / "p.conf", "example = ls15\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--config", conf, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["price", "decomp"])
@pytest.mark.parametrize(
    "text,flag", [("example = ls15\nseed = 5\n", []), ("example = ls15\n", ["--seed", "5"])]
)
def test_report_verbs_reject_an_example_seed(tmp_path, capsys, verb, text, flag):
    # the example is fixed and neither report draws a random stream
    conf = write_config(tmp_path / "p.conf", text)
    assert cli.main([verb, "--config", conf, *flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"config error: seed does not apply to {verb} on an example" in err


@pytest.mark.parametrize(
    "verb,model",
    [("converge", "bs"), ("vg", "vg")]
    + [(verb, model) for verb in ("price", "decomp") for model in ("bs", "vg")],
)
def test_dimension_above_the_cap_is_a_config_error(tmp_path, capsys, monkeypatch, verb, model):
    d = linalg.MAX_DIM + 1
    text = f"model = {model}\nd = {d}\nseed = 1\nmethods = MC\nbudgets = 18\n"
    conf = write_config(tmp_path / "big.conf", text)
    monkeypatch.chdir(tmp_path)
    assert cli.main([verb, "--config", conf]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"config error: d must lie in [2, {linalg.MAX_DIM}], got {d}" in err
    assert not list(tmp_path.glob("*.csv"))


class TestPriceVerb:
    def test_prints_reference(self, tmp_path, capsys):
        conf = write_config(tmp_path / "p.conf", "model = bs\nd = 2\nseed = 9\n")
        assert cli.main(["price", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "reference 1.6541653226361737 status ok tol 1e-12 eta 8.948e-14 "
            "evaluations 99 distinct_points 35\nmodel bs d 2\n"
        )
        price = float(out.strip().splitlines()[-1].split()[-1])
        assert 0.0 < price < models.random_instance(2, 9).forward()

    def test_prints_vg_reference(self, tmp_path, capsys):
        conf = write_config(
            tmp_path / "p.conf", "model = vg\nd = 2\nseed = 5\ntol_schedule = 1e-2\n"
        )
        assert cli.main(["price", "--config", conf]) == 0
        model = models.random_vg_instance(2, 5)
        state = pricing.price_vg_smoothed(model, 1e-4)[1]
        assert capsys.readouterr().out == (
            f"reference {state.value!r} status {state.status} tol 0.0001 "
            f"eta {state.eta:.3e} evaluations {state.evaluations} "
            f"distinct_points {state.distinct_points}\n"
            f"model vg d 2\nforward {model.forward()!r}\nstrike {model.K!r}\n"
            f"price {state.value!r}\n"
        )

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "nine"])
    def test_seed_flag_validated_like_config(self, tmp_path, capsys, seed):
        conf = write_config(tmp_path / "p.conf", "model = bs\nd = 2\nseed = 9\n")
        assert cli.main(["price", "--config", conf, f"--seed={seed}"]) == 2
        assert "config error: seed" in capsys.readouterr().err


class TestReadmeConfigs:
    """The configs README's command lines name exist and run."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_readme_names_committed_configs(self):
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        named = {w for w in readme.split() if w.startswith("experiments/")}
        assert named == {"experiments/bs8.conf", "experiments/ls15.conf"}
        assert all((self.ROOT / path).is_file() for path in named)
        # bs8.conf is README's own config block
        assert (self.ROOT / "experiments/bs8.conf").read_text(encoding="utf-8") in readme

    @pytest.mark.parametrize(
        "verb,conf",
        [("decomp", "bs8"), ("decomp", "ls15"), ("price", "bs8"), ("converge", "bs8"), ("vg", "ls15")],
    )
    def test_verb_runs(self, tmp_path, capsys, verb, conf):
        argv = [verb, "--config", str(self.ROOT / "experiments" / f"{conf}.conf")]
        if verb in ("converge", "vg"):
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out


class TestPlotVerb:
    def make_csv(self, tmp_path):
        conf = write_config(tmp_path / "c.conf", BS2_SWEEP)
        out = str(tmp_path / "series")
        assert cli.main(["converge", "--config", conf, "--out", out]) == 0
        return tmp_path / "series.csv"

    def test_one_series_per_method(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        assert cli.main(["plot", str(csv_path)]) == 0
        script = csv_path.with_suffix(".gp").read_text(encoding="utf-8")
        assert script.count("with linespoints") == 3
        for method in ("MC", "QMC+CS", "aSG+CS"):
            assert f'title "{method}"' in script

    def test_idempotent_bytes(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        gp = csv_path.with_suffix(".gp")
        assert cli.main(["plot", str(csv_path)]) == 0
        first = gp.read_bytes()
        assert cli.main(["plot", str(csv_path)]) == 0
        assert gp.read_bytes() == first

    def test_empty_csv_warns(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("method,n_points,estimate,rel_error,seconds,status\n")
        assert cli.main(["plot", str(empty)]) == 0
        script = empty.with_suffix(".gp").read_text(encoding="utf-8")
        assert "warning" in script
        assert "linespoints" not in script

    def test_missing_csv(self, tmp_path):
        assert cli.main(["plot", str(tmp_path / "absent.csv")]) == 2

    def test_unknown_method_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "method,n_points,estimate,rel_error,seconds,status\nFOO,10,1.0,0.1,0.0,ok\n"
        )
        assert cli.main(["plot", str(bad)]) == 2
        assert "config error: bad.csv has unknown method 'FOO'" in capsys.readouterr().err

    def test_missing_columns_are_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert cli.main(["plot", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error: bad.csv has no method or rel_error column" in err


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        conf = write_config(tmp_path / "p.conf", "example = ls15\n")
        # the child imports the same smoothquad as this process, even when
        # only pytest's own path setting put it on sys.path
        package_root = str(Path(smoothquad.__file__).resolve().parent.parent)
        path = filter(None, [package_root, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        result = subprocess.run(
            [sys.executable, "-m", "smoothquad", "decomp", "--config", conf],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
        assert result.returncode == 0
        assert "0.00023 / 0.03432 / 0.00652" in result.stdout

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the method tables and the checkpoint maps are dicts; their order
        # must come from the config, not from string hashing
        sweeps = {
            "converge": "model = bs\nd = 3\nseed = 11\nmethods = MC\nmethods = aSG\n"
            "methods = aSG+CS\nmethods = aSG+CS2\nmethods = QMC+CS+CV\nbudgets = 18\n"
            "budgets = 108\ntol_schedule = 1e-2\ntol_schedule = 1e-4\n",
            "vg": "example = ls15_modified\nmethods = MC+CS\nmethods = aSG+CS\n"
            "methods = aSG+CS2\nbudgets = 108\ntol_schedule = 1e-2\n",
        }
        package_root = str(Path(smoothquad.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        runs = {}
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
            for verb, text in sweeps.items():
                work = tmp_path / f"{verb}{hash_seed}"
                work.mkdir()
                conf = write_config(work / "s.conf", text)
                args = [verb, "--config", conf, "--out", str(work / "s")]
                args += ["--trace"] if verb == "converge" else []
                runs[verb, hash_seed] = work, subprocess.Popen(
                    [sys.executable, "-m", "smoothquad", *args],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
        outputs = {}
        for key, (work, proc) in runs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            # the stdout names the CSV it wrote, which differs between the runs
            out = out.replace(str(work), "<work>")
            csv_text = strip_seconds((work / "s.csv").read_text(encoding="utf-8"))
            outputs[key] = csv_text, out, err
        for verb in sweeps:
            assert outputs[verb, "0"] == outputs[verb, "1"]
        assert outputs["converge", "0"][2].count("\n") > 10
        assert "best v [1, 1, 1]" in outputs["vg", "0"][1]
