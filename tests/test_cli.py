import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothquad
from smoothquad import cli, linalg, models, pricing
from smoothquad.errors import BudgetExhausted, ConfigInvalid
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
            "model = vg\nd = 3\nseed = 1\ntheta = 0.1\n",
            "model = vg\nd = 2\nseed = 1\nnu = 0\n",
            "model = vg\nd = 2\nseed = 1\ntheta_range = 0.5\n",
            "example = ls16\n",
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

    def test_binary_search_above_its_cap_is_a_row_status(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_bs_reference", lambda model: 1.0)
        conf = write_config(
            tmp_path / "d26.conf",
            "model = bs\nd = 26\nseed = 3\nmethods = QMC+CS\nmethods = aSG+CS2\n"
            "budgets = 18\ntol_schedule = 1e-1\n",
        )
        out = str(tmp_path / "d26")
        assert cli.main(["converge", "--config", conf, "--out", out]) == 0
        lines = (tmp_path / "d26.csv").read_text(encoding="utf-8").strip().splitlines()
        rows = [row.split(",") for row in lines[1:]]
        assert [(r[0], r[-1]) for r in rows] == [
            ("QMC+CS", "ok"),
            ("aSG+CS2", "DimensionTooLarge"),
        ]
        assert float(rows[0][2]) > 0.0

    def test_seed_override_changes_rows(self, tmp_path):
        base = self.run_sweep(tmp_path, "base")
        moved = self.run_sweep(tmp_path, "moved", ("--seed", "10"))
        assert strip_seconds(base) != strip_seconds(moved)

    def test_empty_methods_rejected(self, tmp_path):
        conf = write_config(tmp_path / "m.conf", "model = bs\nd = 2\nseed = 9\n")
        assert cli.main(["converge", "--config", conf]) == 2

    def test_rejects_vg_model(self, tmp_path):
        conf = write_config(
            tmp_path / "m.conf", "model = vg\nd = 2\nseed = 9\nmethods = MC\n"
        )
        assert cli.main(["converge", "--config", conf]) == 2


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
            (["MC+CS", "aSG+CS2"], [("MC+CS", "ok"), ("aSG+CS2", "DimensionTooLarge")]),
        ],
    )
    def test_binary_search_only_for_cs2_rows(
        self, tmp_path, monkeypatch, capsys, methods, statuses
    ):
        monkeypatch.setattr(cli, "_vg_reference", lambda model, tols: 1.0)
        text = "model = vg\nd = 26\nseed = 1\nbudgets = 18\ntol_schedule = 1e-1\n"
        text += "".join(f"methods = {m}\n" for m in methods)
        conf = write_config(tmp_path / "vg26.conf", text)
        out = str(tmp_path / "vg26")
        assert cli.main(["vg", "--config", conf, "--out", out]) == 0
        assert "best v" not in capsys.readouterr().out
        lines = (tmp_path / "vg26.csv").read_text(encoding="utf-8").strip().splitlines()
        rows = [row.split(",") for row in lines[1:]]
        assert [(r[0], r[-1]) for r in rows] == statuses
        assert float(rows[0][2]) > 0.0


class TestReferenceBudget:
    """A reference that runs out of budget keeps its partial value and
    says so on stderr."""

    VALUE = 0.123456789
    CONFIGS = {
        "converge": (BS2_SWEEP, "reference_price"),
        "vg": (
            "model = vg\nd = 2\nseed = 5\nmethods = MC+CS\nbudgets = 18\n"
            "tol_schedule = 1e-2\n",
            "price_vg_smoothed",
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
        converged = self.VALUE if verb == "converge" else (self.VALUE, None)
        state = AdaptiveState(dim=2, value=self.VALUE, eta=3.5e-6, evaluations=4321)

        def exhausted(*args, **kwargs):
            raise BudgetExhausted("4321 evaluations exceed budget 4000", state=state)

        code, csv_ok, out_ok, err_ok = self.run(
            tmp_path, capsys, monkeypatch, verb, lambda *a, **k: converged
        )
        assert code == 0 and "not converged" not in err_ok
        code, csv_text, out, err = self.run(tmp_path, capsys, monkeypatch, verb, exhausted)
        assert code == 0
        assert csv_text == csv_ok
        assert out == out_ok
        tol = pricing.reference_tolerance(2) if verb == "converge" else 1e-4
        assert err == (
            f"reference not converged: BudgetExhausted at tol {tol:g}, "
            "eta 3.500e-06 after 4321 evaluations\n"
        )


class TestDecompVerb:
    def test_fixed_example_report(self, tmp_path, capsys):
        conf = write_config(tmp_path / "d.conf", "example = ls15\n")
        assert cli.main(["decomp", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "lambda_sq (v = 1): 0.00023 / 0.03432 / 0.00652" in out
        assert "best v:" in out

    def test_report_matches_brute_force(self, tmp_path):
        conf = write_config(tmp_path / "d.conf", "model = bs\nd = 4\nseed = 31\n")
        cfg = cli.parse_config(conf)
        report = cli.report_decomposition(cfg)
        assert report.count("/") >= 3

    def test_best_v_at_the_search_cap(self, tmp_path, capsys):
        conf = write_config(tmp_path / "d.conf", "model = bs\nd = 25\nseed = 2\n")
        assert cli.main(["decomp", "--config", conf]) == 0
        out = capsys.readouterr().out
        sigma = models.effective_bs(models.random_instance(25, 2)).Sigma
        v, _ = linalg.best_binary_v(sigma)
        assert f"best v: {v.astype(int).tolist()}\n" in out


class TestPriceVerb:
    def test_prints_reference(self, tmp_path, capsys):
        conf = write_config(tmp_path / "p.conf", "model = bs\nd = 2\nseed = 9\n")
        assert cli.main(["price", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model bs d 2")
        price = float(out.strip().splitlines()[-1].split()[-1])
        assert 0.0 < price < models.random_instance(2, 9).forward()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "nine"])
    def test_seed_flag_validated_like_config(self, tmp_path, capsys, seed):
        conf = write_config(tmp_path / "p.conf", "model = bs\nd = 2\nseed = 9\n")
        assert cli.main(["price", "--config", conf, f"--seed={seed}"]) == 2
        assert "config error: seed" in capsys.readouterr().err


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
