"""End-to-end CLI tests: subcommand behavior, file outputs, reproducibility,
usage errors, config files, and exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import equifdp
from equifdp import cli


def run_cli(args):
    return cli.main(list(args))


@pytest.fixture(autouse=True)
def isolated_outdir(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUTDIR, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestTheory:
    def test_theta_zero_report(self, capsys):
        assert run_cli(
            ["theory", "--pi0", "0.5", "--mu", "2", "--alpha", "0.2", "--theta", "0"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        generic = report["theory"]
        closed = report["bh_closed_form"]
        assert generic["variance"] == pytest.approx(closed["sigma2"], rel=1e-10)
        assert generic["variance"] == pytest.approx(closed["variance"], rel=1e-10)
        assert generic["center"] == pytest.approx(0.1, abs=1e-12)
        assert generic["rate"] == "sqrt(m)"

    def test_case_ii_variance_is_c_squared(self, capsys):
        assert run_cli(
            ["theory", "--pi0", "0.5", "--mu", "2", "--alpha", "0.2", "--case-ii"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["theory"]["variance"] == pytest.approx(
            report["theory"]["c_squared"], rel=1e-14
        )
        assert report["theory"]["variance"] == pytest.approx(
            report["bh_closed_form"]["c_squared"], rel=1e-10
        )

    def test_fixed_threshold_report(self, capsys):
        assert run_cli(
            [
                "theory", "--pi0", "0.5", "--mu", "2", "--alpha", "0.2",
                "--theta", "1", "--threshold", "0.4",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["procedure"] == {"kind": "fixed", "t": 0.4}
        assert "bh_closed_form" not in report

    def test_missing_alpha_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["theory", "--pi0", "0.5", "--mu", "2", "--theta", "0"])
        assert exc.value.code == 2

    def test_missing_regime_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["theory", "--pi0", "0.5", "--mu", "2", "--alpha", "0.2"])
        assert exc.value.code == 2

    def test_fixed_point_below_double_range_exits_1(self, capsys):
        assert run_cli(
            ["theory", "--pi0", "0.99", "--mu", "0.1", "--alpha", "0.001", "--theta", "0"]
        ) == cli.EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "t* is below double range" in captured.err

    def test_huge_shift_runs_without_warnings(self, capsys):
        # the alternative density at mu = 1e155 squares past double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                ["theory", "--pi0", "0.5", "--mu", "1e155", "--alpha", "0.2", "--theta", "0"]
            ) == 0
        report = json.loads(capsys.readouterr().out)
        assert math.isfinite(report["theory"]["variance"])

    def test_does_not_import_scipy_optimize(self, tmp_path):
        # the fixed point's Brent step is in the package, so no command pays
        # for scipy.optimize (about 23 MB resident and 0.3 s at import)
        code = (
            "import sys\n"
            "from equifdp.cli import main\n"
            "rc = main(['theory', '--pi0', '0.5', '--mu', '2', '--alpha', '0.2', '--theta', '0'])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        )
        src = str(Path(equifdp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_out_writes_files(self, tmp_path, capsys):
        out = tmp_path / "th"
        assert run_cli(
            [
                "theory", "--pi0", "0.5", "--mu", "2", "--alpha", "0.2",
                "--theta", "0", "--out", str(out),
            ]
        ) == 0
        assert (out / "theory.json").exists()
        assert (out / "config.json").exists()


SIM_ARGS = [
    "simulate", "--m", "1000", "--rho", "0", "--pi0", "0.5", "--mu", "2",
    "--alpha", "0.2", "--replicates", "200", "--seed", "7",
]


class TestSimulate:
    def test_smoke_run_writes_all_files(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
        assert (out / "config.json").exists()
        assert (out / "replicates.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 7
        assert summary["theory"] is not None
        assert len(summary["per_replicate_fdp"]) == 200

    def test_identical_seeds_give_identical_csv(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(SIM_ARGS + ["--out", str(out1)])
        run_cli(SIM_ARGS + ["--out", str(out2), "--workers", "3"])
        assert (out1 / "replicates.csv").read_bytes() == (out2 / "replicates.csv").read_bytes()

    def test_fixed_rho_without_oracle_reports_null_theory(self, tmp_path):
        out = tmp_path / "fixed"
        args = [
            "simulate", "--m", "500", "--rho", "0.3", "--pi0", "0.5", "--mu", "2",
            "--alpha", "0.2", "--replicates", "150", "--seed", "1", "--out", str(out),
        ]
        assert run_cli(args) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["theory"] is None
        assert any("regime" in w for w in summary["warnings"])

    def test_theta_flag_selects_case_i(self, tmp_path):
        out = tmp_path / "theta"
        args = [
            "simulate", "--m", "500", "--theta", "4", "--pi0", "0.5", "--mu", "2",
            "--alpha", "0.2", "--replicates", "150", "--seed", "1", "--out", str(out),
        ]
        assert run_cli(args) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["theory"]["regime"] == "case_i"
        assert summary["config"]["rho"] == pytest.approx(4.0 / 500)

    def test_missing_regime_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["simulate", "--m", "100", "--pi0", "0.5", "--mu", "2",
                 "--alpha", "0.2", "--replicates", "10"]
            )
        assert exc.value.code == 2

    def test_missing_m_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["simulate", "--theta", "1", "--pi0", "0.5", "--mu", "2",
                 "--alpha", "0.2", "--replicates", "5"]
            )
        assert exc.value.code == 2
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, workers, tmp_path, capsys):
        out = tmp_path / "none"
        with pytest.raises(SystemExit) as exc:
            run_cli(SIM_ARGS + ["--workers", workers, "--out", str(out)])
        assert exc.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_sets_outdir(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv(cli.ENV_OUTDIR, str(envdir))
        assert run_cli(SIM_ARGS) == 0
        assert (envdir / "summary.json").exists()

    def test_check_flag_passes_clean_run(self, tmp_path):
        out = tmp_path / "chk"
        assert run_cli(SIM_ARGS + ["--out", str(out), "--check"]) == 0

    def test_check_flag_turns_violations_into_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "check_tolerances", lambda s: ["forced violation"])
        out = tmp_path / "bad"
        assert run_cli(SIM_ARGS + ["--out", str(out), "--check"]) == cli.EXIT_CHECK_FAILED


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# flat key = value config\n"
            "m = 1000\nrho = 0\npi0 = 0.5\nmu = 2\nalpha = 0.2\n"
            "replicates = 120\nseed = 7\n"
        )
        out = tmp_path / "cfgout"
        assert run_cli(
            ["simulate", "--config", str(cfg), "--replicates", "60", "--out", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["m"] == 1000  # from file
        assert summary["config"]["replicates"] == 60  # flag wins

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == cli.EXIT_RUNTIME


class TestRateStudyCommand:
    def test_small_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["rate-study", "--m-grid", "100,200", "--theta", "0", "--pi0", "0.5",
                 "--mu", "2", "--alpha", "0.2", "--replicates", "50"]
            )
        assert exc.value.code == 2

    def test_three_point_study(self, tmp_path):
        out = tmp_path / "rate"
        args = [
            "rate-study", "--m-grid", "100,200,400", "--theta", "0", "--pi0", "0.5",
            "--mu", "2", "--alpha", "0.2", "--replicates", "120", "--seed", "3",
            "--out", str(out),
        ]
        assert run_cli(args) == 0
        lines = (out / "rate_study.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert [row["m"] for row in summary["rows"]] == [100, 200, 400]


class TestOracleCommand:
    def test_rho_one_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["oracle", "--rho", "1.0", "--m", "100", "--pi0", "0.5", "--mu", "2",
                 "--alpha", "0.2", "--replicates", "50"]
            )
        assert exc.value.code == 2

    def test_missing_m_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["oracle", "--rho", "0.3", "--pi0", "0.5", "--mu", "2",
                 "--alpha", "0.2", "--replicates", "5"]
            )
        assert exc.value.code == 2
        assert "--m" in capsys.readouterr().err

    def test_run_and_config_echo(self, tmp_path):
        out = tmp_path / "oracle"
        args = [
            "oracle", "--rho", "0.3", "--m", "400", "--pi0", "0.5", "--mu", "2",
            "--alpha", "0.2", "--replicates", "150", "--seed", "9", "--out", str(out),
        ]
        assert run_cli(args) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["command"] == "oracle"
        assert config["oracle"] is True
        assert config["rho"] == 0.3 and config["seed"] == 9
        summary = json.loads((out / "summary.json").read_text())
        assert summary["theory"]["theta"] == -1.0

    def test_reproducible(self, tmp_path):
        args = [
            "oracle", "--rho", "0.3", "--m", "300", "--pi0", "0.5", "--mu", "2",
            "--alpha", "0.2", "--replicates", "100", "--seed", "9",
        ]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_cli(args + ["--out", str(out1)])
        run_cli(args + ["--out", str(out2)])
        assert (out1 / "replicates.csv").read_bytes() == (out2 / "replicates.csv").read_bytes()


# valid values of every other flag a command needs
VALID_FLAGS = {
    "simulate": "--m 100 --pi0 0.5 --mu 2 --alpha 0.2 --replicates 5",
    "rate-study": "--pi0 0.5 --mu 2 --alpha 0.2 --replicates 5",
    "oracle": "--m 100 --pi0 0.5 --mu 2 --alpha 0.2 --replicates 5",
    "theory": "--pi0 0.5 --mu 2 --alpha 0.2",
}


# one invalid value per row, added to the valid flags above, and the message
# it must print: the library's, except for the unparsable --m-grid
USAGE_ERRORS = [
    ("simulate --rho 1.5", "rho must lie in [-0.010101010101010102, 1]"),
    ("simulate --theta 0 --m 1", "m must be an integer >= 2"),
    ("simulate --theta 0 --replicates 0", "replicates must be an integer >= 1"),
    ("simulate --theta 0 --seed -1", "seed must be a 64-bit unsigned integer"),
    ("simulate --theta 0 --pi0 1.5", "pi0 must lie in (0, 1)"),
    ("simulate --theta -2", "theta must be finite and >= -1"),
    ("simulate --gamma 1.5", "gamma must lie in (0, 1)"),
    ("simulate --gamma 0.5 --rho-coef inf", "c must be positive and finite"),
    ("simulate --theta 0 --threshold 1.5", "threshold must lie in (0, 1)"),
    ("rate-study --theta 0 --m-grid 100,300,200", "m_grid must be increasing"),
    ("rate-study --theta 0 --m-grid ,", "--m-grid: must be comma-separated integers"),
    # the grid's second point, not its first, is outside the model
    ("rate-study --rho -0.005 --m-grid 100,300,400", "for m=300, got -0.005"),
    ("oracle --rho 1.0", "oracle transform requires rho in (0, 1)"),
    ("theory --theta 0 --alpha 1.5", "alpha must lie in (0, 1)"),
    # --alpha is checked even where a fixed threshold replaces BH
    ("theory --theta 0 --alpha 1.5 --threshold 0.3", "alpha must lie in (0, 1)"),
    ("simulate --theta 0 --alpha 1.5 --threshold 0.3", "alpha must lie in (0, 1)"),
    ("rate-study --theta 0 --m-grid 100,200,400 --alpha 1.5 --threshold 0.3",
     "alpha must lie in (0, 1)"),
    ("theory --theta 0 --mu nan", "mu must be positive and finite"),
]


def assert_usage_error(argv, message, workdir, capsys):
    """The command exits 2 through SystemExit, names `message` on stderr and
    writes nothing."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", "out"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(workdir.iterdir())


# finite values outside each float flag's domain, for simulate at m = 100
_UNIT_OUTSIDE = st.floats(max_value=0.0) | st.floats(min_value=1.0)
OUTSIDE = {
    "pi0": _UNIT_OUTSIDE,
    "mu": st.floats(max_value=0.0),
    "alpha": _UNIT_OUTSIDE,
    "rho": st.floats(max_value=-1.0 / 99, exclude_max=True)
    | st.floats(min_value=1.0, exclude_min=True),
    "theta": st.floats(max_value=-1.0, exclude_max=True),
    "gamma": _UNIT_OUTSIDE,
    "threshold": _UNIT_OUTSIDE,
}
FLAG_OUTSIDE_ITS_DOMAIN = st.sampled_from(sorted(OUTSIDE)).flatmap(
    lambda name: st.tuples(st.just(name), OUTSIDE[name])
)


def with_non_finite_examples(test):
    """Also run NaN and +-inf, which lie outside every domain, for each flag."""
    for name in OUTSIDE:
        for value in (math.nan, math.inf, -math.inf):
            test = example(case=(name, value))(test)
    return test


class TestInvalidFlagValues:
    """Every flag value the library rejects is a usage error (exit 2); only
    runtime failures exit 1."""

    @pytest.mark.parametrize("row,message", USAGE_ERRORS, ids=[row for row, _ in USAGE_ERRORS])
    def test_exits_2_with_the_library_message(self, row, message, tmp_path, capsys):
        command, *flags = row.split()
        argv = [command, *VALID_FLAGS[command].split(), *flags]
        assert_usage_error(argv, message, tmp_path, capsys)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @with_non_finite_examples
    @given(case=FLAG_OUTSIDE_ITS_DOMAIN)
    def test_float_flag_outside_its_domain(self, case, tmp_path, capsys):
        name, value = case
        regime = [] if name in ("rho", "theta", "gamma") else ["--theta", "0"]
        argv = ["simulate", *VALID_FLAGS["simulate"].split(), *regime, f"--{name}={value!r}"]
        assert_usage_error(argv, f"{name} must", tmp_path, capsys)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "equifdp" in capsys.readouterr().out
