"""End-to-end CLI tests: subcommand behavior, file outputs, reproducibility,
usage errors, config files, and exit codes."""

import argparse
import hashlib
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
import equifdp.model
from equifdp import cli


def run_cli(args):
    return cli.main(list(args))


def _reject_non_finite(constant):
    raise ValueError(f"non-finite number {constant} in the CLI's JSON")


def load_json(text):
    """Parse the CLI's JSON strictly: NaN and Infinity, which json.dumps
    writes but JSON does not allow, fail the test."""
    return json.loads(text, parse_constant=_reject_non_finite)


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
        report = load_json(capsys.readouterr().out)
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
        report = load_json(capsys.readouterr().out)
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
        report = load_json(capsys.readouterr().out)
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
        report = load_json(capsys.readouterr().out)
        assert math.isfinite(report["theory"]["variance"])

    @pytest.mark.parametrize("mu", ["1.7e308", repr(sys.float_info.max)])
    def test_shift_near_float_max_gives_the_closed_form_law(self, mu, capsys):
        # mu*q(t) and mu**2 both overflow in the alternative density; its
        # limit 0, not inf - inf = NaN, must leave BH's closed forms
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                ["theory", "--pi0", "0.5", "--mu", mu, "--alpha", "0.2", "--theta", "0"]
            ) == 0
        report = load_json(capsys.readouterr().out)
        theory, closed = report["theory"], report["bh_closed_form"]
        for key in ("sigma2", "c_squared", "variance"):
            assert theory[key] == pytest.approx(closed[key], rel=1e-12)

    def test_case_i_variance_near_float_max_is_strict_json(self, capsys):
        # theta * c**2 is 5.9e307 at theta = 1e306; at 1e308 it overflows and
        # the command is a usage error (USAGE_ERRORS)
        argv = ["theory", "--pi0", "0.99", "--mu", "0.3", "--alpha", "0.5", "--theta", "1e306"]
        assert run_cli(argv) == 0
        report = load_json(capsys.readouterr().out)
        for section in ("theory", "bh_closed_form"):
            assert report[section]["variance"] == pytest.approx(5.9119e307, rel=1e-4)

    @pytest.mark.parametrize(
        "pi0,mu,alpha", [("0.5", "0.2", "0.01"), ("0.9", "0.2", "0.01"), ("0.7", "0.3", "0.001")]
    )
    def test_fixed_point_far_below_the_first_bracket(self, pi0, mu, alpha, capsys):
        # t* lies far below 1e-14, where bisection on [left, 1 - 1e-14] runs
        # out of its 300 steps (exit 1 before); in q'(t*), G(t*)**2
        # underflows to 0 at the second point (an infinite law before) and
        # to a subnormal with 5 digits left at the third
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                ["theory", "--pi0", pi0, "--mu", mu, "--alpha", alpha, "--theta", "0"]
            ) == 0
        report = load_json(capsys.readouterr().out)
        t_star = report["theory"]["t_star"]
        assert 1e-300 < t_star < 1e-150
        cdf = equifdp.MixtureCdf(float(pi0), float(mu))
        assert abs(cdf(t_star) * float(alpha) / t_star - 1.0) <= 1e-12
        theory, closed = report["theory"], report["bh_closed_form"]
        for key in ("sigma2", "c_squared", "variance"):
            assert theory[key] == pytest.approx(closed[key], rel=1e-10)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        pi0=st.floats(0.01, 0.99),
        mu=st.floats(1.0, 20.0),
        alpha=st.floats(0.01, 0.5),
        theta=st.floats(-1.0, 10.0),
    )
    def test_theory_json_floats_round_trip(self, pi0, mu, alpha, theta, capsys):
        # every float the report prints parses back to the law's own value
        argv = ["theory", "--pi0", repr(pi0), "--mu", repr(mu), "--alpha", repr(alpha)]
        assert run_cli([*argv, f"--theta={theta!r}"]) == 0
        report = load_json(capsys.readouterr().out)
        law = equifdp.asymptotic_law(
            equifdp.MixtureCdf(pi0, mu), equifdp.BH(alpha), equifdp.ThetaOverM(theta)
        )
        assert report["params"] == {"pi0": pi0, "mu": mu, "alpha": alpha}
        assert report["theory"] == law.to_dict()

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
        assert load_json((out / "theory.json").read_text())["theory"]["regime"] == "case_i"
        assert load_json((out / "config.json").read_text())["command"] == "theory"

    def test_out_config_echoes_the_regime(self, tmp_path):
        # the three regimes give three laws, so three different echoes
        echoes = []
        for k, regime in enumerate((["--theta", "0"], ["--theta", "4"], ["--case-ii"])):
            out = tmp_path / str(k)
            args = ["theory", "--pi0", "0.5", "--mu", "2", "--alpha", "0.2", *regime]
            assert run_cli(args + ["--out", str(out)]) == 0
            echoes.append(load_json((out / "config.json").read_text())["rho_seq"])
        assert echoes == [
            {"kind": "theta_over_m", "theta": 0.0},
            {"kind": "theta_over_m", "theta": 4.0},
            {"kind": "power_law", "c": 1.0, "gamma": 0.5},
        ]

    def test_tiny_null_weight_matches_the_closed_form(self, capsys):
        # at pi0 = 1e-150 sigma2's null product z0 * t*(1 - t*) * z0 is about
        # 1e-300, still a normal float
        args = ["theory", "--pi0", "1e-150", "--mu", "2", "--alpha", "0.2", "--theta", "0"]
        assert run_cli(args) == 0
        report = load_json(capsys.readouterr().out)
        theory, closed = report["theory"], report["bh_closed_form"]
        for key in ("sigma2", "c_squared", "variance"):
            assert theory[key] == pytest.approx(closed[key], rel=1e-12)


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
        summary = load_json((out / "summary.json").read_text())
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
        summary = load_json((out / "summary.json").read_text())
        assert summary["theory"] is None
        assert any("regime" in w for w in summary["warnings"])

    @pytest.mark.parametrize(
        "regime, note",
        [
            (["--rho", "0"], " (R=5 < 100: statistical diagnostics not reported)\n"),
            (["--rho", "0.3"], " (no theory)\n"),
        ],
        ids=["few-replicates", "fixed-rho"],
    )
    def test_line_without_variance_ratio_names_its_cause(self, regime, note, tmp_path, capsys):
        # a run with a theory but too few replicates for the ratio says so;
        # only a run without a theory prints "(no theory)"
        args = [
            "simulate", "--m", "100", "--pi0", "0.5", "--mu", "2", "--alpha", "0.2",
            "--replicates", "5", "--out", str(tmp_path / "few"), *regime,
        ]
        assert run_cli(args) == 0
        line = capsys.readouterr().out
        assert line.startswith(f"wrote {tmp_path / 'few'}/summary.json: mean_fdp=")
        assert line.endswith(note) and "variance_ratio" not in line

    def test_power_law_is_echoed_with_its_constants(self, tmp_path):
        out = tmp_path / "power"
        args = [
            "simulate", "--m", "100", "--gamma", "0.5", "--rho-coef", "2", "--pi0", "0.5",
            "--mu", "2", "--alpha", "0.2", "--replicates", "5", "--out", str(out),
        ]
        assert run_cli(args) == 0
        want = {"kind": "power_law", "c": 2.0, "gamma": 0.5}
        assert load_json((out / "config.json").read_text())["rho_seq"] == want
        assert load_json((out / "summary.json").read_text())["config"]["rho_seq"] == want

    def test_theta_flag_selects_case_i(self, tmp_path):
        out = tmp_path / "theta"
        args = [
            "simulate", "--m", "500", "--theta", "4", "--pi0", "0.5", "--mu", "2",
            "--alpha", "0.2", "--replicates", "150", "--seed", "1", "--out", str(out),
        ]
        assert run_cli(args) == 0
        summary = load_json((out / "summary.json").read_text())
        assert summary["theory"]["regime"] == "case_i"
        assert summary["config"]["rho"] == pytest.approx(4.0 / 500)

    def test_shift_near_float_max_reports_the_law(self, tmp_path):
        out = tmp_path / "huge"
        args = [
            "simulate", "--m", "100", "--theta", "0", "--pi0", "0.5", "--mu", "1.7e308",
            "--alpha", "0.2", "--replicates", "100", "--seed", "1", "--out", str(out),
        ]
        assert run_cli(args) == 0
        summary = load_json((out / "summary.json").read_text())
        assert summary["theory_variance"] == pytest.approx(0.16, rel=1e-12)
        assert summary["variance_ratio"] is not None and summary["warnings"] == []

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
        # the exit code reads the violations summary.json records
        monkeypatch.setattr(equifdp.experiment, "check_tolerances", lambda s: ["forced violation"])
        out = tmp_path / "bad"
        assert run_cli(SIM_ARGS + ["--out", str(out), "--check"]) == cli.EXIT_CHECK_FAILED
        summary = load_json((out / "summary.json").read_text())
        assert summary["tolerance_violations"] == ["forced violation"]

    def test_allocation_failure_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # numpy raises a MemoryError subclass where a block cannot be allocated
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "run", fail)
        assert run_cli(SIM_ARGS + ["--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 745. GiB for an array\n"
        assert not (tmp_path / "o").exists()


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
        summary = load_json((out / "summary.json").read_text())
        assert summary["config"]["m"] == 1000  # from file
        assert summary["config"]["replicates"] == 60  # flag wins

    def test_config_equals_file_loads_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 100\nrho = 0\npi0 = 0.5\nmu = 2\nalpha = 0.2\nreplicates = 5\n")
        out = tmp_path / "cfgout"
        assert run_cli(["simulate", f"--config={cfg}", "--out", str(out)]) == 0
        assert load_json((out / "summary.json").read_text())["config"]["replicates"] == 5

    @pytest.mark.parametrize("spelling", ["--conf {}", "--co={}", "--confi {}"])
    def test_abbreviated_config_is_usage_error(self, spelling, tmp_path_factory, tmp_path, capsys):
        # argparse takes an abbreviation for --config, which would run without the file
        cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
        cfg.write_text("replicates = 5\n")
        argv = SIM_ARGS + spelling.format(cfg).split()
        assert_usage_error(argv, "--config", tmp_path, capsys)

    # m = 10 puts the FDP on a coarse lattice, so the KS check fails
    _LATTICE_RUN = "m = 10\ntheta = 0\npi0 = 0.5\nmu = 2\nalpha = 0.2\nreplicates = 200\n"

    @pytest.mark.parametrize("word, code", [("yes", 3), ("On", 3), ("off", 0), ("0", 0)])
    def test_check_key_takes_boolean_words(self, word, code, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self._LATTICE_RUN + f"check = {word}\n")
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code

    def test_case_ii_key_selects_the_regime(self, tmp_path, capsys):
        cfg = tmp_path / "theory.cfg"
        cfg.write_text("pi0 = 0.5\nmu = 2\nalpha = 0.2\ncase-ii = on\n")
        assert run_cli(["theory", "--config", str(cfg)]) == 0
        assert load_json(capsys.readouterr().out)["theory"]["regime"] == "case_ii"

    def test_boolean_key_with_another_word_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self._LATTICE_RUN + "check = maybe\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == cli.EXIT_RUNTIME
        assert f"{cfg}:7: check must be true or false" in capsys.readouterr().err

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
        summary = load_json((out / "summary.json").read_text())
        assert [row["m"] for row in summary["rows"]] == [100, 200, 400]


# (mu, rho) whose rounding in the oracle rescaling breaks the run at m = 1000:
# variance ratio 124 and KS 0.75, variance ratio 1.110 and KS 0.055 (against
# 1.047 and 0.038 at mu = 2), and an overflow
ORACLE_MU_BEYOND_ROUNDING = [("1e16", "0.3"), ("1e9", "0.999999999999"), ("1.7e308", "0.3")]


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

    @pytest.mark.parametrize("mu,rho", ORACLE_MU_BEYOND_ROUNDING)
    def test_mu_beyond_the_rounding_bound_is_usage_error(self, mu, rho, tmp_path, capsys):
        # used to print wrong FDPs, warn of overflow, or exit 2 naming a mu of inf
        argv = ["oracle", "--rho", rho, "--m", "1000", "--pi0", "0.5", "--mu", mu,
                "--alpha", "0.2", "--replicates", "50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_usage_error(
                argv, f"mu={float(mu)!r} is too large for the oracle rescaling at "
                f"rho={float(rho)!r} and m=1000", tmp_path, capsys,
            )

    def test_run_and_config_echo(self, tmp_path):
        out = tmp_path / "oracle"
        args = [
            "oracle", "--rho", "0.3", "--m", "400", "--pi0", "0.5", "--mu", "2",
            "--alpha", "0.2", "--replicates", "150", "--seed", "9", "--out", str(out),
        ]
        assert run_cli(args) == 0
        config = load_json((out / "config.json").read_text())
        assert config["command"] == "oracle"
        assert config["oracle"] is True
        assert config["rho"] == 0.3 and config["seed"] == 9
        summary = load_json((out / "summary.json").read_text())
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


# a complete command line of each subcommand, output directory left out
RUNNABLE = {
    "simulate": "simulate --theta 0 " + VALID_FLAGS["simulate"],
    "rate-study": "rate-study --theta 0 --m-grid 100,200,400 " + VALID_FLAGS["rate-study"],
    "oracle": "oracle --rho 0.3 " + VALID_FLAGS["oracle"],
    "theory": "theory --theta 0 " + VALID_FLAGS["theory"],
}


def assert_one_error_line(argv, capsys):
    """The command returns exit code 1 and prints exactly one ``error:``
    line on stderr."""
    assert run_cli(argv) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


class TestRuntimeFailures:
    """An output directory that cannot be made and a --config file that is
    not text each end in one error line with exit code 1."""

    @pytest.fixture
    def blocked(self, tmp_path):
        """A directory path under a regular file, which mkdir cannot make
        whatever the user's permissions."""
        regular = tmp_path / "regular"
        regular.write_text("")
        return regular / "sub"

    def assert_nothing_written(self, blocked):
        assert [p.name for p in blocked.parent.parent.iterdir()] == ["regular"]
        assert blocked.parent.read_text() == ""

    @pytest.mark.parametrize("command", ["simulate", "oracle", "rate-study", "theory"])
    def test_out_under_a_regular_file(self, command, blocked, capsys):
        argv = RUNNABLE[command].split() + ["--out", str(blocked)]
        assert str(blocked) in assert_one_error_line(argv, capsys)
        self.assert_nothing_written(blocked)

    @pytest.mark.parametrize("command", ["simulate", "oracle", "rate-study"])
    def test_env_outdir_under_a_regular_file(self, command, blocked, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_OUTDIR, str(blocked))
        assert str(blocked) in assert_one_error_line(RUNNABLE[command].split(), capsys)
        self.assert_nothing_written(blocked)

    def test_config_file_that_is_not_text(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe")
        err = assert_one_error_line(["simulate", "--config", str(cfg)], capsys)
        assert f"{cfg}: not a text file" in err


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
    ("rate-study --theta 0 --m-grid 100,x", "--m-grid: must be comma-separated integers"),
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
    # t* within 1e-10 of 1 at pi0 = 0.5: 1 - t* is 2e-11, and 2e-15 (above 1 - 1e-14)
    ("theory --theta 0 --alpha 0.99999999999", "within about (1 - pi0) * 1e-10 of 1"),
    ("simulate --theta 0 --alpha 0.999999999999999", "within about (1 - pi0) * 1e-10 of 1"),
    # 1 - t* is 1.2e-9 at pi0 = 0.999999, but h right of t* is lost to rounding
    ("theory --theta 0 --pi0 0.999999 --alpha 0.9999999999999988",
     "the sign-pattern check cannot tell its sign"),
    # pi0 * t below the normal floats: G1(t) underflows to 0 at mu = 0.5
    ("theory --theta 0 --mu 0.5 --threshold 1e-320", "pi0 * t* underflows below the normal floats"),
    ("simulate --theta 0 --threshold 1e-320", "pi0 * t* underflows below the normal floats"),
    # sigma2's null product, of order pi0**2, below the normal floats:
    # subnormal at 1e-160, 0 at 1e-200 and 1e-300
    ("theory --theta 0 --pi0 1e-160", "a variance component underflows below the normal floats"),
    ("theory --theta 0 --pi0 1e-200", "a variance component underflows below the normal floats"),
    ("theory --theta 0 --pi0 1e-300", "a variance component underflows below the normal floats"),
    # theta * c**2 overflows (c**2 = 59.1): the law would print Infinity
    ("theory --pi0 0.99 --mu 0.3 --alpha 0.5 --theta 1e308",
     "case-i variance sigma2 + theta*c**2 is not finite at theta=1e+308, c**2=59.1"),
    # just below that bound the law's variance is finite, but the closed
    # form's own sigma2 + theta*c**2 overflows, its c**2 rounding a little
    # above the law's 59.119063342284136: bh_closed_form would print Infinity
    ("theory --pi0 0.99 --mu 0.3 --alpha 0.5 --theta 3.0408011108940184e+306",
     "closed-form variance is not finite at theta=3.0408011108940184e+306, "
     "c**2=59.11906334228739"),
    # c * m**-gamma rounds to 0, and a_m = rho_m**-0.5 would divide by it
    ("simulate --gamma 0.5 --rho-coef 5e-324",
     "rho_m = c * m**-gamma rounds to 0 at c=5e-324, gamma=0.5, m=100"),
    ("rate-study --m-grid 100,200,400 --gamma 0.5 --rho-coef 5e-324",
     "rho_m = c * m**-gamma rounds to 0 at c=5e-324, gamma=0.5, m=100"),
    # 1e-323 at the grid's first m, 0 at its last
    ("rate-study --m-grid 100,200,10000 --gamma 0.5 --rho-coef 1e-322",
     "rho_m = c * m**-gamma rounds to 0 at c=1e-322, gamma=0.5, m=10000"),
]


def assert_usage_error(argv, message, workdir, capsys):
    """The command exits 2 through SystemExit, names `message` on stderr and
    prints or writes nothing else."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", "out"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
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


# sha256 of every file three small commands write, recorded before the run
# subcommands shared one command body; they pin the bytes of the frozen outputs
_PIN_FLAGS = ["--pi0", "0.5", "--mu", "2", "--alpha", "0.2"]
OUTPUT_PINS = {
    "simulate": (
        ["simulate", "--m", "500", "--theta", "1", *_PIN_FLAGS,
         "--replicates", "200", "--seed", "7", "--workers", "1"],
        {
            "config.json": "ba9e1d25dd5a83be3067002541bdb6df8a144f60caf6cd2c57e46b87c972fe63",
            "replicates.csv": "1cb6f8785b8d23ea0605e1da00e80ec10b5a50ef45a52b8cf09c9c3ccb8f0a85",
            "summary.json": "7a6728ef4128dfae2bd65364910088b3d77bfb6b0d53aacdd04d04f295ad96e3",
        },
    ),
    "oracle": (
        ["oracle", "--rho", "0.3", "--m", "400", *_PIN_FLAGS,
         "--replicates", "150", "--seed", "9", "--workers", "2"],
        {
            "config.json": "703646c37bd678f31295f3f18ec2636bea3d4eb619190613c1dc73bf180d871d",
            "replicates.csv": "71663dad360f4aec9a4d7d405c9b0c2e9b721690570f8225064868de49ce76b0",
            "summary.json": "8caf9829a0d3ebc2d3e358a2d170386a2a9622d22fa1a29b7ef11ab0dc3e9746",
        },
    ),
    "rate-study": (
        ["rate-study", "--rho", "0.3", "--m-grid", "100,200,400", *_PIN_FLAGS,
         "--replicates", "100", "--seed", "3", "--workers", "1"],
        {
            "config.json": "06aeeb7694181caaa5e02370e7124cbcebdd34b34bb0c32870b64acec3206154",
            "rate_study.csv": "d5da4336e48786afd3f49d92a7d0fe74c58c6b129b90016d49e31f07d83343c3",
            "summary.json": "4e8649474392a1993ae9a2a2552b56f3146fe1c16b0d3d8ab58d8f0b2d9abd94",
        },
    ),
    # the fixed-threshold path, recorded before a fixed threshold computed
    # its cut's rounding band when built
    "simulate-threshold": (
        ["simulate", "--m", "500", "--rho", "0.1", "--threshold", "0.01", *_PIN_FLAGS,
         "--replicates", "200", "--seed", "11", "--workers", "1"],
        {
            "config.json": "0467220e683039b14c3ced89bb3d8174112a0b2effc0ebe02e377403c9722c55",
            "replicates.csv": "992dd538627965b62e61f5606d2fa3271a873c73df25d15134c59f2e233d5da1",
            "summary.json": "a9922ce0d24e6e96291b30234b2235a06af7836086051c3142c4dfb2cec33bce",
        },
    ),
}


@pytest.mark.parametrize("name", list(OUTPUT_PINS))
def test_output_bytes_are_pinned(name, tmp_path):
    argv, digests = OUTPUT_PINS[name]
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out").iterdir()
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in written} == digests


@pytest.mark.parametrize("block_elems", [1, 16384, 32768])
@pytest.mark.parametrize("name", list(OUTPUT_PINS))
def test_output_bytes_do_not_depend_on_the_block_size(name, block_elems, tmp_path, monkeypatch):
    # one row per block, the earlier 16384 values, and the 256 KiB block
    monkeypatch.setattr(equifdp.model, "_BLOCK_ELEMS", block_elems)
    test_output_bytes_are_pinned(name, tmp_path)


# every subcommand's flags, recorded before the shared ones were declared once:
# dest -> (option strings, type, default, required, action), with "cpu" for
# --workers's default of os.cpu_count() or 1, and each mutually exclusive
# group as (required, its dests)
_MODEL_FLAGS = {
    "pi0": (("--pi0",), "float", None, True, "_StoreAction"),
    "mu": (("--mu",), "float", None, True, "_StoreAction"),
    "alpha": (("--alpha",), "float", None, True, "_StoreAction"),
}
_M_FLAG = {"m": (("--m",), "int", None, True, "_StoreAction")}
_THRESHOLD_FLAG = {"threshold": (("--threshold",), "float", None, False, "_StoreAction")}
_FILE_FLAGS = {
    "out": (("--out",), "str", None, False, "_StoreAction"),
    "config": (("--config",), "str", None, False, "_StoreAction"),
}
_REGIME_FLAGS = {
    "rho": (("--rho",), "float", None, False, "_StoreAction"),
    "theta": (("--theta",), "float", None, False, "_StoreAction"),
    "gamma": (("--gamma",), "float", None, False, "_StoreAction"),
    "rho_coef": (("--rho-coef",), "float", 1.0, False, "_StoreAction"),
}
_RUN_FLAGS = _FILE_FLAGS | {
    "replicates": (("--replicates",), "int", 1000, False, "_StoreAction"),
    "seed": (("--seed",), "int", 0, False, "_StoreAction"),
    "workers": (("--workers",), "int", "cpu", False, "_StoreAction"),
    "check": (("--check",), None, False, False, "_StoreTrueAction"),
}
_REGIME_GROUP = [(True, ("gamma", "rho", "theta"))]
SUBCOMMAND_FLAGS = {
    "theory": (
        _MODEL_FLAGS | _THRESHOLD_FLAG | _FILE_FLAGS | {
            "theta": (("--theta",), "float", None, False, "_StoreAction"),
            "case_ii": (("--case-ii",), None, False, False, "_StoreTrueAction"),
        },
        [(True, ("case_ii", "theta"))],
    ),
    "simulate": (
        _M_FLAG | _MODEL_FLAGS | _REGIME_FLAGS | _THRESHOLD_FLAG | _RUN_FLAGS, _REGIME_GROUP
    ),
    "rate-study": (
        _MODEL_FLAGS | _REGIME_FLAGS | _THRESHOLD_FLAG | _RUN_FLAGS
        | {"m_grid": (("--m-grid",), "_m_grid", None, True, "_StoreAction")},
        _REGIME_GROUP,
    ),
    "oracle": (
        _M_FLAG | _MODEL_FLAGS | _RUN_FLAGS
        | {"rho": (("--rho",), "float", None, True, "_StoreAction")},
        [],
    ),
}


def test_every_subcommand_keeps_its_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(SUBCOMMAND_FLAGS)
    cpu = os.cpu_count() or 1
    for name, p in sub.choices.items():
        flags = {
            a.dest: (tuple(a.option_strings), getattr(a.type, "__name__", None),
                     "cpu" if a.dest == "workers" and a.default == cpu else a.default,
                     a.required, type(a).__name__)
            for a in p._actions if a.dest != "help"
        }
        groups = sorted(
            (g.required, tuple(sorted(a.dest for a in g._group_actions)))
            for g in p._mutually_exclusive_groups
        )
        assert (flags, groups) == SUBCOMMAND_FLAGS[name], name


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "equifdp" in capsys.readouterr().out
