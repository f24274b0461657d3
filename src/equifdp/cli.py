"""Command-line interface.

Subcommands:

* ``theory``      -- closed-form limit quantities as a JSON report
* ``simulate``    -- one replicated Monte Carlo run (CSV + JSON outputs)
* ``rate-study``  -- the same across an increasing grid of m values
* ``oracle``      -- simulation with the fixed-rho rescaling applied

A run's ``config.json``, the ``config`` its ``summary.json`` records plus the
command, version and workers, reproduces it exactly.  A flat key=value file
(keys mirror the long flag names) can seed any subcommand; explicit flags
override it.  The output directory (``./equifdp_out``, ``EQUIFDP_OUTDIR``,
``--out``; the last given wins) is checked before a run and before ``theory`` prints.

Exit codes: 0 on completed computation, 2 on usage errors (a flag value the
library rejects with a ParameterError included), 1 on runtime failures.  An
output directory that cannot be created or written, or a ``--config`` file
that is not text, is a runtime failure reported as one ``error:`` line.
The tolerance violations ``summary.json`` records set the exit code only
under ``--check``, which turns them into exit code 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from ._version import __version__
from .asymptotics import MixtureCdf, asymptotic_law
from .errors import EquifdpError, ParameterError
from .experiment import (
    ExperimentConfig,
    _write_json,
    rate_study,
    run,
    write_replicates_csv,
    write_summary_json,
)
from .gaussian import phi_upper_inv, std_normal_density
from .model import FixedRho, ModelParams, PowerLaw, ThetaOverM
from .oracle import OracleParams
from .procedures import BH, FixedThreshold

ENV_OUTDIR = "EQUIFDP_OUTDIR"
DEFAULT_OUTDIR = "equifdp_out"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CHECK_FAILED = 3


def _add_model_flags(p: argparse.ArgumentParser, with_m: bool = True) -> None:
    if with_m:
        p.add_argument("--m", type=int, required=True, help="number of hypotheses")
    p.add_argument("--pi0", type=float, required=True, help="proportion of true nulls")
    p.add_argument("--mu", type=float, required=True, help="alternative mean shift")
    p.add_argument("--alpha", type=float, required=True, help="BH level")


def _add_regime_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rho", type=float, help="equi-correlation held fixed in m")
    g.add_argument("--theta", type=float, help="regime rho_m = theta/m")
    g.add_argument("--gamma", type=float, help="regime rho_m = rho-coef * m**-gamma")
    p.add_argument("--rho-coef", type=float, default=1.0, help="coefficient for --gamma")


def _add_shared_flags(p: argparse.ArgumentParser, threshold: bool = True) -> None:
    """--out, --config and, on all but oracle, --threshold: declared once for every subcommand."""
    if threshold:
        p.add_argument("--threshold", type=float, help="use a fixed threshold instead of BH")
    p.add_argument("--out", type=str, help="output directory")
    p.add_argument("--config", type=str, help="flat key=value file of flag names; flags override")


def _add_run_flags(p: argparse.ArgumentParser, threshold: bool = True) -> None:
    _add_shared_flags(p, threshold)
    p.add_argument("--replicates", type=int, default=1000, help="Monte Carlo replicates")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="worker threads (results are worker-count independent)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when statistical tolerances are violated")


def _m_grid(text: str) -> tuple[int, ...]:
    """--m-grid as one or more integers; the library checks their values."""
    try:
        grid = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        grid = ()
    if not grid:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equifdp",
        description="FDP of the BH procedure under Gaussian equi-correlation: "
        "theory evaluation and Monte Carlo verification",
    )
    parser.add_argument("--version", action="version", version=f"equifdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="closed-form limit quantities as JSON")
    p_theory.set_defaults(handler=_cmd_theory)
    _add_model_flags(p_theory, with_m=False)
    g = p_theory.add_mutually_exclusive_group(required=True)
    g.add_argument("--theta", type=float, help="regime m*rho_m -> theta")
    g.add_argument("--case-ii", action="store_true",
                   help="regime m*rho_m -> inf with rho_m -> 0")
    _add_shared_flags(p_theory)

    p_sim = sub.add_parser("simulate", help="replicated Monte Carlo run")
    p_sim.set_defaults(handler=_cmd_run)
    _add_model_flags(p_sim)
    _add_regime_flags(p_sim)
    _add_run_flags(p_sim)

    p_rate = sub.add_parser("rate-study", help="simulate across a grid of m values")
    p_rate.set_defaults(handler=_cmd_run)
    p_rate.add_argument("--m-grid", type=_m_grid, required=True,
                        help="comma-separated increasing m values (>= 3)")
    _add_model_flags(p_rate, with_m=False)
    _add_regime_flags(p_rate)
    _add_run_flags(p_rate)

    p_oracle = sub.add_parser("oracle", help="simulate with the fixed-rho rescaling")
    p_oracle.set_defaults(handler=_cmd_run)
    _add_model_flags(p_oracle)
    p_oracle.add_argument("--rho", type=float, required=True,
                          help="known fixed equi-correlation in (0, 1)")
    _add_run_flags(p_oracle, threshold=False)

    return parser


# --- config file ---------------------------------------------------------------

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}
_BOOLEAN_KEYS = {"check", "case-ii"}  # the store_true flags


def _config_tokens(path: str) -> list[str]:
    """Turn a flat key=value file into CLI tokens; keys mirror flag names."""
    tokens: list[str] = []
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise EquifdpError(f"{path}: not a text file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise EquifdpError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _BOOLEAN_KEYS:
            low = value.lower()
            if low in _TRUE_WORDS:
                tokens.append(f"--{key}")
            elif low not in _FALSE_WORDS:
                raise EquifdpError(f"{path}:{lineno}: {key} must be true or false")
        else:
            tokens.extend([f"--{key}", value])
    return tokens


_CONFIG_ABBREVIATIONS = {"--config"[:k] for k in range(4, 8)}  # --co, ..., --confi


def _inject_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the tokens of the file of the first ``--config FILE`` or
    ``--config=FILE`` right after the subcommand, so explicit flags still
    win; a trailing ``--config`` is left for argparse to report.  An
    abbreviation, which argparse would take for --config without the file
    being loaded, is a usage error."""
    path = None
    for i, token in enumerate(argv):
        name, eq, value = token.partition("=")
        if name in _CONFIG_ABBREVIATIONS:
            parser.error(f"{name} abbreviates --config; spell it --config FILE or --config=FILE")
        if name == "--config" and path is None and (eq or i + 1 < len(argv)):
            path = value if eq else argv[i + 1]
    return argv if path is None else argv[:1] + _config_tokens(path) + argv[1:]


# --- helpers ---------------------------------------------------------------------


def _outdir(args) -> Path:
    """The output directory, not made yet; a non-directory in its way fails now."""
    path = Path(args.out or os.environ.get(ENV_OUTDIR) or DEFAULT_OUTDIR)
    resolved = path.resolve()
    ancestor = next(p for p in (resolved, *resolved.parents) if p.exists())
    if not ancestor.is_dir():
        raise NotADirectoryError(f"output directory {path}: {ancestor} is not a directory")
    return path


def _echo_config(outdir: Path, args, extra: dict) -> None:
    _write_json(outdir / "config.json", {"version": __version__, "command": args.command} | extra)


def _procedure_from(args) -> BH | FixedThreshold:
    bh = BH(args.alpha)  # checks --alpha even where --threshold replaces BH
    threshold = getattr(args, "threshold", None)
    return bh if threshold is None else FixedThreshold(threshold)


# --- subcommands -----------------------------------------------------------------


def _cmd_theory(args) -> int:
    cdf = MixtureCdf(args.pi0, args.mu)
    procedure = _procedure_from(args)
    # case-ii variance does not depend on the power-law constants; any
    # representative sequence selects the regime
    rho_seq = PowerLaw(1.0, 0.5) if args.case_ii else ThetaOverM(args.theta)
    law = asymptotic_law(cdf, procedure, rho_seq)
    report = {
        "version": __version__,
        "params": {"pi0": args.pi0, "mu": args.mu, "alpha": args.alpha},
        "procedure": procedure.to_dict(),
        "theory": law.to_dict(),
    }
    if args.threshold is None:
        # closed-form BH constants, printed next to the generic-pipeline values
        t_star = law.t_star
        sigma2_cf = args.pi0 * args.alpha**2 * (1.0 - t_star) / t_star
        z = phi_upper_inv(t_star)
        c_cf = (args.pi0 * args.alpha / t_star) * std_normal_density(z)
        variance_cf = c_cf**2 if args.case_ii else sigma2_cf + args.theta * c_cf**2
        if not math.isfinite(variance_cf):  # the law's own variance may still be finite
            raise ParameterError(
                f"closed-form variance is not finite at theta={args.theta!r}, c**2={c_cf**2!r}"
            )
        report["bh_closed_form"] = {
            "t_star": t_star,
            "center": args.pi0 * args.alpha,
            "sigma2": sigma2_cf,
            "c_squared": c_cf**2,
            "variance": variance_cf,
        }
    outdir = None if args.out is None else _outdir(args)
    print(json.dumps(report, indent=2))
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "theory.json", report)
        echo = {"procedure": report["procedure"], "rho_seq": rho_seq.to_dict()}
        _echo_config(outdir, args, report["params"] | echo)
    return EXIT_OK


def _config_from(args, m_grid) -> ExperimentConfig:
    """The config of a run subcommand at m, the first m of a rate study's
    grid: oracle, and a negative or boundary --rho, which the model checks,
    declare no regime; every other regime flag declares the rho_seq giving rho."""
    m = args.m if m_grid is None else m_grid[0]
    if args.command == "oracle":
        rho_seq = None
    elif args.theta is not None:
        rho_seq = ThetaOverM(args.theta)
    elif args.gamma is not None:
        rho_seq = PowerLaw(args.rho_coef, args.gamma)
    elif args.rho == 0.0:
        rho_seq = ThetaOverM(0.0)
    elif 0.0 < args.rho < 1.0:
        rho_seq = FixedRho(args.rho)
    else:
        rho_seq = None
    rho = args.rho if rho_seq is None else rho_seq.rho_at(m)
    params = ModelParams(m=m, pi0=args.pi0, mu=args.mu, rho=rho)
    if args.command == "oracle":
        params = OracleParams(params)
    return ExperimentConfig(
        params=params,
        procedure=_procedure_from(args),
        rho_seq=rho_seq,
        replicates=args.replicates,
        seed=args.seed,
    )


def _cmd_run(args) -> int:
    """simulate, oracle and rate-study: one run, or one per m of the grid."""
    m_grid = getattr(args, "m_grid", None)
    config = _config_from(args, m_grid)
    outdir = _outdir(args)
    # made after the run: a law the library rejects is a usage error and writes nothing
    if m_grid is None:
        summary = run(config, workers=args.workers)
        outdir.mkdir(parents=True, exist_ok=True)
        write_replicates_csv(summary, outdir / "replicates.csv")
        report = write_summary_json(summary, outdir / "summary.json")
        violations, ratio = report["tolerance_violations"], summary.variance_ratio
        failed = bool(violations)
        cause = summary.warnings[-1] if ratio is None and summary.law is not None else "no theory"
        line = (
            f"wrote {outdir}/summary.json: mean_fdp={summary.mean_fdp:.6f}"
            + (f" variance_ratio={ratio:.4f}" if ratio is not None else f" ({cause})")
            + (f" violations={violations}" if violations else "")
        )
    else:
        study = rate_study(config, m_grid, workers=args.workers)
        outdir.mkdir(parents=True, exist_ok=True)
        study.write_csv(outdir / "rate_study.csv")
        report = study.to_dict()
        _write_json(outdir / "summary.json", report)
        failed = any(report["tolerance_violations"].values())
        line = f"wrote {outdir}/rate_study.csv with {len(study.rows)} rows"
    _echo_config(outdir, args, report["config"] | {"workers": args.workers})
    print(line)
    return EXIT_CHECK_FAILED if args.check and failed else EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(parser, argv))
        if getattr(args, "workers", 1) < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        return args.handler(args)
    except ParameterError as exc:
        parser.error(str(exc))
    except (OSError, EquifdpError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
