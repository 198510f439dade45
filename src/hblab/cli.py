"""Command-line frontend: construction, verification, and the experiments.

Verbs: construct, verify-outer, divergence, sarason, summability,
norm-crosscheck.  Configuration is a single JSON document with strict key
checking; individual flags override file values, which override defaults.
All outputs are deterministic for a fixed (config, seed): numbers are
emitted as shortest round-trip decimal strings and runtime is logged to
stderr, never into the report files.

Exit codes: 0 success, 2 config error, 3 construction inconsistency,
4 assertion failure, 5 precision exhaustion.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from .experiments import (
    PrecisionExhausted,
    _params_dict,
    build_divergent_combo,
    default_r_grid,
    divergence_curve,
    growth_envelope,
    sarason_series_failure,
    summability_divergence,
)
from .hb import f_plus_solve, sarason_f_plus
from .outer import (
    ConstructionParams,
    GrowthBoundError,
    ParameterError,
    check_rho_condition,
    choose_power_m,
    make_sequences,
    poisson_quad_crosscheck,
    verify_growth_bound,
)
from .pair import build_pair, pair_from_json, pair_to_json, tame_pair
from .reports import CODE_VERSION, ExperimentReport, config_hash, fmt_number
from .series import TaylorSeries

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSTRUCTION = 3
EXIT_ASSERTION = 4
EXIT_PRECISION = 5

_DEFAULTS = {
    "alpha": 1.2,
    "beta": 1.5,
    "n_terms": 8,
    "power_m": 1,
    "precision_bits": 384,
    "n_check": 5,
    "r_samples": 33,
    "seed": 0,
    "output_dir": ".",
    "formats": ["json", "csv"],
    "j_max": 512,
    "abel_degree": 3072,
    "summability_n_list": [0, 1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64],
}


class ConfigError(ValueError):
    pass


def load_config(config_path, out_dir, precision_bits, seed, fmt) -> dict:
    cfg = dict(_DEFAULTS)
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}")
        unknown = sorted(set(doc) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(doc)
    if out_dir is not None:
        cfg["output_dir"] = out_dir
    if precision_bits is not None:
        cfg["precision_bits"] = precision_bits
    if seed is not None:
        cfg["seed"] = seed
    if fmt is not None:
        cfg["formats"] = ["json", "csv"] if fmt == "both" else [fmt]
    for key in ("formats",):
        bad = sorted(set(cfg[key]) - {"json", "csv"})
        if bad:
            raise ConfigError(f"unsupported formats: {', '.join(bad)}")
    return cfg


def params_from_config(cfg) -> ConstructionParams:
    pm = cfg["power_m"]
    if pm != "auto":
        pm = int(pm)
    return ConstructionParams(
        alpha=float(cfg["alpha"]),
        beta=float(cfg["beta"]),
        n_terms=int(cfg["n_terms"]),
        power_m=pm,
        precision_bits=int(cfg["precision_bits"]),
        n_check=int(cfg["n_check"]),
    )


def write_report(report: ExperimentReport, cfg: dict):
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    report.metadata["config_hash"] = config_hash(
        {k: v for k, v in cfg.items() if k != "output_dir"}
    )
    if "json" in cfg["formats"]:
        (out / f"{report.name}.json").write_text(report.to_json())
    if "csv" in cfg["formats"]:
        (out / f"{report.name}.csv").write_text(report.to_csv())


def load_pair(cfg):
    path = Path(cfg["output_dir"]) / "pair.json"
    if not path.exists():
        raise ConfigError(f"pair.json not found in {cfg['output_dir']}; run construct first")
    return pair_from_json(path.read_text())


_common = [
    click.option("--config", "config_path", type=click.Path(), default=None),
    click.option("--out", "out_dir", type=click.Path(), default=None),
    click.option("--precision-bits", type=int, default=None),
    click.option("--seed", type=int, default=None),
    click.option(
        "--format", "fmt", type=click.Choice(["csv", "json", "both"]), default=None
    ),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def run_command(body, config_path, out_dir, precision_bits, seed, fmt):
    start = time.monotonic()
    try:
        cfg = load_config(config_path, out_dir, precision_bits, seed, fmt)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        code = body(cfg)
    except (ConfigError, ParameterError) as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(EXIT_CONFIG)
    except GrowthBoundError as e:
        click.echo(f"construction inconsistency: {e}", err=True)
        sys.exit(EXIT_CONSTRUCTION)
    except PrecisionExhausted as e:
        click.echo(f"precision exhausted: {e}", err=True)
        sys.exit(EXIT_PRECISION)
    click.echo(f"runtime: {time.monotonic() - start:.2f} s", err=True)
    sys.exit(code)


@click.group()
def main():
    """Numerical laboratory for outer functions and H(b) divergence."""


@main.command()
@common_options
def construct(config_path, out_dir, precision_bits, seed, fmt):
    """Build the pair (b, a), record the chosen power and the tail-ratio
    table, and write pair.json."""

    def body(cfg):
        params = params_from_config(cfg)
        if params.power_m == "auto":
            seq = make_sequences(params)
            m = choose_power_m(params, seq, r_samples=int(cfg["r_samples"]))
            params = params.with_power(m)
        try:
            pair = build_pair(params)
        except ArithmeticError as e:
            click.echo(f"construction inconsistency: {e}", err=True)
            return EXIT_CONSTRUCTION
        ratios = [
            [n, fmt_number(check_rho_condition(pair.seq, n))]
            for n in range(1, params.n_terms)
        ]
        extra = {
            "chosen_power_m": params.power_m,
            "rho_ratio_table": ratios,
            "code_version": CODE_VERSION,
            "config_hash": config_hash(
                {k: v for k, v in cfg.items() if k != "output_dir"}
            ),
        }
        out = Path(cfg["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "pair.json").write_text(pair_to_json(pair, extra) + "\n")
        click.echo(f"pair.json written (power m = {params.power_m})", err=True)
        return EXIT_OK

    run_command(body, config_path, out_dir, precision_bits, seed, fmt)


@main.command("verify-outer")
@common_options
def verify_outer(config_path, out_dir, precision_bits, seed, fmt):
    """Sample the radial growth bound on each checked interval and
    cross-check the closed-form Poisson values against quadrature."""

    def body(cfg):
        pair = load_pair(cfg)
        params, seq = pair.params, pair.seq
        rows = []
        all_ok = True
        for n in range(1, params.n_check + 1):
            for rec in verify_growth_bound(n, int(cfg["r_samples"]), params, seq):
                rows.append(
                    (rec.n, rec.r, rec.u, rec.v, rec.log_ratio,
                     rec.bound.log_mag, rec.passed)
                )
                all_ok = all_ok and rec.passed
        try:
            quad_err = poisson_quad_crosscheck(seq, n_points=50, seed=int(cfg["seed"]))
            quad_ok = True
        except AssertionError as e:
            click.echo(str(e), err=True)
            quad_err, quad_ok = float("nan"), False
        report = ExperimentReport(
            name="verify_outer",
            columns=("n", "r", "u", "v", "log_ratio", "log_bound", "pass"),
            rows=rows,
            params=_params_dict(params),
            metadata={
                "code_version": CODE_VERSION,
                "precision_bits": 53,
                "quadrature_max_rel_err": quad_err,
            },
            passed=all_ok and quad_ok,
        )
        write_report(report, cfg)
        if not report.passed:
            for row in rows:
                if not row[-1]:
                    click.echo(f"failing row: {row}", err=True)
                    break
            return EXIT_ASSERTION
        return EXIT_OK

    run_command(body, config_path, out_dir, precision_bits, seed, fmt)


def _experiment_command(name, builder):
    def body(cfg):
        pair = load_pair(cfg)
        f = build_divergent_combo(pair.params, pair)
        report = builder(cfg, pair, f)
        write_report(report, cfg)
        if not report.passed:
            for row in report.rows:
                click.echo(f"row: {row}", err=True)
            return EXIT_ASSERTION
        return EXIT_OK

    return body


@main.command()
@common_options
def divergence(config_path, out_dir, precision_bits, seed, fmt):
    """The blow-up curve of |(f_r)+(0)| and ||f_r||_{H(b)}, plus the
    growth-envelope report."""

    def builder(cfg, pair, f):
        grid = default_r_grid(pair.params)
        envelope = growth_envelope(
            [r for r in grid if r.log_one_minus < -1.0], f, pair
        )
        write_report(envelope, cfg)
        return divergence_curve(grid, f, pair)

    run_command(
        _experiment_command("divergence", builder),
        config_path, out_dir, precision_bits, seed, fmt,
    )


@main.command()
@common_options
def sarason(config_path, out_dir, precision_bits, seed, fmt):
    """Partial sums of the coefficient series, which grow without ceiling."""

    def builder(cfg, pair, f):
        return sarason_series_failure(
            int(cfg["j_max"]), f, pair, precision_bits=int(cfg["precision_bits"])
        )

    run_command(
        _experiment_command("sarason", builder),
        config_path, out_dir, precision_bits, seed, fmt,
    )


@main.command()
@common_options
def summability(config_path, out_dir, precision_bits, seed, fmt):
    """Norms of Taylor partial sums and Cesaro means of f."""

    def builder(cfg, pair, f):
        return summability_divergence(
            [int(n) for n in cfg["summability_n_list"]],
            f, pair, precision_bits=int(cfg["precision_bits"]),
        )

    run_command(
        _experiment_command("summability", builder),
        config_path, out_dir, precision_bits, seed, fmt,
    )


@main.command("norm-crosscheck")
@common_options
def norm_crosscheck(config_path, out_dir, precision_bits, seed, fmt):
    """Coefficient-formula norms against triangular-solve norms on the tame
    pair, over seeded random polynomials."""

    def body(cfg):
        import numpy as np

        pair = tame_pair(degree=160)
        phi_hat = TaylorSeries((1.0,) + (2.0,) * 160)  # (1+z)/(1-z)
        rng = np.random.default_rng(int(cfg["seed"]))
        rows = []
        worst = 0.0
        for i in range(100):
            deg = int(rng.integers(1, 33))
            coeffs = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
            p = TaylorSeries(tuple(complex(c) for c in coeffs))
            via_solve = p.l2_norm_sq() + f_plus_solve(p, pair).l2_norm_sq()
            via_sarason = p.l2_norm_sq() + sarason_f_plus(p, phi_hat).l2_norm_sq()
            rel = abs(via_solve - via_sarason) / abs(via_sarason)
            worst = max(worst, rel)
            rows.append((i, deg, rel))
        one = TaylorSeries((1.0,) + (0.0,) * 32)
        norm_one = one.l2_norm_sq() + f_plus_solve(one, pair).l2_norm_sq()
        ok = worst <= 1e-9 and abs(norm_one - 2.0) <= 1e-12
        report = ExperimentReport(
            name="norm_crosscheck",
            columns=("i", "degree", "rel_err"),
            rows=rows,
            params={"tame_pair": "half-moebius", "seed": cfg["seed"]},
            metadata={
                "code_version": CODE_VERSION,
                "precision_bits": 53,
                "max_rel_err": worst,
                "norm_sq_of_one": float(abs(norm_one)),
            },
            passed=ok,
        )
        write_report(report, cfg)
        return EXIT_OK if ok else EXIT_ASSERTION

    run_command(body, config_path, out_dir, precision_bits, seed, fmt)


if __name__ == "__main__":
    main()
