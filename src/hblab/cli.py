"""Command-line frontend: construction, verification, and the experiments.

Verbs: construct, verify-outer, divergence, sarason, summability,
norm-crosscheck.  Configuration is a single JSON document with strict key
checking, each value of its default's type; individual flags override file
values, which override defaults.
All outputs are deterministic for a fixed (config, seed): numbers are
emitted as shortest round-trip decimal strings and runtime is logged to
stderr, never into the report files.

Exit codes: 0 success, 2 config error, 3 construction inconsistency,
4 assertion failure, 5 precision exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

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
    "summability_n_list": [0, 1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64],
}


class ConfigError(ValueError):
    pass


def _has_type_of(value, default) -> bool:
    """Whether a config value has its default's type: an int for an int and
    a number for a float (a bool for neither), a list of such for a list."""
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_type_of(v, default[0]) for v in value)
    return isinstance(value, type(default))


def load_config(config_path, out_dir, precision_bits, seed, fmt) -> dict:
    cfg = dict(_DEFAULTS)
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}")
        if not isinstance(doc, dict):
            raise ConfigError("the config must be a JSON object")
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
    for key, default in _DEFAULTS.items():
        value = cfg[key]
        if not (_has_type_of(value, default) or (key == "power_m" and value == "auto")):
            raise ConfigError(
                f"{key} = {value!r} does not have the type of its default {default!r}"
            )
    for key, low in (("r_samples", 2), ("seed", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be at least {low}, got {cfg[key]}")
    if not cfg["formats"]:
        raise ConfigError("formats must name at least one of json, csv")
    bad = sorted(set(cfg["formats"]) - {"json", "csv"})
    if bad:
        raise ConfigError(f"unsupported formats: {', '.join(bad)}")
    return cfg


def write_report(report, cfg: dict):
    from .reports import config_hash

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
    from .pair import pair_from_json

    path = Path(cfg["output_dir"]) / "pair.json"
    if not path.exists():
        raise ConfigError(f"pair.json not found in {cfg['output_dir']}; run construct first")
    return pair_from_json(path.read_text())


def _echo(message):
    print(message, file=sys.stderr)


def run_command(body, config_path, out_dir, precision_bits, seed, fmt):
    from .outer import GrowthBoundError, ParameterError, PrecisionExhausted

    start = time.monotonic()
    try:
        cfg = load_config(config_path, out_dir, precision_bits, seed, fmt)
    except ConfigError as e:
        _echo(f"config error: {e}")
        sys.exit(EXIT_CONFIG)
    try:
        code = body(cfg)
    except (ConfigError, ParameterError) as e:
        _echo(f"config error: {e}")
        sys.exit(EXIT_CONFIG)
    except GrowthBoundError as e:
        _echo(f"construction inconsistency: {e}")
        sys.exit(EXIT_CONSTRUCTION)
    except PrecisionExhausted as e:
        _echo(f"precision exhausted: {e}")
        sys.exit(EXIT_PRECISION)
    _echo(f"runtime: {time.monotonic() - start:.2f} s")
    sys.exit(code)


# -- the verbs: each takes the config, returns an exit code, and imports
# only the modules it runs


def construct(cfg):
    """Build the pair (b, a), record the chosen power and the tail-ratio
    table, and write pair.json."""
    from .outer import ConstructionParams, check_rho_condition, choose_power_m, make_sequences
    from .pair import build_pair, pair_to_json
    from .reports import CODE_VERSION, config_hash, fmt_number

    params = ConstructionParams(
        alpha=float(cfg["alpha"]),
        beta=float(cfg["beta"]),
        n_terms=cfg["n_terms"],
        power_m=cfg["power_m"],
        precision_bits=cfg["precision_bits"],
        n_check=cfg["n_check"],
    )
    if params.power_m == "auto":
        seq = make_sequences(params)
        m = choose_power_m(params, seq, r_samples=cfg["r_samples"])
        params = params.with_power(m)
    try:
        pair = build_pair(params)
    except ArithmeticError as e:
        _echo(f"construction inconsistency: {e}")
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
    _echo(f"pair.json written (power m = {params.power_m})")
    return EXIT_OK


def verify_outer(cfg):
    """Sample the radial growth bound on each checked interval and
    cross-check the closed-form Poisson values against quadrature."""
    from .outer import _params_dict, poisson_quad_crosscheck, verify_growth_bound
    from .reports import CODE_VERSION, ExperimentReport

    pair = load_pair(cfg)
    params, seq = pair.params, pair.seq
    rows = []
    all_ok = True
    for n in range(1, params.n_check + 1):
        for rec in verify_growth_bound(n, cfg["r_samples"], params, seq):
            rows.append(
                (rec.n, rec.r, rec.u, rec.v, rec.log_ratio,
                 rec.bound.log_mag, rec.passed)
            )
            all_ok = all_ok and rec.passed
    try:
        quad_err = poisson_quad_crosscheck(seq, n_points=50, seed=cfg["seed"])
        quad_ok = True
    except AssertionError as e:
        _echo(str(e))
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
                _echo(f"failing row: {row}")
                break
        return EXIT_ASSERTION
    return EXIT_OK


def _experiment(cfg, make_report):
    """Run one experiment on the divergent combination f of pair.json;
    ``make_report(pair, f)`` returns the report to write."""
    from .experiments import build_divergent_combo

    pair = load_pair(cfg)
    f = build_divergent_combo(pair.params, pair)
    report = make_report(pair, f)
    write_report(report, cfg)
    if not report.passed:
        for row in report.rows:
            _echo(f"row: {row}")
        return EXIT_ASSERTION
    return EXIT_OK


def divergence(cfg):
    """The blow-up curve of |(f_r)+(0)| and ||f_r||_{H(b)}, plus the
    growth-envelope report."""
    from .experiments import default_r_grid, divergence_curve, growth_envelope

    def make_report(pair, f):
        grid = default_r_grid(pair.params)
        envelope = growth_envelope(
            [r for r in grid if r.log_one_minus < -1.0], f, pair
        )
        write_report(envelope, cfg)
        return divergence_curve(grid, f, pair)

    return _experiment(cfg, make_report)


def sarason(cfg):
    """Partial sums of the coefficient series, which grow without ceiling."""
    from .experiments import sarason_series_failure

    def make_report(pair, f):
        return sarason_series_failure(
            cfg["j_max"], f, pair, precision_bits=cfg["precision_bits"]
        )

    return _experiment(cfg, make_report)


def summability(cfg):
    """Norms of Taylor partial sums and Cesaro means of f."""
    from .experiments import summability_divergence

    def make_report(pair, f):
        return summability_divergence(
            cfg["summability_n_list"], f, pair, precision_bits=cfg["precision_bits"]
        )

    return _experiment(cfg, make_report)


def norm_crosscheck(cfg):
    """Coefficient-formula norms against triangular-solve norms on the tame
    pair, over seeded random polynomials."""
    from ._pcg64 import Generator
    from .hb import f_plus_solve, sarason_f_plus
    from .pair import tame_pair
    from .reports import CODE_VERSION, ExperimentReport
    from .series import TaylorSeries

    max_deg = 32  # the largest drawn degree
    pair = tame_pair(degree=max_deg)
    phi_hat = pair.phi_hat(max_deg)
    rng = Generator(cfg["seed"])
    rows = []
    worst = 0.0
    for i in range(100):
        deg = rng.integers(1, max_deg + 1)
        xs, ys = rng.uniform(-1, 1, deg + 1), rng.uniform(-1, 1, deg + 1)
        p = TaylorSeries(tuple(map(complex, xs, ys)))
        via_solve = p.l2_norm_sq() + f_plus_solve(p, pair).l2_norm_sq()
        via_sarason = p.l2_norm_sq() + sarason_f_plus(p, phi_hat).l2_norm_sq()
        rel = abs(via_solve - via_sarason) / abs(via_sarason)
        worst = max(worst, rel)
        rows.append((i, deg, rel))
    one = TaylorSeries((1.0,) + (0.0,) * max_deg)
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


VERBS = {
    "construct": construct,
    "verify-outer": verify_outer,
    "divergence": divergence,
    "sarason": sarason,
    "summability": summability,
    "norm-crosscheck": norm_crosscheck,
}


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Numerical laboratory for outer functions and H(b) divergence.",
        allow_abbrev=False,
    )
    verbs = parser.add_subparsers(dest="verb", metavar="VERB", required=True)
    for name, body in VERBS.items():
        doc = " ".join((body.__doc__ or "").split())  # None under python -OO
        sub = verbs.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.add_argument("--config", dest="config_path", metavar="PATH",
                         help="JSON config; its values override the defaults")
        sub.add_argument("--out", dest="out_dir", metavar="DIR",
                         help="directory of pair.json and the reports (default .)")
        sub.add_argument("--precision-bits", type=int, metavar="BITS",
                         help="mantissa bits of the extended-precision work")
        sub.add_argument("--seed", type=int, metavar="N",
                         help="seed of the quadrature and norm-crosscheck draws")
        sub.add_argument("--format", dest="fmt", choices=("csv", "json", "both"),
                         help="report formats (default both)")
    return parser


def main(argv=None, prog_name=None):
    """Run the verb named in ``argv`` (default ``sys.argv[1:]``) and exit
    with its code; usage errors exit 2."""
    args = _parser(prog_name or "hblab").parse_args(argv)
    run_command(
        VERBS[args.verb], args.config_path, args.out_dir, args.precision_bits, args.seed, args.fmt
    )


if __name__ == "__main__":
    main()
