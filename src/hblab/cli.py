"""Command-line frontend: construction, verification, and the experiments.

Verbs: construct, verify-outer, divergence, sarason, summability,
norm-crosscheck.  Configuration is a single JSON document with strict key
checking, each value of its default's type; individual flags override file
values, which override defaults.
All outputs are deterministic for a fixed (config, seed): numbers are
emitted as shortest round-trip decimal strings and runtime is logged to
stderr, never into the report files.  The writer stamps the provenance:
pair.json and every report record the code version and the config hash
(``_provenance``).

Exit codes: 0 success, 2 config error (usage errors too), 3 construction
inconsistency, 4 assertion failure, 5 precision exhaustion.

Each verb runs as its own process, so this module loads only what every
verb needs: the standard library's json, sys, time and pathlib, and no
hblab module.  argv is parsed here (``parse_args``) rather than by
argparse, which spares every process argparse's import and the building
of its parser.  Each verb imports the hblab modules it runs when it runs,
and ``main`` the leaf ``hblab.errors`` of the errors it maps to exit
codes: so ``construct`` and ``verify-outer`` never load ``hb`` or
``experiments``, only ``verify-outer`` and ``construct`` with ``power_m``
"auto" load ``growth``, ``norm-crosscheck`` loads neither ``outer`` nor
``logscalar``, and ``divergence`` loads no ``series``.
"""

from __future__ import annotations

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


def load_config(config_path, overrides: dict) -> dict:
    """The defaults, updated by the JSON file at ``config_path`` (if not
    None) and then by ``overrides``, keyed by config name; every value is
    checked."""
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
    cfg.update(overrides)
    for key, default in _DEFAULTS.items():
        value = cfg[key]
        if not (_has_type_of(value, default) or (key == "power_m" and value == "auto")):
            raise ConfigError(
                f"{key} = {value!r} does not have the type of its default {default!r}"
            )
    for key, low in (("r_samples", 2), ("seed", 0), ("precision_bits", 24)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be at least {low}, got {cfg[key]}")
    if not cfg["formats"]:
        raise ConfigError("formats must name at least one of json, csv")
    bad = sorted(set(cfg["formats"]) - {"json", "csv"})
    if bad:
        raise ConfigError(f"unsupported formats: {', '.join(bad)}")
    out = Path(cfg["output_dir"])
    # a verb makes output_dir with its parents: the nearest that exists must be a directory
    base = next(path for path in (out, *out.parents) if path.exists())
    if not base.is_dir():
        under = "" if base == out else f" is under {str(base)!r}, which"
        raise ConfigError(f"output_dir {str(out)!r}{under} exists and is not a directory")
    return cfg


def _provenance(cfg: dict) -> dict:
    """The code version and the hash of the config without
    ``output_dir`` (where the files go does not change what is in them),
    which every file a verb writes records."""
    from .reports import CODE_VERSION, config_hash

    cfg_hash = config_hash({k: v for k, v in cfg.items() if k != "output_dir"})
    return {"code_version": CODE_VERSION, "config_hash": cfg_hash}


def write_report(report, cfg: dict):
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    report.metadata.update(_provenance(cfg))
    if "json" in cfg["formats"]:
        (out / f"{report.name}.json").write_text(report.to_json())
    if "csv" in cfg["formats"]:
        (out / f"{report.name}.csv").write_text(report.to_csv())


def load_pair(cfg):
    from .pair import pair_from_json

    path = Path(cfg["output_dir"]) / "pair.json"
    if not path.exists():
        raise ConfigError(f"pair.json not found in {cfg['output_dir']}; run construct first")
    try:
        pair = pair_from_json(path.read_text())
    except (KeyError, TypeError, ValueError) as e:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"pair.json is not a valid pair: {type(e).__name__}: {e}") from e
    if pair.tag == "tame":  # every verb that reads pair.json needs the constructed pair
        raise ConfigError("pair.json is not a valid pair: it holds the tame pair")
    return pair


def _echo(message):
    print(message, file=sys.stderr)


def _finish(cfg, report, *more) -> int:
    """Write ``report`` and then ``more``, and return the exit code of
    ``report``'s verdict: 0 if it passed, else 4, after echoing its first
    row whose last value (its pass flag) is False."""
    for each in (report, *more):
        write_report(each, cfg)
    if report.passed:
        return EXIT_OK
    failing = next((row for row in report.rows if row[-1] is False), None)
    if failing is not None:
        _echo(f"failing row: {failing}")
    return EXIT_ASSERTION


# -- the verbs: each takes the config, returns an exit code, and imports
# only the modules it runs


def construct(cfg):
    """Build the pair (b, a), record the chosen power and the tail-ratio
    table, and write pair.json."""
    from .outer import ConstructionParams, check_rho_condition
    from .pair import build_pair, pair_to_json
    from .reports import fmt_number

    params = ConstructionParams(
        alpha=float(cfg["alpha"]),
        beta=float(cfg["beta"]),
        n_terms=cfg["n_terms"],
        power_m=cfg["power_m"],
        precision_bits=cfg["precision_bits"],
        n_check=cfg["n_check"],
    )
    if params.power_m == "auto":
        from .growth import choose_power_m

        m = choose_power_m(params, r_samples=cfg["r_samples"])
        params = params._replace(power_m=m)
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
        **_provenance(cfg),
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
    from .reports import ExperimentReport

    pair = load_pair(cfg)
    params, seq = pair.params, pair.seq
    rows = [
        (rec.n, rec.r, rec.u, rec.v, rec.log_ratio, rec.log_bound, rec.passed)
        for n in range(1, params.n_check + 1)
        for rec in verify_growth_bound(n, cfg["r_samples"], seq)
    ]
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
        metadata={"precision_bits": 53, "quadrature_max_rel_err": quad_err},
        passed=quad_ok and all(row[-1] for row in rows),
    )
    return _finish(cfg, report)


def _divergent(cfg) -> tuple:
    """(pair, f): the pair of pair.json and its divergent combination f."""
    from .experiments import build_divergent_combo

    pair = load_pair(cfg)
    return pair, build_divergent_combo(pair.params, pair)


def divergence(cfg):
    """The blow-up curve of |(f_r)+(0)| and ||f_r||_{H(b)}, plus the
    growth-envelope report."""
    from .experiments import default_r_grid, divergence_reports

    pair, f = _divergent(cfg)
    return _finish(cfg, *divergence_reports(default_r_grid(pair.params), f, pair))


def sarason(cfg):
    """Partial sums of the coefficient series, which grow without ceiling."""
    from .experiments import sarason_series_failure

    pair, f = _divergent(cfg)
    report = sarason_series_failure(cfg["j_max"], f, pair, precision_bits=cfg["precision_bits"])
    return _finish(cfg, report)


def summability(cfg):
    """Norms of Taylor partial sums and Cesaro means of f."""
    from .experiments import summability_divergence

    pair, f = _divergent(cfg)
    report = summability_divergence(
        cfg["summability_n_list"], f, pair, precision_bits=cfg["precision_bits"]
    )
    return _finish(cfg, report)


def norm_crosscheck(cfg):
    """Coefficient-formula norms against triangular-solve norms on the tame
    pair, over seeded random polynomials."""
    from ._pcg64 import Generator
    from .hb import f_plus_solve, sarason_f_plus
    from .pair import tame_pair
    from .reports import ExperimentReport
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
    report = ExperimentReport(
        name="norm_crosscheck",
        columns=("i", "degree", "rel_err"),
        rows=rows,
        params={"tame_pair": "half-moebius", "seed": cfg["seed"]},
        metadata={
            "precision_bits": 53,
            "max_rel_err": worst,
            "norm_sq_of_one": float(abs(norm_one)),
        },
        passed=worst <= 1e-9 and abs(norm_one - 2.0) <= 1e-12,
    )
    return _finish(cfg, report)


VERBS = {
    "construct": construct,
    "verify-outer": verify_outer,
    "divergence": divergence,
    "sarason": sarason,
    "summability": summability,
    "norm-crosscheck": norm_crosscheck,
}


# option -> (config key, metavar, help), "config" standing for the file
# itself; each takes one value, as --name VALUE or --name=VALUE, and a
# repeated option keeps its last value
_OPTIONS = {
    "--config": ("config", "PATH", "JSON config; its values override the defaults"),
    "--out": ("output_dir", "DIR", "directory of pair.json and the reports (default .)"),
    "--precision-bits": ("precision_bits", "BITS", "mantissa bits of the extended-precision work"),
    "--seed": ("seed", "N", "seed of the quadrature and norm-crosscheck draws"),
    "--format": ("formats", "{csv,json,both}", "report formats (default both)"),
}
_FORMATS = ("csv", "json", "both")
_HELP = ("-h", "--help")


def _doc(body) -> str:
    """A verb's docstring on one line (empty under python -OO)."""
    return " ".join((body.__doc__ or "").split())


def _usage(prog: str, verb) -> str:
    options = " ".join(f"[{name} {metavar}]" for name, (_, metavar, _) in _OPTIONS.items())
    return f"usage: {prog} {verb or 'VERB'} [-h] {options}"


def _help(prog: str, verb) -> str:
    """The text of -h: the usage, the verb's docstring (the package's
    purpose at top level), every verb and every option."""
    import textwrap

    def item(name, text):
        indent = f"  {name:<25} "
        return textwrap.fill(text, 79, initial_indent=indent, subsequent_indent=" " * 28) or indent.rstrip()

    about = _doc(VERBS[verb]) if verb else (
        "Numerical laboratory for outer functions and H(b) divergence."
    )
    lines = [_usage(prog, verb), "", textwrap.fill(about, 79), "", "verbs:"]
    lines += [item(name, _doc(body)) for name, body in VERBS.items()]
    lines += ["", "options:", item("-h, --help", "show this help and exit")]
    lines += [item(f"{name} {metavar}", text) for name, (_, metavar, text) in _OPTIONS.items()]
    return "\n".join(lines)


def _usage_error(prog: str, verb, message: str):
    """Print the usage and ``message`` to stderr and exit 2, as argparse
    does."""
    where = f"{prog} {verb}" if verb else prog
    _echo(f"{_usage(prog, verb)}\n{where}: error: {message}")
    sys.exit(EXIT_CONFIG)


def _is_value(arg: str) -> bool:
    """Whether ``arg`` can be an option's value: a word that does not start
    with '-', '-' itself, or a negative number (argparse's rule)."""
    if not arg.startswith("-") or arg == "-":
        return True
    try:
        float(arg)
    except ValueError:
        return False
    return True


def parse_args(argv: list, prog: str) -> tuple:
    """(verb, config path or None, {config key: value}) from ``argv``: the
    verb first, then any of the options, each ``--name VALUE`` or
    ``--name=VALUE``, keyed by the config key it sets.  A value is an int
    where its default is, and ``--format both`` is ["json", "csv"].  Option
    names are matched whole, never abbreviated; -h or --help, at top level
    or after the verb, prints the help and exits 0, and a usage error prints
    the usage to stderr and exits 2."""
    verbs = ", ".join(VERBS)
    if argv and argv[0] in _HELP:
        print(_help(prog, None))
        sys.exit(EXIT_OK)
    if not argv:
        _usage_error(prog, None, f"a verb is required (choose from {verbs})")
    verb, args = argv[0], iter(argv[1:])
    if verb not in VERBS:
        _usage_error(prog, None, f"invalid verb {verb!r} (choose from {verbs})")
    overrides = {}
    for arg in args:
        if arg in _HELP:
            print(_help(prog, verb))
            sys.exit(EXIT_OK)
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS:
            _usage_error(prog, verb, f"unrecognized argument {arg!r}")
        if not eq:
            value = next(args, None)
            if value is None or not _is_value(value):
                _usage_error(prog, verb, f"argument {name}: expected one value")
        key = _OPTIONS[name][0]
        if isinstance(_DEFAULTS.get(key), int):
            try:
                value = int(value)
            except ValueError:
                _usage_error(prog, verb, f"argument {name}: invalid int value: {value!r}")
        elif key == "formats":
            if value not in _FORMATS:
                choices = ", ".join(_FORMATS)
                _usage_error(
                    prog, verb, f"argument --format: invalid choice: {value!r} ({choices})"
                )
            value = ["json", "csv"] if value == "both" else [value]
        overrides[key] = value
    return verb, overrides.pop("config", None), overrides


def main(argv=None, prog_name=None):
    """Run the verb named in ``argv`` (default ``sys.argv[1:]``) on the
    config and exit with its code; usage errors exit 2, and the errors of
    the config and of the run exit with their codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    verb, config_path, overrides = parse_args(argv, prog_name or "hblab")
    from .errors import GrowthBoundError, ParameterError, PrecisionExhausted

    start = time.monotonic()
    try:
        code = VERBS[verb](load_config(config_path, overrides))
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


if __name__ == "__main__":
    main()
