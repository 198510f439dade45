"""End-to-end tests of the command-line frontend: exit codes, report files,
config precedence, and byte-level determinism."""

import json
from collections import namedtuple

import pytest

from hblab.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_CONSTRUCTION,
    EXIT_OK,
    EXIT_PRECISION,
    VERBS,
    load_config,
    main,
    parse_args,
)
from hblab.pair import pair_to_json, tame_pair


Result = namedtuple("Result", "exit_code output")


class Runner:
    """Runs the CLI in this process; ``output`` is what it wrote to stderr."""

    def __init__(self, capsys):
        self.capsys = capsys

    def invoke(self, cli, argv):
        self.capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            cli(argv)
        return Result(exit_.value.code, self.capsys.readouterr().err)


@pytest.fixture()
def runner(capsys):
    return Runner(capsys)


@pytest.fixture()
def workdir(tmp_path, runner):
    """A directory with pair.json already constructed."""
    res = runner.invoke(main, ["construct", "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    return tmp_path


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


# -- argv parsing -----------------------------------------------------------

OPTIONS = ("--config", "--out", "--precision-bits", "--seed", "--format")


def test_option_value_forms_parse_alike():
    """``--name VALUE`` and ``--name=VALUE`` give the same value, keyed by
    the config key it sets: int options as ints, a format as the list of
    formats.  An option left out is absent, and the config path, None
    without --config, comes apart from the overrides."""
    spaced = parse_args(["sarason", "--seed", "3", "--out", "d", "--format", "csv"], "hblab")
    joined = parse_args(["sarason", "--seed=3", "--out=d", "--format=csv"], "hblab")
    assert spaced == joined == (
        "sarason",
        None,
        {"output_dir": "d", "seed": 3, "formats": ["csv"]},
    )
    _, config_path, overrides = parse_args(
        ["construct", "--precision-bits", "-5", "--config=a=b.json", "--format", "both"], "hblab"
    )
    assert config_path == "a=b.json"
    assert overrides == {"precision_bits": -5, "formats": ["json", "csv"]}


def test_repeated_option_keeps_its_last_value():
    _, _, overrides = parse_args(
        ["divergence", "--seed", "1", "--out=a", "--seed=2", "--out", "b", "--seed", "7"], "hblab"
    )
    assert overrides == {"seed": 7, "output_dir": "b"}


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--prec", "200"],  # an abbreviation of --precision-bits
        ["construct", "--precision", "200"],
        ["construct", "--verbose"],
        ["construct", "stray"],
        ["construct", "--seed"],
        ["construct", "--out", "--seed", "3"],
        ["construct", "--seed", "x"],
        ["construct", "--seed=1.5"],
        ["construct", "--format", "xml"],
        [],
        ["--seed", "3"],
        ["bogus"],
        ["Construct"],
    ],
)
def test_usage_errors_exit_2_with_usage(runner, argv):
    """Abbreviations, unknown options, a missing or ill-typed value, a
    format outside csv/json/both, no verb and an unknown verb each print a
    usage line and the error to stderr and exit 2, before any verb runs."""
    res = runner.invoke(main, argv)
    assert res.exit_code == EXIT_CONFIG
    assert res.output.startswith("usage: hblab")
    assert "error:" in res.output


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[verb, "--help"] for verb in VERBS])
def test_help_names_every_verb_and_option(capsys, argv):
    """-h and --help, at top level and after each verb, print the help to
    stdout and exit 0; it names the six verbs and the five options, and
    after a verb starts from that verb's docstring."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--seed", "x"])  # help wins over what follows it
    out = capsys.readouterr().out
    assert exit_.value.code == EXIT_OK
    assert out.startswith("usage: hblab")
    assert len(VERBS) == 6 and all(verb in out for verb in VERBS)
    assert all(option in out for option in OPTIONS)
    if argv[0] in VERBS:
        doc = " ".join(VERBS[argv[0]].__doc__.split())
        assert " ".join(out.split("\n\n")[1].split()) == doc


# -- config handling --------------------------------------------------------


def test_load_config_precedence(tmp_path):
    cfg_path = write_config(tmp_path, seed=5, precision_bits=128)
    cfg = load_config(cfg_path, {})
    assert cfg["seed"] == 5 and cfg["precision_bits"] == 128
    cfg = load_config(cfg_path, {"precision_bits": 256, "seed": 9, "formats": ["csv"]})
    assert cfg["seed"] == 9 and cfg["precision_bits"] == 256
    assert cfg["formats"] == ["csv"]


def test_config_hash_is_the_sha256_digest():
    """``config_hash`` is the first 16 hex digits of hashlib's sha256 of the
    sorted compact JSON, at the CLI defaults and their variants, whatever
    module supplies sha256 at run time."""
    import hashlib

    from hblab.cli import _DEFAULTS
    from hblab.reports import config_hash

    base = {k: v for k, v in _DEFAULTS.items() if k != "output_dir"}
    variants = (
        base,
        {**base, "j_max": 1024},
        {**base, "precision_bits": 53, "seed": 7},
        {**base, "power_m": "auto", "formats": ["csv"]},
        {**base, "alpha": 1.25, "summability_n_list": []},
        {},
    )
    for cfg in variants:
        doc = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert config_hash(cfg) == hashlib.sha256(doc.encode()).hexdigest()[:16]


def test_unknown_config_key_rejected(tmp_path, runner):
    cases = (
        ({"alpha": 1.2, "mystery_knob": 3}, "mystery_knob"),
        ({"abel_degree": 3072}, "abel_degree"),  # read by no verb, deleted
    )
    for doc, key in cases:
        cfg = write_config(tmp_path, **doc)
        res = runner.invoke(main, ["construct", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG
        assert f"unknown config keys: {key}" in res.output


def test_invalid_exponents_exit_config(tmp_path, runner):
    cfg = write_config(tmp_path, alpha=2.0, beta=1.5)
    res = runner.invoke(main, ["construct", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == EXIT_CONFIG


def test_malformed_config_file(tmp_path, runner):
    path = tmp_path / "broken.json"
    for text in ("{not json", "[1, 2]"):
        path.write_text(text)
        res = runner.invoke(main, ["construct", "--config", str(path)])
        assert res.exit_code == EXIT_CONFIG


def test_missing_pair_exit_config(tmp_path, runner):
    res = runner.invoke(main, ["divergence", "--out", str(tmp_path)])
    assert res.exit_code == EXIT_CONFIG


_NO_MODULI = (
    '{{"tag": "{tag}", "params": null, "a_modulus": null, "b_modulus": null, '
    '"phi_modulus": null}}'
)


@pytest.mark.parametrize(
    "verb, text",
    [
        ("divergence", '{"tag": "constructed", "params": {"alpha": 1.2'),
        ("sarason", '{"tag": "constructed"}'),
        pytest.param("divergence", _NO_MODULI.format(tag="constructed"), id="no-params"),
        pytest.param("divergence", _NO_MODULI.format(tag="bogus"), id="unknown-tag"),
        pytest.param("sarason", pair_to_json(tame_pair()), id="sarason-tame"),
        pytest.param("verify-outer", pair_to_json(tame_pair()), id="verify-outer-tame"),
    ],
)
def test_malformed_pair_exit_config(tmp_path, runner, verb, text):
    """A truncated pair.json (a JSON decode error), one without its keys (a
    KeyError), a constructed pair without its params, a tag other than
    "constructed" or "tame", and the tame pair, which no verb can run on,
    are config errors, exit 2 as a missing one is, and not tracebacks."""
    (tmp_path / "pair.json").write_text(text)
    res = runner.invoke(main, [verb, "--out", str(tmp_path)])
    assert res.exit_code == EXIT_CONFIG
    assert "config error: pair.json is not a valid pair" in res.output


# -- construct --------------------------------------------------------------


def test_construct_writes_pair(workdir):
    doc = json.loads((workdir / "pair.json").read_text())
    assert doc["chosen_power_m"] == 1
    assert doc["tag"] == "constructed"
    assert len(doc["rho_ratio_table"]) == 7
    # the observed tail ratios increase with n; recorded, not asserted
    ratios = [float(v) for _, v in doc["rho_ratio_table"]]
    assert ratios == sorted(ratios)


def test_construct_auto_power_fails_honestly(tmp_path, runner):
    """power_m='auto' must exit 3: no power satisfies the sampled bound at
    these exponents."""
    cfg = write_config(tmp_path, power_m="auto")
    res = runner.invoke(main, ["construct", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == EXIT_CONSTRUCTION
    assert not (tmp_path / "pair.json").exists()


def test_construct_auto_power_that_succeeds(tmp_path, runner, monkeypatch):
    """When ``choose_power_m`` finds a power, construct builds the pair
    with it and records it, and pair.json carries the config hash that a
    report of the same config carries."""
    import hblab.growth

    monkeypatch.setattr(hblab.growth, "choose_power_m", lambda params, r_samples: 2)
    cfg = write_config(tmp_path, power_m="auto")
    res = runner.invoke(main, ["construct", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((tmp_path / "pair.json").read_text())
    assert doc["chosen_power_m"] == 2 and doc["params"]["power_m"] == 2
    runner.invoke(main, ["verify-outer", "--config", cfg, "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify_outer.json").read_text())
    assert doc["config_hash"] == report["metadata"]["config_hash"]


def test_construct_inconsistency_exits_3(tmp_path, runner, monkeypatch):
    """A failed b/a == phi check of ``build_pair`` is a construction
    inconsistency: exit 3 with the check's message, and no pair.json."""
    import hblab.pair

    monkeypatch.setattr(hblab.pair, "_CHECK_TOL", 0.0)
    res = runner.invoke(main, ["construct", "--out", str(tmp_path)])
    assert res.exit_code == EXIT_CONSTRUCTION
    assert "construction inconsistency: b/a == phi check failed" in res.output
    assert not (tmp_path / "pair.json").exists()


def test_construct_power_beyond_float_range_exits_config(tmp_path, runner):
    """A power_m of 10**310, an int that no float holds, is a config
    error: exit 2 with the step-height guard's message, and no pair.json,
    not a construction inconsistency from the int's conversion."""
    cfg = write_config(tmp_path, power_m=10**310)
    res = runner.invoke(main, ["construct", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "config error: step height overflows at k=1; reduce power_m" in res.output
    assert not (tmp_path / "pair.json").exists()


def test_output_dir_that_is_a_file_exits_config(tmp_path, runner):
    """An output_dir that names an existing file, or a path under one
    (FILE/sub, which no verb could make), is a config error, exit 2, before
    any work, for ``construct`` and for a verb that reads pair.json; the
    file is left as it was."""
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    sub = target / "sub"
    cases = [
        (target, f"config error: output_dir {str(target)!r} exists and is not a directory"),
        (sub, f"output_dir {str(sub)!r} is under {str(target)!r}, which exists and is not a"),
    ]
    for out, message in cases:
        for verb in ("construct", "divergence"):
            res = runner.invoke(main, [verb, "--out", str(out)])
            assert res.exit_code == EXIT_CONFIG, res.output
            assert message in res.output
    assert target.read_text() == "not a directory\n"


def test_construct_deterministic(tmp_path, runner):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = runner.invoke(main, ["construct", "--out", str(out)])
        assert res.exit_code == EXIT_OK
    assert (a / "pair.json").read_bytes() == (b / "pair.json").read_bytes()


# -- verify-outer -----------------------------------------------------------


def test_verify_outer_honest_red(workdir, runner):
    """The sampled growth bound fails at the desk-scale parameters; the
    command must exit 4 and still write the full report."""
    res = runner.invoke(main, ["verify-outer", "--out", str(workdir)])
    assert res.exit_code == EXIT_ASSERTION
    doc = json.loads((workdir / "verify_outer.json").read_text())
    assert doc["passed"] is False
    assert doc["columns"] == ["n", "r", "u", "v", "log_ratio", "log_bound", "pass"]
    assert len(doc["rows"]) == 5 * 33
    # the quadrature cross-check clause is healthy even though the bound fails
    assert float(doc["metadata"]["quadrature_max_rel_err"]) <= 1e-8
    csv = (workdir / "verify_outer.csv").read_text().splitlines()
    assert csv[0] == "n,r,u,v,log_ratio,log_bound,pass"
    assert len(csv) == 1 + 5 * 33


def test_verify_outer_quadrature_failure(workdir, runner, monkeypatch):
    """A failed quadrature cross-check is recorded as a NaN error and fails
    the report: exit 4, with the check's message and the first failing
    row, once, on stderr."""
    import hblab.growth

    monkeypatch.setattr(hblab.growth, "_QUAD_RTOL", 0.0)
    res = runner.invoke(main, ["verify-outer", "--out", str(workdir)])
    assert res.exit_code == EXIT_ASSERTION
    doc = json.loads((workdir / "verify_outer.json").read_text())
    assert doc["metadata"]["quadrature_max_rel_err"] == "nan"
    assert doc["passed"] is False
    assert "quadrature cross-check failed" in res.output
    assert res.output.count("failing row:") == 1


# -- experiments ------------------------------------------------------------


def test_divergence_reports(workdir, runner):
    res = runner.invoke(main, ["divergence", "--out", str(workdir)])
    assert res.exit_code == EXIT_ASSERTION  # bound rows fail at desk scale
    assert res.output.count("failing row:") == 1
    div = json.loads((workdir / "divergence.json").read_text())
    assert div["columns"] == ["r", "log10_frplus0", "log10_hbnorm", "n", "log10_bound", "pass"]
    assert div["metadata"]["norm_chain_ok"] == "true"
    env = json.loads((workdir / "envelope.json").read_text())
    assert env["columns"] == ["r", "E_r", "trend"]


def test_sarason_and_summability(workdir, runner, tmp_path):
    cfg = write_config(workdir, j_max=64, summability_n_list=[0, 2, 8, 16])
    res = runner.invoke(
        main, ["sarason", "--config", cfg, "--out", str(workdir)]
    )
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((workdir / "sarason.json").read_text())
    assert doc["passed"] is True
    assert doc["columns"] == ["J", "log10_SJ"]
    res = runner.invoke(
        main, ["summability", "--config", cfg, "--out", str(workdir)]
    )
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((workdir / "summability.json").read_text())
    assert doc["passed"] is True
    assert doc["columns"] == ["n", "log10_sn_norm", "log10_sigman_norm"]


@pytest.mark.parametrize(
    "verb,overrides",
    [
        ("sarason", {"j_max": 1}),
        ("sarason", {"j_max": 0}),
        ("summability", {"summability_n_list": []}),
        ("summability", {"summability_n_list": [2, 4]}),
        ("summability", {"summability_n_list": [-1, 8, 16]}),
        ("verify-outer", {"r_samples": 1}),
        ("construct", {"r_samples": 1, "power_m": "auto"}),
        ("sarason", {"j_max": "abc"}),
        ("summability", {"summability_n_list": 64}),
        ("summability", {"summability_n_list": [8, 16.0]}),
        ("norm-crosscheck", {"seed": "x"}),
        ("norm-crosscheck", {"seed": -1}),
        ("construct", {"alpha": "x"}),
        ("construct", {"n_terms": 8.5}),
        ("construct", {"n_terms": True}),
        ("construct", {"power_m": "two"}),
        ("norm-crosscheck", {"formats": []}),
        ("construct", {"n_terms": 200, "power_m": "auto"}),
        ("sarason", {"precision_bits": -5}),
        ("summability", {"precision_bits": 0}),
        ("sarason", {"precision_bits": 23}),
        ("norm-crosscheck", {"formats": ["xml"]}),
    ],
)
def test_out_of_range_sizes_exit_config(workdir, runner, verb, overrides):
    """Sizes the experiments cannot run, and values of the wrong type, are
    config errors, not crashes and not reports with -inf rows; no file in
    the output directory is written or changed."""
    cfg = write_config(workdir, **overrides)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    res = runner.invoke(main, [verb, "--config", cfg, "--out", str(workdir)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "config error:" in res.output
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


def test_precision_exhausted_exit_precision(workdir, runner):
    """The default summability list reaches degree 64, whose f-hat needs
    about 96 bits: at 64 bits the verb exits 5 with the precision it
    lacks, and no file in the output directory is written or changed."""
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    res = runner.invoke(main, ["summability", "--precision-bits", "64", "--out", str(workdir)])
    assert res.exit_code == EXIT_PRECISION, res.output
    assert "precision exhausted: degree 64 needs about 96 bits, configured 64" in res.output
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


def test_precision_floor_is_in_bounds(tmp_path, runner):
    """24 bits, the floor that 23 falls below, is a valid precision."""
    res = runner.invoke(main, ["construct", "--precision-bits", "24", "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output


def test_norm_crosscheck(tmp_path, runner):
    res = runner.invoke(
        main, ["norm-crosscheck", "--out", str(tmp_path), "--seed", "42"]
    )
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((tmp_path / "norm_crosscheck.json").read_text())
    assert doc["passed"] is True
    assert float(doc["metadata"]["max_rel_err"]) <= 1e-9
    assert float(doc["metadata"]["norm_sq_of_one"]) == pytest.approx(2.0, abs=1e-12)


def test_format_selection(workdir, runner):
    res = runner.invoke(
        main,
        ["norm-crosscheck", "--out", str(workdir), "--format", "csv"],
    )
    assert res.exit_code == EXIT_OK
    assert (workdir / "norm_crosscheck.csv").exists()
    assert not (workdir / "norm_crosscheck.json").exists()


def test_every_written_file_records_its_provenance(tmp_path, runner):
    """pair.json and every JSON report of the six verbs record the code
    version, and one config gives them all one config hash."""
    from hblab.reports import CODE_VERSION

    cfg = write_config(tmp_path, j_max=64, summability_n_list=[0, 2, 8, 16])
    out = tmp_path / "out"
    for verb in VERBS:
        runner.invoke(main, [verb, "--config", cfg, "--out", str(out)])
    docs = {p.stem: json.loads(p.read_text()) for p in out.glob("*.json")}
    assert sorted(docs) == [
        "divergence", "envelope", "norm_crosscheck", "pair", "sarason", "summability",
        "verify_outer",
    ]
    stamps = {
        (meta["code_version"], meta["config_hash"])
        for meta in (doc if name == "pair" else doc["metadata"] for name, doc in docs.items())
    }
    assert len(stamps) == 1 and stamps.pop()[0] == CODE_VERSION


def test_reports_deterministic(workdir, runner, tmp_path):
    """Identical config and seed give byte-identical JSON (runtime is kept
    out of the files)."""
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        res = runner.invoke(main, ["construct", "--out", str(out)])
        assert res.exit_code == EXIT_OK
        runner.invoke(main, ["verify-outer", "--out", str(out)])
        runner.invoke(main, ["norm-crosscheck", "--out", str(out), "--seed", "7"])
        outs.append(out)
    for name in ("verify_outer.json", "norm_crosscheck.json", "verify_outer.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
