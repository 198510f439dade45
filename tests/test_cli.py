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
    load_config,
    main,
)


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


# -- config handling --------------------------------------------------------


def test_load_config_precedence(tmp_path):
    cfg_path = write_config(tmp_path, seed=5, precision_bits=128)
    cfg = load_config(cfg_path, None, None, None, None)
    assert cfg["seed"] == 5 and cfg["precision_bits"] == 128
    cfg = load_config(cfg_path, None, 256, 9, "csv")
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


# -- experiments ------------------------------------------------------------


def test_divergence_reports(workdir, runner):
    res = runner.invoke(main, ["divergence", "--out", str(workdir)])
    assert res.exit_code == EXIT_ASSERTION  # bound rows fail at desk scale
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
