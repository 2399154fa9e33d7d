import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpercept import cli, inference, toymodels
from qpercept.errors import ValidationError

jsonschema = pytest.importorskip("jsonschema")

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "schemas" / "cli_output.schema.json").read_text())


def _subprocess_env():
    env = dict(os.environ)
    env.pop("QPERCEPT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli_subprocess(*args, check=True):
    """`python -m qpercept.cli` in a fresh interpreter; kept for the smoke tests."""
    proc = subprocess.run(
        [sys.executable, "-m", "qpercept.cli", *args],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    if check and proc.returncode not in (0, 1):
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """cli.main in process, returning what a subprocess would show."""

    def run(*args, env_seed=None, check=True):
        if env_seed is None:
            monkeypatch.delenv("QPERCEPT_SEED", raising=False)
        else:
            monkeypatch.setenv("QPERCEPT_SEED", str(env_seed))
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        if check and code not in (0, 1):
            raise AssertionError(f"exit {code}: {err}")
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def test_typicality_circle_command(run_cli):
    proc = run_cli(
        "typicality", "--model", "circle",
        "--theta", "1.5707963", "--phi", "2.6179939", "--grid", "100001",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload)
    assert payload["results"]["typicality"] == pytest.approx(0.007512, abs=1e-5)
    assert payload["results"]["grid_typicality"] == pytest.approx(
        payload["results"]["typicality"], abs=1e-4
    )


def test_typicality_sphere_and_ball_commands(run_cli):
    sphere = json.loads(
        run_cli(
            "typicality",
            "--model", "sphere",
            "--theta", "0.9",
            "--vartheta", "1.2",
            "--phi", "0.4",
        ).stdout
    )
    validate(sphere)
    assert 0.0 <= sphere["results"]["typicality"] <= 1.0
    ball = json.loads(
        run_cli(
            "typicality", "--model", "ball", "--u", "0.1", "--v", "0.2", "--w", "0.3"
        ).stdout
    )
    validate(ball)
    assert ball["results"]["density"] == pytest.approx(
        1.3 / (1 + 0.01 + 0.04 + 0.09), abs=1e-9
    )


def test_sqmn_band_command():
    payload = json.loads(run_cli_subprocess("sqmn", "band").stdout)
    validate(payload)
    assert payload["results"]["low"] == pytest.approx(0.0062666117, abs=1e-8)
    assert payload["results"]["high"] == pytest.approx(2.8070337683, abs=1e-8)


def test_sqmn_moments_and_experiment(run_cli):
    moments = json.loads(run_cli("sqmn", "moments", "--p", "1.0").stdout)
    validate(moments)
    assert moments["results"]["mean"] == pytest.approx(1.5, abs=1e-9)
    exp = json.loads(run_cli("sqmn", "experiment", "--k", "8").stdout)
    validate(exp)
    assert exp["results"]["probability"] == pytest.approx(1 / 3, abs=1e-9)
    assert exp["results"]["confidence_bound"] == pytest.approx(0.4989, abs=1e-3)


def test_epr_command(run_cli):
    payload = json.loads(run_cli("epr", "--theta", str(math.pi / 2), "--parts", "3").stdout)
    validate(payload)
    res = payload["results"]
    assert res["mu_up_a"] == res["mu_down_a"]
    assert res["unconfused_fraction_alternative"] == 0.25


def test_flag_command_and_schema(run_cli):
    proc = run_cli("flag", "--dim", "4", "--ranks", "2,1,1", "--seed", "7")
    payload = json.loads(proc.stdout)
    validate(payload)
    assert payload["results"]["manifold_dimension"] == 10
    assert payload["provenance"]["seed"] == 7
    dens = payload["results"]["maximally_mixed_densities"]
    assert dens == pytest.approx([0.5, 0.25, 0.25], abs=1e-9)


def test_twostep_pointwise_command(run_cli):
    payload = json.loads(
        run_cli(
            "twostep",
            "--theta0", "0.0", "--phi0", "0.0",
            "--theta1", "1.5707963267948966", "--phi1", "0.7",
            "--theta2", "1.5707963267948966", "--phi2", "2.9",
        ).stdout
    )
    validate(payload)
    assert abs(payload["results"]["weak_residual"]) <= 1e-10
    assert payload["results"]["triangle_status"] == "ok"


def test_twostep_mc_determinism_and_env_seed(run_cli):
    a = run_cli("twostep", "--mc", "20000", "--seed", "11")
    b = run_cli("twostep", "--mc", "20000", "--seed", "11")
    assert a.stdout == b.stdout  # byte identical
    payload = json.loads(a.stdout)
    validate(payload)
    assert payload["provenance"] == {"seed": 11, "samples": 20000, "blockSize": 2**16}
    results = payload["results"]
    f = results["linear_positivity_fraction"]
    assert f == results["hits"] / 20000
    assert results["standard_error"] == pytest.approx(math.sqrt(f * (1 - f) / 20000), rel=1e-11)
    via_env = run_cli("twostep", "--mc", "20000", env_seed=11)
    assert via_env.stdout == a.stdout
    different = run_cli("twostep", "--mc", "20000", "--seed", "12")
    assert different.stdout != a.stdout


def test_reproduce_fast_subset_and_formats(tmp_path, run_cli):
    proc = run_cli("reproduce", "--only", "digit")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate(payload)
    assert payload["results"]["failed"] == []
    names = [c["name"] for c in payload["results"]["checks"]]
    assert names == ["digit-n1", "digit-n0", "digit-n2"]

    csv_proc = run_cli("reproduce", "--only", "digit", "--format", "csv")
    lines = csv_proc.stdout.strip().splitlines()
    assert lines[0] == "name,expected,observed,tolerance,pass"
    assert len(lines) == 4

    out = tmp_path / "report.json"
    run_cli("reproduce", "--only", "digit", "--output", str(out))
    assert json.loads(out.read_text())["results"]["failed"] == []


def test_reproduce_known_reference_discrepancies():
    proc = run_cli_subprocess("reproduce", "--only", "band")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    validate(payload)
    assert payload["results"]["failed"] == ["band-high"]
    assert "failing checks: band-high" in proc.stderr
    by_name = {c["name"]: c for c in payload["results"]["checks"]}
    assert by_name["band-low"]["pass"] is True
    assert "transposed" in by_name["band-high"]["note"]


def test_config_file_presets(tmp_path, run_cli):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"format": "csv", "only": "digit"}))
    proc = run_cli("--config", str(cfg), "reproduce")
    assert proc.stdout.startswith("name,expected,observed")
    # command line overrides the file
    proc2 = run_cli("--config", str(cfg), "reproduce", "--format", "json")
    json.loads(proc2.stdout)


def test_usage_errors_exit_two():
    # argparse's own usage block and exit used to bypass the one-line message
    proc = run_cli_subprocess("epr", check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "qpercept: invalid input: missing required options: --theta\n"


def test_computation_errors_exit_one(run_cli):
    # degenerate circle-model state is a computation-domain error
    proc = run_cli("typicality", "--model", "circle", "--theta", "0", "--phi", "1", check=False)
    assert proc.returncode == 1


# --- strict JSON: non-finite inputs and results, run in process ---------------


@pytest.mark.parametrize(
    "argv, option",
    [
        (["typicality", "--model", "circle", "--theta", "nan", "--phi", "0.3"], "--theta"),
        (["typicality", "--model", "circle", "--theta", "1.2", "--phi", "-inf"], "--phi"),
        (["typicality", "--model", "ball", "--u", "nan", "--v", "0", "--w", "0"], "--u"),
        (["typicality", "--model", "sphere", "--theta", "0.9", "--vartheta", "inf", "--phi", "0"],
         "--vartheta"),
        (["sqmn", "posterior", "--p", "inf", "--n", "1"], "--p"),
        (["sqmn", "posterior", "--p", "1.3", "--n", "NaN"], "--n"),
        (["sqmn", "band", "--floor", "Infinity"], "--floor"),
        (["sqmn", "experiment", "--k", "3", "--level", "nan"], "--level"),
        (["epr", "--theta", "nan"], "--theta"),
        (["twostep", "--theta0", "0", "--phi0", "0", "--theta1", "inf", "--phi1", "0",
          "--theta2", "1", "--phi2", "2"], "--theta1"),
    ],
)
def test_non_finite_options_exit_two(argv, option, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert f"{option} must be finite" in err


def test_non_finite_config_value_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"theta": NaN, "phi": 0.3}')
    assert cli.main(["--config", str(cfg), "typicality", "--model", "circle"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "qpercept: invalid input: --theta must be finite, got nan\n"


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ('{"grid": 2.5}', ["typicality", "--model", "circle", "--theta", "1", "--phi", "0"],
         "config key 'grid' has invalid value 2.5"),
        ('{"seed": "abc"}', ["flag", "--dim", "2", "--ranks", "1,1"],
         "config key 'seed' has invalid value 'abc'"),
        ('{"seed": true}', ["flag", "--dim", "2", "--ranks", "1,1"],
         "config key 'seed' has invalid value True"),
        ('{"bogus": 1}', ["reproduce", "--only", "digit"],
         "config key 'bogus' is not an option of reproduce"),
        ('{"theta": 1.0}', ["sqmn", "band"], "config key 'theta' is not an option of sqmn"),
        ('{"format": "xml"}', ["sqmn", "band"], "config key 'format' must be one of json, csv"),
        ('[1, 2]', ["sqmn", "band"], "config file must hold a JSON object of option values"),
        ('{"floor": ', ["sqmn", "band"], "cannot read config file"),
    ],
)
def test_bad_config_values_exit_two(config, argv, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert cli.main(["--config", str(cfg), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"qpercept: invalid input: {message}")


def test_config_values_parse_like_the_command_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"theta": "0.7", "phi": 0.3, "grid": "11", "format": "json"}')
    assert cli.main(["--config", str(cfg), "typicality", "--model", "circle", "--phi", "-0.3"]) == 0
    from_config = json.loads(capsys.readouterr().out)
    argv = ["typicality", "--model", "circle", "--theta", "0.7", "--phi", "-0.3", "--grid", "11"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == from_config


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "circle", "--theta", "1", "--phi", "0"],
        ["--model", "ball", "--u", "0.1", "--v", "0.2", "--w", "0.3"],
    ],
)
@pytest.mark.parametrize("grid", ["-5", "0", "1"])
def test_grid_below_two_exits_two(argv, grid, capsys):
    assert cli.main(["typicality", *argv, "--grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"qpercept: invalid input: --grid must be at least 2, got {grid}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "sphere", "--theta", "0.9", "--vartheta", "1.2", "--phi", "0.4"],
        ["--model", "ball", "--u", "0.1", "--v", "0.2", "--w", "0.3"],
    ],
)
def test_grid_outside_the_circle_model_exits_two(argv, capsys):
    assert cli.main(["typicality", *argv, "--grid", "5"]) == 2
    out, err = capsys.readouterr()
    model = argv[1]
    assert out == "" and err == f"qpercept: invalid input: --grid applies to --model circle only, not {model}\n"


def test_grid_above_bound_exits_two(capsys):
    argv = ["typicality", "--model", "circle", "--theta", "1", "--phi", "0"]
    assert cli.main([*argv, "--grid", str(cli.MAX_GRID + 1)]) == 2
    out, err = capsys.readouterr()
    assert cli.MAX_GRID == 10**7
    assert out == "" and err == "qpercept: invalid input: --grid must be at most 10000000, got 10000001\n"


def test_epr_parts_above_bound_exits_two(capsys):
    assert toymodels.MAX_PARTS == 1023
    with pytest.raises(ValidationError):
        toymodels.epr_cat_model(0.0).unconfused_fraction_alternative(toymodels.MAX_PARTS + 1)
    assert cli.main(["epr", "--theta", "0.3", "--parts", "1024"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "qpercept: invalid input: the cat can be divided into at most 1023 parts, got 1024\n"


def test_epr_at_the_parts_bound_is_fast(capsys):
    start = time.perf_counter()
    assert cli.main(["epr", "--theta", "0.3", "--parts", "1023"]) == 0
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    validate(payload)
    assert payload["results"]["unconfused_fraction_alternative"] == float(f"{2.0 ** -1022:.12g}")
    assert elapsed < 1.0  # the closed form is O(parts); the Kronecker loop was O(4^parts)


def test_flag_dim_above_bound_exits_two(capsys):
    assert cli.MAX_DIM == 64
    assert cli.main(["flag", "--dim", "65", "--ranks", ",".join(["1"] * 65)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "qpercept: invalid input: --dim must be at most 64, got 65\n"


def test_output_into_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.json"
    assert cli.main(["sqmn", "band", "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and not target.exists()
    assert err.startswith(f"qpercept: invalid input: cannot write --output {str(target)!r}: ")


def test_experiment_digit_count_beyond_float_range_fails_fast(capsys):
    start = time.perf_counter()
    assert cli.main(["sqmn", "experiment", "--k", "10000000"]) == 1
    assert time.perf_counter() - start < 0.5  # 10^k is refused before it is built
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("qpercept: computation failed: 10^10000000 digit strings exceed the float range")
    assert cli.main(["sqmn", "experiment", "--k", "308"]) == 0
    validate(json.loads(capsys.readouterr().out))


def _main_captured(argv):
    """cli.main in process without pytest fixtures, so hypothesis can call it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _check_outcome(argv, in_range=None):
    """in_range says whether argv must succeed; None accepts either outcome."""
    code, out, err = _main_captured(argv)
    if in_range is None:
        in_range = code == 0
    if in_range:
        assert code == 0 and err == "", (argv, err)
        validate(json.loads(out, parse_constant=_reject_constant))
    else:
        assert code in (1, 2) and out == "", (argv, code)
        assert err.count("\n") == 1 and err.startswith("qpercept: "), (argv, err)


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(min_value=-1.0, max_value=4.0),
    parts=st.one_of(st.integers(-3, 20), st.integers(1000, 1100), st.integers(10**6, 10**18)),
)
def test_epr_property(theta, parts):
    in_range = 0.0 <= theta <= math.pi and 1 <= parts <= toymodels.MAX_PARTS
    _check_outcome(["epr", "--theta", repr(theta), "--parts", str(parts)], in_range)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.one_of(st.integers(-2, 8), st.integers(cli.MAX_DIM + 1, 10**9)),
    ranks=st.one_of(st.none(), st.lists(st.integers(-1, 8), min_size=1, max_size=5)),
)
def test_flag_dim_property(dim, ranks):
    # ranks=None splits an in-range dim into rank-one blocks, a valid partition
    if ranks is None:
        ranks = [1] * dim if 1 <= dim <= cli.MAX_DIM else [1]
    in_range = 1 <= dim <= cli.MAX_DIM and min(ranks) >= 1 and sum(ranks) == dim
    argv = ["flag", "--dim", str(dim), "--ranks", ",".join(map(str, ranks)), "--seed", "7"]
    _check_outcome(argv, in_range)


@settings(max_examples=60, deadline=None)
@given(k=st.one_of(st.integers(-4, 320), st.integers(10**3, 10**8)))
def test_experiment_k_property(k):
    in_range = k % 2 == 0 and 1 <= k <= sys.float_info.max_10_exp
    _check_outcome(["sqmn", "experiment", "--k", str(k)], in_range)


def test_cold_cli_never_imports_scipy():
    # scipy costs most of a cold start, and no subcommand needs it; the tests
    # keep it as an oracle only
    code = (
        "import contextlib, io, sys, qpercept.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert qpercept.cli.main(['sqmn', 'moments', '--p', '1.3']) == 0\n"
        "assert 'scipy' not in sys.modules, 'sqmn moments'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qpercept.cli.main(['reproduce', '--seed', '42']) == 1\n"
        "assert 'scipy' not in sys.modules, 'reproduce'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["dual_mean"] == pytest.approx(
        inference.dual_posterior_moment(1.3, 1), rel=1e-11
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sqmn", "posterior", "--p", "1e300", "--n", "1e-300"],  # a density overflows to inf
        ["sqmn", "moments", "--p", "1e300"],  # OverflowError
        ["sqmn", "moments", "--p", "1e-300"],  # ZeroDivisionError
        ["sqmn", "experiment", "--k", "400", "--n", "1e300"],  # OverflowError
    ],
)
def test_non_finite_results_exit_one(argv, fmt, tmp_path, capsys):
    target = tmp_path / "report"
    assert cli.main([*argv, "--format", fmt, "--output", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not target.exists()
    assert err.startswith("qpercept: computation failed: ") and err.count("\n") == 1


# --- one usage-error path: argparse errors, required options, config presets ---


_SUBPARSERS = next(
    a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
# tokens in the notations argparse may mistake for options, plus ones no option accepts
_VALUE_TOKENS = ["-1e-05", "-inf", "nan", "2.5", "abc", "-1", "3", "0.7"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["sqmn"], "the following arguments are required: sub"),
        (["typicality", "--model", "cube"], "argument --model: invalid choice: 'cube'"),
        (["epr", "--theta", "1", "--parts", "2.5"], "argument --parts: invalid int value: '2.5'"),
        (["epr", "--theta"], "argument --theta: expected one argument"),
        (["epr", "--theta", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["epr", "--theta", "1", "a\nb"], "unrecognized arguments: a\\nb"),
        (["typicality", "--model", "circle"], "missing required options: --theta, --phi"),
        (["flag", "--dim", "3", "--ranks", "2,2"], "ranks (2, 2) do not partition dim 3"),
        (["flag"], "missing required options: --dim, --ranks"),
        (["typicality", "--theta", "1"], "missing required options: --model"),
        (["flag", "--dim", "1", "--ranks", "1", "--seed", "-1"], "the seed must be nonnegative, got -1"),
    ],
)
def test_usage_errors_print_one_line(argv, message, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"qpercept: invalid input: {message}")


def test_no_option_is_required_by_argparse():
    # _require runs after --config, so a config file can preset any option
    for sub in _SUBPARSERS.values():
        assert not any(a.required for a in sub._actions if a.option_strings)


@pytest.mark.parametrize(
    "preset, argv",
    [
        ({"theta": 0.3}, ["epr", "--theta", "0.3"]),
        ({"dim": 3, "ranks": "2,1"}, ["flag", "--dim", "3", "--ranks", "2,1"]),
        ({"model": "ball"}, ["typicality", "--model", "ball"]),
    ],
)
def test_config_presets_required_options(preset, argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(preset))
    extra = ["--u", "0.1", "--v", "0.2", "--w", "0.3"] if argv[0] == "typicality" else []
    assert cli.main(["--config", str(cfg), argv[0], *extra]) == 0
    from_config = capsys.readouterr().out
    assert cli.main([*argv, *extra]) == 0
    assert capsys.readouterr().out == from_config


def test_negative_value_after_a_space(capsys):
    assert cli.main(["sqmn", "posterior", "--p", "-1e-3", "--n", "1"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(["sqmn", "posterior", "--p=-1e-3", "--n", "1"]) == 0
    assert capsys.readouterr().out == spaced
    assert json.loads(spaced)["params"]["p"] == -1e-3


def test_twostep_mc_above_sample_bound_exits_two_at_once(capsys):
    assert toymodels.MAX_SAMPLES == 10**9
    start = time.perf_counter()
    assert cli.main(["twostep", "--mc", "1000000001"]) == 2
    assert time.perf_counter() - start < 0.5  # refused before any sample is drawn
    out, err = capsys.readouterr()
    assert out == "" and err == "qpercept: invalid input: need 1 to 1000000000 samples, got 1000000001\n"


def test_twostep_shards_option_is_gone(tmp_path, capsys):
    assert cli.main(["twostep", "--mc", "100", "--shards", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "--shards" in err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"shards": 2}))
    assert cli.main(["--config", str(config), "twostep", "--mc", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "qpercept: invalid input: config key 'shards' is not an option of twostep\n"


# one valid call per code path, for the property test to mutate
_VALID_ARGV = [
    ["typicality", "--model", "circle", "--theta", "1.2", "--phi", "2.5", "--grid", "11"],
    ["typicality", "--model", "sphere", "--theta", "0.9", "--vartheta", "1.2", "--phi", "0.4"],
    ["typicality", "--model", "ball", "--u", "0.1", "--v", "0.2", "--w", "0.3"],
    ["sqmn", "posterior", "--p", "1.3", "--n", "0.7"],
    ["sqmn", "moments", "--p", "1.5"],
    ["sqmn", "band", "--floor", "0.02"],
    ["sqmn", "experiment", "--k", "6", "--n", "1.2", "--level", "0.95"],
    ["epr", "--theta", "1.1", "--parts", "3"],
    ["flag", "--dim", "4", "--ranks", "2,1,1", "--seed", "5"],
    ["twostep", "--theta0", "0", "--phi0", "0", "--theta1", "0.7", "--phi1", "0.3",
     "--theta2", "1.1", "--phi2", "2"],
    ["twostep", "--mc", "100"],
]


@st.composite
def _argv(draw):
    """A valid call with up to three tokens replaced, inserted or deleted."""
    argv = list(draw(st.sampled_from(_VALID_ARGV)))
    # reproduce runs the whole battery and --output writes files: both left out
    options = [s for a in _SUBPARSERS[argv[0]]._actions if a.dest not in ("help", "output")
               for s in a.option_strings]
    tokens = st.sampled_from([*options, *_VALUE_TOKENS])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(tokens))
        elif edit == "replace":
            argv[i] = draw(tokens)
        else:
            del argv[i]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_main_never_raises_property(argv):
    _check_outcome(argv)
