"""Byte-for-byte golden outputs of the CLI, run in process through `cli.main`.

Each case writes its report with `--output` and must match
`tests/golden/<name>.json` exactly; the exit code is pinned too.  The files
pin behaviour across refactors, so regenerate them only for an intended
change of output, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
import sys
from pathlib import Path

import pytest

from qpercept import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code)
CASES = {
    "reproduce_seed42": (["reproduce", "--seed", "42"], 1),
    "typicality_circle": (["typicality", "--model", "circle", "--theta", "1.2", "--phi", "2.5"], 0),
    "typicality_circle_grid": (
        ["typicality", "--model", "circle", "--theta", "1.2", "--phi", "2.5", "--grid", "2001"],
        0,
    ),
    "typicality_sphere": (
        ["typicality", "--model", "sphere", "--theta", "0.9", "--vartheta", "1.2", "--phi", "0.4"],
        0,
    ),
    "typicality_ball": (["typicality", "--model", "ball", "--u", "0.1", "--v", "0.2", "--w", "0.3"], 0),
    "sqmn_posterior": (["sqmn", "posterior", "--p", "1.3", "--n", "0.7"], 0),
    "sqmn_moments": (["sqmn", "moments", "--p", "1.5"], 0),
    "sqmn_band": (["sqmn", "band", "--floor", "0.02"], 0),
    "sqmn_experiment": (["sqmn", "experiment", "--k", "6", "--n", "1.2", "--level", "0.95"], 0),
    **{
        f"epr_parts{n}": (["epr", "--theta", "1.1", "--parts", str(n)], 0)
        for n in range(1, 7)
    },
    "flag": (["flag", "--dim", "4", "--ranks", "2,1,1", "--seed", "5"], 0),
    "twostep_linpos": (
        ["twostep", "--theta0", "0.0", "--phi0", "0.0", "--theta1", "0.7", "--phi1", "0.3",
         "--theta2", "1.1", "--phi2", "2.0"],
        0,
    ),
    "twostep_not_linpos": (
        ["twostep", "--theta0", "0.3", "--phi0", "0.2", "--theta1", "1.9", "--phi1", "1.0",
         "--theta2", "2.9", "--phi2", "4.0"],
        0,
    ),
    "twostep_mc": (["twostep", "--mc", "100000", "--seed", "7"], 0),
}


def _run(argv, output: Path) -> int:
    return cli.main([*argv, "--output", str(output)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argv, code = CASES[name]
    out = tmp_path / f"{name}.json"
    assert _run(argv, out) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in sorted(CASES.items()):
        got = _run(argv, GOLDEN / f"{name}.json")
        if got != code:
            sys.exit(f"{name}: exit {got}, expected {code}")
