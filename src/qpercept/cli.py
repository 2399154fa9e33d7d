"""Command-line interface: reproduce the reference-constant battery and run
parameterized analyses, emitting machine-readable JSON (default) or CSV.

Output is deterministic: identical invocations with identical seeds produce
byte-identical bytes (numbers are rounded to 12 significant digits and no
timestamps are emitted).  Exit codes: 0 success, 1 computation or battery
failure, 2 usage error, argparse's own included, with one line on stderr.
A token that starts like a negative number (`-1e-05`, `-inf`, `-.5`) is a
value.  Required options are checked after `--config`, so a config file can
preset every long option.  Reports are strict JSON: a non-finite option is a
usage error, and a non-finite result is a computation failure.

Each subcommand imports only the modules it runs.  `sqmn` (through
`inference`), `typicality` without `--grid`, `twostep` without `--mc` and
`epr` (through `bloch`) need only `math`, so they load no numpy.  Nor do
they load `dataclasses`, whose import pulls in `inspect`, since the records
of `bloch` and `inference` are NamedTuples, or `csv`, which only `--format
csv` needs.  On a 2-core Xeon VM where `python -c pass` took 0.043 s, each of
them took 0.062-0.064 s cold, against 0.073-0.077 s while they loaded
`dataclasses` and `csv` (medians of 15 fresh processes per command,
alternating with the old code).  `twostep --mc` and `flag` (0.157 s there)
load numpy; `reproduce` and `typicality --grid` also load the battery.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from typing import Any, Optional

from .errors import BLOCK, DEFAULT_SEED, MAX_PARTS, MAX_SAMPLES, QPerceptError, ValidationError, check_int

SEED_ENV_VAR = "QPERCEPT_SEED"
# a 10^7-point circle grid peaks near 0.57 GB of resident memory
MAX_GRID = 10**7
# 64 rank-1 blocks at dim 64 take 3.5 s and print 17 MB of JSON; 128 take 19 s and 137 MB
MAX_DIM = 64


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise QPerceptError("the report holds a non-finite value")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _flatten(prefix: str, obj: Any, rows: list[tuple[str, Any]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _emit(report: dict, fmt: str, output: Optional[str]) -> None:
    report = _round_floats(report)
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=False, allow_nan=False) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if report.get("command") == "reproduce":
            writer.writerow(["name", "expected", "observed", "tolerance", "pass"])
            for check in report["results"]["checks"]:
                writer.writerow(
                    [check["name"], check["expected"], check["observed"], check["tolerance"], check["pass"]]
                )
        else:
            rows: list[tuple[str, Any]] = []
            _flatten("", report, rows)
            writer.writerow(["key", "value"])
            writer.writerows(rows)
        text = buf.getvalue()
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --output {output!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _resolve_seed(args: argparse.Namespace) -> int:
    seed, env = args.seed, os.environ.get(SEED_ENV_VAR)
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED if seed is None else check_int("the seed", seed, 0)


# before 3.13 argparse takes only -\d+ and -\d*\.\d+ for negative numbers,
# so "-1e-05" or "-inf" after a space would read as an unknown option
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises ValidationError on usage errors; subparsers inherit the class."""

    def error(self, message: str):
        # argparse echoes unrecognized tokens verbatim, newlines included
        raise ValidationError(message.replace("\n", "\\n"))

    def _parse_optional(self, arg_string: str):
        if _NEGATIVE_NUMBER.match(arg_string):
            return None  # a value, not an option
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpercept",
        description="Perception-measure statistics for finite-dimensional quantum states.",
    )
    parser.add_argument("--config", help="JSON file of default option values")

    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("reproduce", help="run the full reference-constant battery")
    common(p)
    p.add_argument("--only", default=None, help="restrict to checks whose name contains this")

    p = sub.add_parser("typicality", help="toy-model densities and typicalities")
    common(p)
    p.add_argument("--model", choices=["circle", "sphere", "ball"])
    p.add_argument("--theta", type=float, help="state polar angle")
    p.add_argument("--phi", type=float, help="perception azimuth")
    p.add_argument("--vartheta", type=float, help="perception polar angle (sphere model)")
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--w", type=float)
    p.add_argument("--grid", type=int, default=None,
                   help=f"circle only: also cross-check on an n-point grid, 2 <= n <= {MAX_GRID}")

    p = sub.add_parser("sqmn", help="power-law exponent statistics")
    common(p)
    p.add_argument("sub", choices=["posterior", "moments", "band", "experiment"])
    p.add_argument("--p", type=float, default=None, help="observed deviation")
    p.add_argument("--n", type=float, default=None, help="exponent")
    p.add_argument("--k", type=int, default=None, help="digit count")
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--floor", type=float, default=None, help="dual-typicality floor for the band")

    p = sub.add_parser("epr", help="paired-spin and divided-cat measures")
    common(p)
    p.add_argument("--theta", type=float)
    p.add_argument("--parts", type=int, default=None,
                   help=f"divide the cat into 1 to {MAX_PARTS} parts (default 2)")

    p = sub.add_parser("flag", help="sample a projector decomposition")
    common(p)
    p.add_argument("--dim", type=int, help=f"Hilbert-space dimension, at most {MAX_DIM}")
    p.add_argument("--ranks", help="comma-separated ranks, e.g. 2,1,1")

    p = sub.add_parser("twostep", help="two-step history decoherence diagnostics")
    common(p)
    p.add_argument("--theta0", type=float)
    p.add_argument("--phi0", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--phi1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--phi2", type=float)
    p.add_argument("--mc", type=int, default=None, help=f"Monte Carlo sample count, 1 to "
                   f"{MAX_SAMPLES}, in blocks of {BLOCK} from spawned seeds")
    return parser


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill options left unset from the --config file, parsed as on the command line."""
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config file {args.config!r}: {exc}") from None
    if not isinstance(values, dict):
        raise ValidationError("config file must hold a JSON object of option values")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in subparsers.choices[args.command]._actions
               if a.option_strings and a.dest != "help"}
    for key, value in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValidationError(f"config key {key!r} is not an option of {args.command}")
        try:
            value = (action.type or str)(str(value))
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise ValidationError(f"config key {key!r} has invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValidationError(f"config key {key!r} must be one of {', '.join(map(str, action.choices))}")
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def _require(args: argparse.Namespace, *names: str) -> dict:
    """The named options as {name: value}, in order; a usage error if any is unset."""
    values = {n: getattr(args, n) for n in names}
    missing = [n for n, v in values.items() if v is None]
    if missing:
        raise ValidationError(f"missing required options: {', '.join('--' + m for m in missing)}")
    return values


def _cmd_reproduce(args) -> tuple[dict, int]:
    from . import reproduce

    seed = _resolve_seed(args)
    checks = reproduce.run_all(seed=seed, only=args.only)
    if not checks:
        raise ValidationError(f"no checks match --only {args.only!r}")
    failed = [c.name for c in checks if not c.passed]
    report = {
        "command": "reproduce",
        "params": {"only": args.only},
        "results": {
            "checks": [c.to_json() for c in checks],
            "passed": len(checks) - len(failed),
            "failed": failed,
        },
        "provenance": {"seed": seed},
    }
    return report, (1 if failed else 0)


def _cmd_typicality(args) -> tuple[dict, int]:
    from . import bloch

    _require(args, "model")
    if args.grid is not None:
        if args.grid < 2:
            raise ValidationError(f"--grid must be at least 2, got {args.grid}")
        if args.grid > MAX_GRID:
            raise ValidationError(f"--grid must be at most {MAX_GRID}, got {args.grid}")
        if args.model != "circle":
            raise ValidationError(f"--grid applies to --model circle only, not {args.model}")
    if args.model == "circle":
        params = _require(args, "model", "theta", "phi")
        results = bloch.circle_model(args.theta, args.phi)._asdict()
        if args.grid is not None:
            from . import reproduce

            results["grid_typicality"] = reproduce.circle_grid_typicality(
                args.theta, args.phi, points=args.grid
            )
    elif args.model == "sphere":
        params = _require(args, "model", "theta", "vartheta", "phi")
        results = bloch.sphere_model(args.theta, args.vartheta, args.phi)._asdict()
    else:
        params = _require(args, "model", "u", "v", "w")
        results = {
            "density": bloch.ball_spin_up_density(args.u, args.v, args.w),
            "prior_weight": bloch.ball_prior_weight(args.u, args.v, args.w),
        }
    return {"command": "typicality", "params": params, "results": results}, 0


def _cmd_sqmn(args) -> tuple[dict, int]:
    from . import inference

    if args.sub == "posterior":
        params = _require(args, "sub", "p", "n")
        results = {
            "posterior_density": inference.posterior_density(args.p, args.n),
            "dual_posterior_density": inference.dual_posterior(args.p, args.n),
            "typicality": inference.gaussian_typicality(args.n, args.p),
            "reversed_typicality": inference.gaussian_reversed(args.n, args.p),
            "dual_typicality": inference.gaussian_dual(args.n, args.p),
        }
    elif args.sub == "moments":
        params = _require(args, "sub", "p")
        mean = inference.posterior_moment(args.p, 1)
        second = inference.posterior_moment(args.p, 2)
        dual_mean = inference.dual_posterior_moment(args.p, 1)
        dual_second = inference.dual_posterior_moment(args.p, 2)
        results = {
            "mean": mean,
            "std": math.sqrt(second - mean * mean),
            "dual_mean": dual_mean,
            "dual_std": math.sqrt(dual_second - dual_mean * dual_mean),
        }
    elif args.sub == "band":
        floor = 0.01 if args.floor is None else args.floor
        low, high = inference.gaussian_99_band(floor)
        results = {"low": low, "high": high, "dual_floor": floor}
        params = {"sub": "band", "floor": floor}
    else:
        params = _require(args, "sub", "k")
        n = params["n"] = 1.0 if args.n is None else args.n
        level = 0.99 if args.level is None else args.level
        results = {
            "probability": inference.canonical_digit_experiment(args.k, n),
            "confidence_bound": inference.confidence_bound(args.k, level),
            "level": level,
        }
    return {"command": "sqmn", "params": params, "results": results}, 0


def _cmd_epr(args) -> tuple[dict, int]:
    from . import bloch

    params = _require(args, "theta")
    parts = params["parts"] = 2 if args.parts is None else args.parts
    rep = bloch.epr_cat_model(args.theta)
    results = {key: value for key, value in rep._asdict().items() if key != "theta"}
    results["unconfused_fraction_alternative"] = rep.unconfused_fraction_alternative(parts)
    results["parts"] = parts
    return {"command": "epr", "params": params, "results": results}, 0


def _cmd_flag(args) -> tuple[dict, int]:
    from . import manyworlds
    from .operators import State

    params = _require(args, "dim", "ranks")
    if args.dim > MAX_DIM:
        raise ValidationError(f"--dim must be at most {MAX_DIM}, got {args.dim}")
    try:
        ranks = params["ranks"] = tuple(int(r) for r in args.ranks.split(","))
    except ValueError as exc:
        raise ValidationError(f"could not parse ranks {args.ranks!r}") from exc
    seed = _resolve_seed(args)
    decomposition = manyworlds.sample_decomposition(args.dim, ranks, seed)
    densities = manyworlds.density_at(decomposition, State.maximally_mixed(args.dim))
    results = {
        "manifold_dimension": manyworlds.manifold_dimension(args.dim, ranks),
        "decomposition": decomposition.to_json(),
        "maximally_mixed_densities": [float(d) for d in densities],
    }
    report = {
        "command": "flag",
        "params": params,
        "results": results,
        "provenance": {"seed": seed},
    }
    return report, 0


def _cmd_twostep(args) -> tuple[dict, int]:
    from . import bloch

    if args.mc is not None:
        from . import toymodels

        seed = _resolve_seed(args)
        mc = toymodels.linear_positivity_fraction(args.mc, seed)
        report = {
            "command": "twostep",
            "params": {"mc": args.mc},
            "results": {"linear_positivity_fraction": mc.fraction, "hits": mc.hits,
                        "standard_error": mc.standard_error},
            "provenance": mc.provenance(),
        }
        return report, 0
    params = _require(args, "theta0", "phi0", "theta1", "phi1", "theta2", "phi2")
    directions = [bloch.Direction(params[f"theta{i}"], params[f"phi{i}"]) for i in range(3)]
    results = bloch.two_step_analysis(*directions)._asdict()
    tri = bloch.triangle_equivalence(*directions)
    results.update(triangle_status=tri.status, all_triangles_sub_pi=tri.all_triangles_sub_pi)
    return {"command": "twostep", "params": params, "results": results}, 0


_HANDLERS = {
    "reproduce": _cmd_reproduce,
    "typicality": _cmd_typicality,
    "sqmn": _cmd_sqmn,
    "epr": _cmd_epr,
    "flag": _cmd_flag,
    "twostep": _cmd_twostep,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"--{name} must be finite, got {value}")
        report, code = _HANDLERS[args.command](args)
        _emit(report, args.format or "json", args.output)
    except ValidationError as exc:
        print(f"qpercept: invalid input: {exc}", file=sys.stderr)
        return 2
    except (QPerceptError, ArithmeticError) as exc:  # ArithmeticError: overflow, division by zero
        print(f"qpercept: computation failed: {exc}", file=sys.stderr)
        return 1
    if code != 0 and args.command == "reproduce":
        failed = ", ".join(report["results"]["failed"])
        print(f"qpercept: failing checks: {failed}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
