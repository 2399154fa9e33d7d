"""The benchmark's four workloads.

Each workload turns the benchmark seed into inputs (`make_inputs`), runs one
operation on them (`op`) and checks that operation's output (`gate`).  Only
`op` is timed; the gate runs after the clock stops.  Every workload is a
closed loop with one client, and no operation runs more than one subprocess
at a time.

Input sizes are capped where the package's cost explodes:
`EPR_MAX_PARTS` and `MAX_STEPS` give the caps and their reasons.
"""
from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from qpercept import cli, hypotheses, inference, manyworlds, measures, toymodels
from qpercept.operators import Operator, State, bloch_projector, expectation

from tracing import Tracer

# `epr --parts n` builds dense 2^n x 2^n matrices: parts 10 takes 34 s on a
# 2-core Xeon VM, and parts 22 asks for 128 TiB.
EPR_MAX_PARTS = 6
# reconstruct_measures enumerates 4^steps histories: on the same machine 8
# steps take 1.4 s and 10 take 40 s.
MAX_STEPS = 7
RECONSTRUCT_STEPS = tuple(range(4, MAX_STEPS + 1))

PI = math.pi


@dataclass
class Context:
    """What every workload may use: the checkout, the child environment, a scratch dir."""

    root: Path
    env: dict
    scratch: Path


@dataclass
class Workload:
    name: str
    in_process: bool
    make_inputs: Callable[[int, Context], Any]
    op: Callable[[Any, int, Optional[Tracer]], Any]
    gate: Callable[[Any, int, Any], bool]
    computed: Callable[[Any], dict] = lambda inputs: {}


def _f(x: float) -> str:
    return repr(float(x))


def _direction(rng: np.random.Generator) -> toymodels.Direction:
    return toymodels.Direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * PI))


def _ball_point(rng: np.random.Generator, radius: float) -> tuple[float, float, float]:
    v = rng.standard_normal(3)
    v *= radius * rng.uniform() ** (1 / 3) / np.linalg.norm(v)
    return float(v[0]), float(v[1]), float(v[2])


# ---------------------------------------------------------------------------
# cli: one fresh `python -m qpercept.cli` process per operation

CLI_KINDS = (
    "typicality_circle",
    "typicality_sphere",
    "typicality_ball",
    "sqmn_posterior",
    "sqmn_moments",
    "sqmn_band",
    "sqmn_experiment",
    "epr",
    "flag",
    "twostep",
)


def _cli_argv(kind: str, rng: np.random.Generator) -> list[str]:
    u = rng.uniform
    if kind == "typicality_circle":
        return ["typicality", "--model", "circle", "--theta", _f(u(0.1, PI - 0.1)), "--phi", _f(u(-PI, PI))]
    if kind == "typicality_sphere":
        return ["typicality", "--model", "sphere", "--theta", _f(u(0, PI)),
                "--vartheta", _f(u(0, PI)), "--phi", _f(u(0, 2 * PI))]
    if kind == "typicality_ball":
        x, y, z = _ball_point(rng, 0.95)
        return ["typicality", "--model", "ball", "--u", _f(x), "--v", _f(y), "--w", _f(z)]
    if kind == "sqmn_posterior":
        return ["sqmn", "posterior", "--p", _f(rng.choice([-1, 1]) * u(0.2, 3.0)), "--n", _f(u(0.1, 4.0))]
    if kind == "sqmn_moments":
        return ["sqmn", "moments", "--p", _f(u(0.3, 3.0))]
    if kind == "sqmn_band":
        return ["sqmn", "band", "--floor", _f(u(0.005, 0.2))]
    if kind == "sqmn_experiment":
        return ["sqmn", "experiment", "--k", str(2 * int(rng.integers(1, 6))),
                "--n", _f(u(0.5, 1.5)), "--level", _f(u(0.9, 0.999))]
    if kind == "epr":
        return ["epr", "--theta", _f(u(0, PI)), "--parts", str(int(rng.integers(1, EPR_MAX_PARTS + 1)))]
    if kind == "flag":
        dim = int(rng.integers(2, 5))
        cuts = sorted(rng.choice(np.arange(1, dim), size=int(rng.integers(1, dim)), replace=False))
        ranks = np.diff([0, *cuts, dim])
        return ["flag", "--dim", str(dim), "--ranks", ",".join(str(r) for r in ranks),
                "--seed", str(int(rng.integers(0, 2**31)))]
    if kind == "twostep":
        args = ["twostep"]
        for k in range(3):
            d = _direction(rng)
            args += [f"--theta{k}", _f(d.polar), f"--phi{k}", _f(d.azimuth)]
        return args
    raise ValueError(kind)


@dataclass
class CliInputs:
    ctx: Context
    requests: list[tuple[str, list[str]]]
    validator: Any
    first: dict = field(default_factory=dict)


def cli_inputs(seed: int, ctx: Context) -> CliInputs:
    import jsonschema

    rng = np.random.default_rng([seed, 1])
    kinds = [CLI_KINDS[i] for i in rng.permutation(len(CLI_KINDS))]
    schema = json.loads((ctx.root / "schemas" / "cli_output.schema.json").read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)
    return CliInputs(ctx, [(k, _cli_argv(k, rng)) for k in kinds], validator)


def _import_seconds(stderr: str) -> float:
    """Summed cumulative time of the top-level imports in `-X importtime` output."""
    total_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and not parts[2].startswith("  "):
            cumulative = parts[1].strip()
            if cumulative.isdigit():
                total_us += int(cumulative)
    return total_us / 1e6


def _request(inp: CliInputs, argv: list[str], flags: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *flags, "-m", "qpercept.cli", *argv]
    return subprocess.run(cmd, cwd=inp.ctx.root, env=inp.ctx.env, capture_output=True, timeout=120)


def cli_op(inp: CliInputs, i: int, tracer: Optional[Tracer]):
    kind, argv = inp.requests[i % len(inp.requests)]
    if tracer is None:
        return argv, _request(inp, argv, [])
    with tracer.span(f"cli.request.{kind}"):
        proc = _request(inp, argv, ["-X", "importtime"])
        tracer.add_child("import.modules", _import_seconds(proc.stderr.decode(errors="replace")))
    return argv, proc


def _reject_constant(token: str):
    raise ValueError(f"non-finite token {token}")


def _response_ok(inp: CliInputs, argv: list[str], code: int, stdout: bytes) -> bool:
    """Exit 0, strict JSON that fits the schema, and the same bytes as the first response to argv."""
    if code != 0:
        return False
    try:
        report = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError:
        return False
    if not inp.validator.is_valid(report):
        return False
    return inp.first.setdefault(tuple(argv), stdout) == stdout


def cli_gate(inp: CliInputs, i: int, out) -> bool:
    argv, proc = out
    return _response_ok(inp, argv, proc.returncode, proc.stdout)


# bound before any traced operation swaps the module attribute for a wrapper
_DUAL_NORMALIZATION = inference.dual_normalization


def sqmn_requests(inp: CliInputs) -> list[list[str]]:
    return [argv for _, argv in inp.requests if argv[0] == "sqmn"]


def sqmn_probe_op(inp: CliInputs, i: int, tracer: Optional[Tracer]):
    """The mix's i-th sqmn request through cli.main in process.

    The cache is cleared first, so the dual normalization is computed cold,
    as it is in every fresh `python -m qpercept.cli` process.
    """
    argv = sqmn_requests(inp)[i]
    _DUAL_NORMALIZATION.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return argv, code, out.getvalue().encode()


def sqmn_probe_gate(inp: CliInputs, i: int, out) -> bool:
    argv, code, stdout = out
    return _response_ok(inp, argv, code, stdout)


# ---------------------------------------------------------------------------
# battery: the full reference battery through cli.main, in process

# the battery at this revision: 27 checks, of which exactly these 3 fail
# because the published constants disagree with their own definitions
BATTERY_CHECKS = 27
BATTERY_FAILING = {"linpos-fraction", "averaged-posterior-tail", "band-high"}


@dataclass
class BatteryInputs:
    argv: list[str]
    output: Path
    first: Optional[bytes] = None


def battery_inputs(seed: int, ctx: Context) -> BatteryInputs:
    output = ctx.scratch / "battery.json"
    return BatteryInputs(["reproduce", "--seed", str(seed), "--output", str(output)], output)


def battery_op(inp: BatteryInputs, i: int, tracer: Optional[Tracer]) -> int:
    with redirect_stderr(io.StringIO()):
        return cli.main(inp.argv)


def battery_gate(inp: BatteryInputs, i: int, code: int) -> bool:
    data = inp.output.read_bytes()
    if inp.first is None:
        inp.first = data
    results = json.loads(data)["results"]
    return (
        code == 1
        and data == inp.first
        and len(results["checks"]) == BATTERY_CHECKS
        and results["passed"] == BATTERY_CHECKS - len(BATTERY_FAILING)
        and set(results["failed"]) == BATTERY_FAILING
    )


def battery_computed(inp: BatteryInputs) -> dict:
    # the battery divides the cat into 1..6 parts; each part count n realizes
    # dense 2^n x 2^n float64 matrices
    return {f"toymodels.unconfused_bytes.parts{n}": 8 * 4**n for n in range(1, 7)}


# ---------------------------------------------------------------------------
# profiles: build_profile and typicality queries on a mixed experience family

FAMILY_SIZE = 2000
QUERIES = 200
BALL_GRID = 10
SPEC_VARIANTS = ("ProjectionSequence", "ConstrainedProjector", "SymmetrizedProjector", "Explicit")


@dataclass
class ProfilesInputs:
    state: State
    family: hypotheses.ExperienceFamily
    space: measures.PerceptionSpace
    queries: list[str]
    ball_family: hypotheses.ExperienceFamily
    ball_space: measures.PerceptionSpace


def _projector(rng) -> Operator:
    d = _direction(rng)
    return bloch_projector(d.polar, d.azimuth)


def profiles_inputs(seed: int, ctx: Context) -> ProfilesInputs:
    rng = np.random.default_rng([seed, 3])
    r = rng.uniform(0.2, 0.9)
    d = _direction(rng)
    bloch = r * d.unit_vector()
    pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    state = State(0.5 * (np.eye(2) + sum(b * p for b, p in zip(bloch, pauli))))
    group = (Operator(np.eye(2)), Operator(pauli[2]))
    entries = []
    for i in range(FAMILY_SIZE):
        variant = SPEC_VARIANTS[i % len(SPEC_VARIANTS)]
        if variant == "ProjectionSequence":
            spec = hypotheses.ProjectionSequence((_projector(rng), _projector(rng)))
        elif variant == "ConstrainedProjector":
            spec = hypotheses.ConstrainedProjector(_projector(rng), _projector(rng))
        elif variant == "SymmetrizedProjector":
            spec = hypotheses.SymmetrizedProjector(_projector(rng), group)
        else:
            spec = hypotheses.Explicit(toymodels.ball_experience(*_ball_point(rng, 1.0)))
        entries.append((f"e{i:04d}", spec, rng.uniform(0.5, 1.5)))
    family = hypotheses.ExperienceFamily(tuple(entries))
    space = measures.PerceptionSpace.discrete(family.labels, family.weights)
    queries = [family.labels[j] for j in rng.choice(FAMILY_SIZE, QUERIES, replace=False)]

    half = rng.uniform(0.45, 0.57)  # corners stay inside the unit ball
    axis = np.linspace(-half, half, BALL_GRID)
    ball_space = measures.PerceptionSpace.grid({"u": axis, "v": axis, "w": axis})
    ball_family = hypotheses.ExperienceFamily(
        tuple(
            (f"b{k}", hypotheses.Explicit(toymodels.ball_experience(*pt)), 1.0)
            for k, pt in enumerate(ball_space.points)
        )
    )
    return ProfilesInputs(state, family, space, queries, ball_family, ball_space)


def profiles_op(inp: ProfilesInputs, i: int, tracer: Optional[Tracer]):
    own = measures.build_profile(inp.state, inp.family)
    labeled = measures.build_profile(inp.state, inp.family, inp.space)
    answers = [
        (
            measures.typicality(labeled, label),
            measures.reversed_typicality(labeled, label),
            measures.dual_typicality(labeled, label),
        )
        for label in inp.queries
    ]
    curves = measures.typicality_curves(labeled)
    trace = measures.prior_measure(inp.family, "trace")
    riemannian = measures.prior_measure(inp.ball_family, "riemannian", space=inp.ball_space)
    return own, labeled, answers, curves, trace, riemannian


def profiles_gate(inp: ProfilesInputs, i: int, out) -> bool:
    own, labeled, answers, curves, _, _ = out
    if not (np.array_equal(own.density, labeled.density) and own.total_measure == labeled.total_measure):
        return False
    if np.any(labeled.density < 0):
        return False
    total = float(np.sum(labeled.density * labeled.space.weights))
    if abs(total - labeled.total_measure) > 1e-12 * max(1.0, abs(total)):
        return False
    for label, (t, t_r, t_d) in zip(inp.queries, answers):
        # T + T_r = 1 + mu{m' = m}; 1e-12 absorbs rounding in the two sums
        if not (0.0 <= t <= 1.0 and 0.0 <= t_r <= 1.0 and t + t_r >= 1.0 - 1e-12):
            return False
        if t_d != curves[2][inp.space.index_of(label)]:
            return False
    return True


def profiles_computed(inp: ProfilesInputs) -> dict:
    # spec_for scans the entries from the front, so the labeled path compares
    # position + 1 labels per point
    position = {label: k for k, label in enumerate(inp.family.labels)}
    return {"measures.label_lookups": sum(position[label] + 1 for label in inp.space.labels)}


# ---------------------------------------------------------------------------
# histories: replicated decoherence functional and two-step diagnostics

HISTORY_DIM = 4
HISTORY_RANKS = (1, 1, 1, 1)
PERCEPTIONS = 8
TRIPLES = 100
HISTORY_POOL = 4


@dataclass
class HistoryCase:
    step_seeds: list[int]
    spectral: dict[int, manyworlds.SpectralExperience]
    sums: list[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]
    two_step: list[tuple[toymodels.Direction, toymodels.Direction, toymodels.Direction]]
    triples: list[tuple[toymodels.Direction, toymodels.Direction, toymodels.Direction]]
    metric_points: np.ndarray


@dataclass
class HistoriesInputs:
    state: State
    cases: list[HistoryCase]


def _random_state(rng, dim: int) -> State:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return State(rho / np.trace(rho).real)


def histories_inputs(seed: int, ctx: Context) -> HistoriesInputs:
    rng = np.random.default_rng([seed, 4])
    state = _random_state(rng, HISTORY_DIM)
    m = len(HISTORY_RANKS)
    cases = []
    for _ in range(HISTORY_POOL):
        spectral = {
            steps: manyworlds.SpectralExperience(
                tuple(
                    tuple((rng.uniform(), int(rng.integers(steps)), int(rng.integers(m))) for _ in range(3))
                    for _ in range(PERCEPTIONS)
                )
            )
            for steps in RECONSTRUCT_STEPS
        }
        sums = [
            (
                [tuple(int(x) for x in rng.integers(m, size=4)) for _ in range(2)],
                [tuple(int(x) for x in rng.integers(m, size=4)) for _ in range(3)],
            )
            for _ in range(4)
        ]
        cases.append(
            HistoryCase(
                step_seeds=[int(s) for s in rng.integers(0, 2**31, size=MAX_STEPS)],
                spectral=spectral,
                sums=sums,
                two_step=[(_direction(rng), _direction(rng), _direction(rng)) for _ in range(4)],
                triples=[(_direction(rng), _direction(rng), _direction(rng)) for _ in range(TRIPLES)],
                metric_points=np.array([_ball_point(rng, 0.9) for _ in range(5)]),
            )
        )
    return HistoriesInputs(state, cases)


def _ball_class_operators(x: np.ndarray) -> list[np.ndarray]:
    return [toymodels.ball_experience(*x).mat]


def histories_op(inp: HistoriesInputs, i: int, tracer: Optional[Tracer]):
    case = inp.cases[i % len(inp.cases)]
    decomps = [manyworlds.sample_decomposition(HISTORY_DIM, HISTORY_RANKS, s) for s in case.step_seeds]
    reconstructed = {
        steps: manyworlds.reconstruct_measures(inp.state, case.spectral[steps], decomps[:steps])
        for steps in RECONSTRUCT_STEPS
    }
    functional = manyworlds.ReplicatedDecoherenceFunctional(inp.state, decomps[:4])
    pairings = [functional.evaluate(h, hp) for h, hp in case.sums]
    reports = [
        hypotheses.decoherence_report(
            toymodels.two_step_family(bloch_projector(q.polar, q.azimuth), bloch_projector(r.polar, r.azimuth)),
            State.from_bloch(s.polar, s.azimuth),
        )
        for s, q, r in case.two_step
    ]
    analyses = [
        (toymodels.two_step_analysis(s, q, r), toymodels.triangle_equivalence(s, q, r))
        for s, q, r in case.triples
    ]
    metric = manyworlds.family_metric(_ball_class_operators, case.metric_points, (1e-4, 1e-4, 1e-4))
    return decomps, reconstructed, pairings, reports, analyses, metric


def histories_gate(inp: HistoriesInputs, i: int, out) -> bool:
    case = inp.cases[i % len(inp.cases)]
    decomps, reconstructed, _, _, analyses, _ = out
    for steps, measured in reconstructed.items():
        spectral = case.spectral[steps]
        for p in range(len(spectral)):
            direct = expectation(inp.state, manyworlds.spectral_operator(spectral, decomps[:steps], p)).real
            if abs(measured[p] - direct) > 1e-12:
                return False
    for rep, tri in analyses:
        if abs(sum(rep.measures) - 1.0) > 1e-12:
            return False
        if tri.status == "ok" and tri.inequality_holds != rep.linearly_positive:
            return False
    return True


def histories_computed(inp: HistoriesInputs) -> dict:
    out = {}
    m = len(HISTORY_RANKS)
    for steps in RECONSTRUCT_STEPS:
        # the diagonal enumerates m^steps histories; each measure needs only
        # the m marginals of each step
        out[f"manyworlds.histories_enumerated.steps{steps}"] = m**steps
        out[f"manyworlds.useful_ratio.steps{steps}"] = m * steps / m**steps
    return out


# traced runs only: gives the inference layer in-process spans for the sqmn
# requests the cli workload makes out of process; the cli round runs first,
# so the gate compares each answer with the subprocess's
SQMN_PROBE = Workload("sqmn", True, cli_inputs, sqmn_probe_op, sqmn_probe_gate)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli", False, cli_inputs, cli_op, cli_gate),
        Workload("battery", True, battery_inputs, battery_op, battery_gate, battery_computed),
        Workload("profiles", True, profiles_inputs, profiles_op, profiles_gate, profiles_computed),
        Workload("histories", True, histories_inputs, histories_op, histories_gate, histories_computed),
    )
}
