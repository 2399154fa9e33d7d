"""One benchmark process: set a workload up, then (role `run`) time it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --role setup|run

`run.py` starts this script; it is not meant to be run by hand.  The script
imports qpercept.cli, makes the workload's inputs and, for in-process
workloads, runs one warm-up operation, then prints `ready`.  A `setup`
process stops there.  A `run` process goes on to the timed window and
prints its measurements as one JSON line.

With --trace 1 the window alternates traced and untraced operations on the
same inputs, then traces one round of every other workload and the cli
mix's sqmn requests in process, so that every layer metric is measured in
every traced run.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import tempfile
import time
import traceback
from pathlib import Path

from tracing import ROOT as ROOT_SPAN, Tracer, instrumented, self_times, span_stat
from workloads import SQMN_PROBE, WORKLOADS, Context, sqmn_requests

ROOT = Path(__file__).resolve().parent.parent

# (metric, span name, statistic, operation kind, scale); statistics are
# defined in tracing.span_stat
SPAN_METRICS = [
    *[(f"cli.request_s.{k}", f"cli.request.{k}", "call", "cli", 1.0) for k in (
        "typicality_circle", "typicality_sphere", "typicality_ball", "sqmn_posterior", "sqmn_moments",
        "sqmn_band", "sqmn_experiment", "epr", "flag", "twostep")],
    ("cli.main_s", "cli.main", "call", "battery", 1.0),
    *[(f"reproduce.{f}_s", f"reproduce.{f}", "call", "battery", 1.0) for f in (
        "run_all", "circle_checks", "linpos_check", "sqmn_checks", "epr_checks", "sphere_checks")],
    ("toymodels.linear_positivity_fraction_s", "toymodels.linear_positivity_fraction", "call", "battery", 1.0),
    ("toymodels.linpos_samples_per_s", "toymodels.linear_positivity_fraction", "rate", "battery", 1.0),
    *[(f"toymodels.unconfused_fraction_s.parts{n}", f"toymodels.unconfused_fraction.parts{n}", "call", "battery", 1.0)
      for n in range(1, 7)],
    ("toymodels.two_step_analysis_s", "toymodels.two_step_analysis", "call", "histories", 1.0),
    ("toymodels.triangle_equivalence_s", "toymodels.triangle_equivalence", "call", "histories", 1.0),
    ("measures.grid_build_s", "measures.grid_build", "call", "battery", 1.0),
    ("measures.profile_from_density_s", "measures.profile_from_density", "call", "battery", 1.0),
    ("measures.typicality_of_density_s", "measures.typicality_of_density", "call", "battery", 1.0),
    ("measures.build_profile_own_s", "measures.build_profile_own", "call", "profiles", 1.0),
    ("measures.build_profile_labeled_s", "measures.build_profile_labeled", "call", "profiles", 1.0),
    ("measures.points_per_s", "measures.build_profile_own", "rate", "profiles", 1.0),
    ("measures.typicality_query_s", "measures.typicality", "call", "profiles", 1.0),
    ("measures.reversed_typicality_query_s", "measures.reversed_typicality", "call", "profiles", 1.0),
    ("measures.dual_typicality_query_s", "measures.dual_typicality", "call", "profiles", 1.0),
    ("measures.typicality_curves_s", "measures.typicality_curves", "call", "profiles", 1.0),
    ("measures.prior_trace_s", "measures.prior_trace", "call", "profiles", 1.0),
    ("measures.prior_riemannian_s", "measures.prior_riemannian", "call", "profiles", 1.0),
    ("hypotheses.realize_all_s", "hypotheses.realize_all", "op", "profiles", 1.0),
    *[(f"hypotheses.realize_us.{v}", f"hypotheses.realize.{v}", "call", "profiles", 1e6) for v in (
        "ProjectionSequence", "ConstrainedProjector", "SymmetrizedProjector", "Explicit")],
    ("hypotheses.decoherence_report_s", "hypotheses.decoherence_report", "call", "histories", 1.0),
    ("inference.dual_normalization_cold_s", "inference.dual_normalization_cold", "call", "sqmn", 1.0),
    ("inference.dual_posterior_moment_s", "inference.dual_posterior_moment", "call", "sqmn", 1.0),
    ("inference.gaussian_99_band_s", "inference.gaussian_99_band", "call", "sqmn", 1.0),
    ("inference.confidence_bound_s", "inference.confidence_bound", "call", "sqmn", 1.0),
    *[(f"manyworlds.reconstruct_s.steps{k}", f"manyworlds.reconstruct.steps{k}", "call", "histories", 1.0)
      for k in range(4, 8)],
    ("manyworlds.sample_decomposition_s", "manyworlds.sample_decomposition", "call", "histories", 1.0),
    ("manyworlds.family_metric_s", "manyworlds.family_metric", "call", "histories", 1.0),
    ("operators.haar_random_unitary_s", "operators.haar_random_unitary", "call", "histories", 1.0),
]


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def record(self, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = error or "correctness gate failed"


def run_op(wl, inputs, i: int, counts: Counts, tracer=None) -> float:
    """Run and gate operation i; return its latency in seconds."""
    error = None
    ok = False
    start = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(inputs, i, None)
        else:
            tracer.start_op(wl.name)
            with instrumented(tracer), tracer.span(ROOT_SPAN):
                out = wl.op(inputs, i, tracer)
    except Exception:
        error = traceback.format_exc()
    latency = time.perf_counter() - start
    if error is None:
        try:
            ok = bool(wl.gate(inputs, i, out))
        except Exception:
            error = traceback.format_exc()
    counts.record(ok, error)
    return latency


def round_size(name: str, inputs) -> int:
    """Operations that cover every kind of input a workload has."""
    return len(inputs.requests) if name == "cli" else 1


def _blas(pkg) -> dict:
    info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs").glob("*openblas*"):
        so = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(so, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
    }


def layer_metrics(tracer, inputs_by_name: dict) -> dict:
    out = {}
    for metric, span, stat, kind, scale in SPAN_METRICS:
        value = span_stat(tracer, span, kind, stat)
        if value is not None:
            out[metric] = value * scale
    per_op = self_times(tracer)
    by_kind: dict[str, list[dict]] = {}
    for op, layers in per_op.items():
        by_kind.setdefault(tracer.op_kinds[op], []).append(layers)
    for kind, ops in by_kind.items():
        layers = {layer for op in ops for layer in op}
        for layer in layers:
            mean = sum(op.get(layer, 0.0) for op in ops) / len(ops)
            out["trace.op_s." + kind if layer == "total" else f"self_s.{kind}.{layer}"] = mean
    for name, inputs in inputs_by_name.items():
        out.update(WORKLOADS[name].computed(inputs))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    args = parser.parse_args()

    import qpercept

    if not Path(qpercept.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qpercept imported from {qpercept.__file__}, not from this checkout")

    wl = WORKLOADS[args.workload]
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=scratch_root))
    try:
        ctx = Context(root=ROOT, env=dict(os.environ), scratch=scratch)
        inputs = wl.make_inputs(args.seed, ctx)
        counts = Counts()
        next_op = 0
        if wl.in_process:
            run_op(wl, inputs, next_op, counts)
            next_op += 1
        print("ready", flush=True)
        if args.role == "setup":
            return 0

        latencies: list[float] = []
        traced: list[float] = []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        pair = 0
        while time.perf_counter() - start < args.seconds:
            if tracer is None:
                latencies.append(run_op(wl, inputs, next_op, counts))
            else:
                # the same input untraced and traced, in alternating order
                for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
                    lat = run_op(wl, inputs, next_op, counts, tracer if traced_turn else None)
                    (traced if traced_turn else latencies).append(lat)
                pair += 1
            next_op += 1
        elapsed = time.perf_counter() - start

        result = {
            "latencies": latencies,
            "elapsed": elapsed,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "provenance": provenance(),
        }
        if tracer is not None:
            # trace a full round of every workload: what the window left
            # out of this one, and one warm round of each other one
            inputs_by_name = {wl.name: inputs}
            for name, other in WORKLOADS.items():
                if name == wl.name:
                    todo = range(next_op, round_size(name, inputs))
                    other_inputs = inputs
                else:
                    other_inputs = inputs_by_name[name] = other.make_inputs(args.seed, ctx)
                    first = 0
                    if other.in_process:
                        run_op(other, other_inputs, 0, counts)
                        first = 1
                    todo = range(first, first + round_size(name, other_inputs))
                for i in todo:
                    run_op(other, other_inputs, i, counts, tracer)
            for i in range(len(sqmn_requests(inputs_by_name["cli"]))):
                run_op(SQMN_PROBE, inputs_by_name["cli"], i, counts, tracer)
            result["traced_latencies"] = traced
            result["layers"] = layer_metrics(tracer, inputs_by_name)
            spans_dir = scratch_root / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans_file = spans_dir / f"{wl.name}-seed{args.seed}.csv.gz"
            tracer.write_csv_gz(spans_file)
            result["spans_file"] = str(spans_file.relative_to(ROOT))
        result.update(attempted=counts.attempted, failed=counts.failed, first_error=counts.first_error)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
