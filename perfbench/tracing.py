"""In-memory spans for the benchmark's traced runs.

Spans are taken only in benchmark code.  Workload operations open spans
around the calls they make themselves, and `instrumented` swaps a fixed list
of public qpercept functions (`INSTRUMENTS`) for timing wrappers while one
traced operation runs, restoring the originals afterwards.  A wrapper
replaces the function wherever a qpercept module binds it, so calls between
modules are timed as well.  The package sources are never edited.

A span's layer is the first dotted component of its name; the operation's
root span belongs to no layer, so its self time is the part of the
operation that no layer span covers.
"""
from __future__ import annotations

import csv
import functools
import gzip
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

ROOT = "op"


class Tracer:
    """Spans as rows [name, start, end, parent, op, count], kept until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_kinds: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = -1

    def start_op(self, kind: str) -> None:
        self._op += 1
        self.op_kinds[self._op] = kind

    def begin(self, name: str, count: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, count])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str, count: Optional[float] = None):
        index = self.begin(name, count)
        try:
            yield
        finally:
            self.end(index)

    def add_child(self, name: str, duration: float) -> None:
        """Record a span measured elsewhere (in a child process) under the open span."""
        parent = self._stack[-1]
        start = self.spans[parent][1]
        self.spans.append([name, start, start + duration, parent, self._op, None])

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "op", "op_kind", "name", "start_s", "end_s", "count"])
            for i, (name, start, end, parent, op, count) in enumerate(self.spans):
                writer.writerow([i, parent, op, self.op_kinds[op], name, repr(start), repr(end), count])


# ---------------------------------------------------------------------------
# which qpercept functions get wrapped, and how their spans are named


def _arg(args, kwargs, position: int, keyword: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def _fixed(name: str):
    return lambda args, kwargs: (name, None)


def _build_profile(args, kwargs):
    space = _arg(args, kwargs, 2, "space")
    family = _arg(args, kwargs, 1, "family")
    return ("measures.build_profile_own" if space is None else "measures.build_profile_labeled", len(family))


def _prior_measure(args, kwargs):
    return f"measures.prior_{_arg(args, kwargs, 1, 'mode', 'counting')}", None


def _realize(args, kwargs):
    return f"hypotheses.realize.{type(args[0]).__name__}", None


def _linpos(args, kwargs):
    return "toymodels.linear_positivity_fraction", _arg(args, kwargs, 0, "samples")


def _unconfused(args, kwargs):
    return f"toymodels.unconfused_fraction.parts{_arg(args, kwargs, 1, 'parts', 2)}", None


def _dual_normalization(args, kwargs):
    # only called through its wrapper, so the module attribute is the wrapper
    # and __wrapped__ the lru_cache; an empty cache means this call is cold
    from qpercept.inference import dual_normalization

    cold = dual_normalization.__wrapped__.cache_info().currsize == 0
    return "inference.dual_normalization" + ("_cold" if cold else ""), None


def _reconstruct(args, kwargs):
    return f"manyworlds.reconstruct.steps{len(_arg(args, kwargs, 2, 'decompositions'))}", None


# (module, attribute, span namer); a dotted attribute names a method or
# classmethod, which is swapped on its class.
INSTRUMENTS: list[tuple[str, str, Callable]] = [
    ("qpercept.cli", "main", _fixed("cli.main")),
    ("qpercept.reproduce", "run_all", _fixed("reproduce.run_all")),
    ("qpercept.reproduce", "circle_checks", _fixed("reproduce.circle_checks")),
    ("qpercept.reproduce", "circle_grid_typicality", _fixed("reproduce.circle_grid_typicality")),
    ("qpercept.reproduce", "linpos_check", _fixed("reproduce.linpos_check")),
    ("qpercept.reproduce", "sqmn_checks", _fixed("reproduce.sqmn_checks")),
    ("qpercept.reproduce", "epr_checks", _fixed("reproduce.epr_checks")),
    ("qpercept.reproduce", "sphere_checks", _fixed("reproduce.sphere_checks")),
    ("qpercept.toymodels", "circle_model", _fixed("toymodels.circle_model")),
    ("qpercept.toymodels", "sphere_model", _fixed("toymodels.sphere_model")),
    ("qpercept.toymodels", "linear_positivity_fraction", _linpos),
    ("qpercept.toymodels", "epr_cat_model", _fixed("toymodels.epr_cat_model")),
    ("qpercept.toymodels", "EprCatReport.unconfused_fraction_alternative", _unconfused),
    ("qpercept.toymodels", "two_step_family", _fixed("toymodels.two_step_family")),
    ("qpercept.toymodels", "two_step_analysis", _fixed("toymodels.two_step_analysis")),
    ("qpercept.toymodels", "triangle_equivalence", _fixed("toymodels.triangle_equivalence")),
    ("qpercept.toymodels", "ball_experience", _fixed("toymodels.ball_experience")),
    ("qpercept.measures", "PerceptionSpace.grid", _fixed("measures.grid_build")),
    ("qpercept.measures", "profile_from_density", _fixed("measures.profile_from_density")),
    ("qpercept.measures", "typicality_of_density", _fixed("measures.typicality_of_density")),
    ("qpercept.measures", "build_profile", _build_profile),
    ("qpercept.measures", "typicality", _fixed("measures.typicality")),
    ("qpercept.measures", "reversed_typicality", _fixed("measures.reversed_typicality")),
    ("qpercept.measures", "dual_typicality", _fixed("measures.dual_typicality")),
    ("qpercept.measures", "typicality_curves", _fixed("measures.typicality_curves")),
    ("qpercept.measures", "prior_measure", _prior_measure),
    ("qpercept.hypotheses", "realize", _realize),
    ("qpercept.hypotheses", "ExperienceFamily.realize_all", _fixed("hypotheses.realize_all")),
    ("qpercept.hypotheses", "ExperienceFamily.spec_for", _fixed("hypotheses.spec_for")),
    ("qpercept.hypotheses", "decoherence_report", _fixed("hypotheses.decoherence_report")),
    ("qpercept.inference", "dual_normalization", _dual_normalization),
    ("qpercept.inference", "dual_posterior_moment", _fixed("inference.dual_posterior_moment")),
    ("qpercept.inference", "gaussian_99_band", _fixed("inference.gaussian_99_band")),
    ("qpercept.inference", "confidence_bound", _fixed("inference.confidence_bound")),
    ("qpercept.inference", "canonical_digit_experiment", _fixed("inference.canonical_digit_experiment")),
    ("qpercept.manyworlds", "sample_decomposition", _fixed("manyworlds.sample_decomposition")),
    ("qpercept.manyworlds", "reconstruct_measures", _reconstruct),
    ("qpercept.manyworlds", "ReplicatedDecoherenceFunctional.evaluate", _fixed("manyworlds.evaluate")),
    ("qpercept.manyworlds", "family_metric", _fixed("manyworlds.family_metric")),
    ("qpercept.operators", "haar_random_unitary", _fixed("operators.haar_random_unitary")),
]


def _wrap(fn, tracer: Tracer, namer: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name, count = namer(args, kwargs)
        index = tracer.begin(name, count)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def _swaps(tracer: Tracer) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, original, replacement) for every instrumented binding."""
    modules = [m for name, m in sys.modules.items() if name.startswith("qpercept") and m is not None]
    swaps = []
    for module_name, attr, namer in INSTRUMENTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(raw.__func__, tracer, namer))
            else:
                replacement = _wrap(raw, tracer, namer)
            swaps.append((owner, method, raw, replacement))
            continue
        original = getattr(module, attr)
        replacement = _wrap(original, tracer, namer)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    swaps.append((m, name, original, replacement))
    return swaps


@contextmanager
def instrumented(tracer: Tracer):
    """Route the instrumented qpercept functions through `tracer` inside the block."""
    swaps = _swaps(tracer)
    for owner, name, _, replacement in swaps:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original, _ in reversed(swaps):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# summaries


def layer_of(name: str) -> str:
    return "uncovered" if name == ROOT else name.split(".", 1)[0]


def self_times(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per operation: seconds of self time per layer, plus the root span's total."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, float]] = {}
    for i, (name, start, end, _, op, _) in enumerate(tracer.spans):
        per_op = out.setdefault(op, {})
        layer = layer_of(name)
        per_op[layer] = per_op.get(layer, 0.0) + (end - start) - child_time[i]
        if name == ROOT:
            per_op["total"] = per_op.get("total", 0.0) + (end - start)
    return out


def span_stat(tracer: Tracer, name: str, kind: str, stat: str) -> Optional[float]:
    """Statistic of the spans called `name` in operations of `kind`.

    call: median duration per call; op: median over operations of the summed
    duration; rate: summed count over summed duration.
    """
    rows = [s for s in tracer.spans if s[0] == name and tracer.op_kinds[s[4]] == kind]
    if not rows:
        return None
    if stat == "call":
        return statistics.median(end - start for _, start, end, _, _, _ in rows)
    if stat == "op":
        per_op: dict[int, float] = {}
        for _, start, end, _, op, _ in rows:
            per_op[op] = per_op.get(op, 0.0) + end - start
        return statistics.median(per_op.values())
    if stat == "rate":
        return sum(r[5] for r in rows) / sum(end - start for _, start, end, _, _, _ in rows)
    raise ValueError(f"unknown span statistic {stat!r}")
