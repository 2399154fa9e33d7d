"""The benchmark's tracer wraps qpercept functions by name and reads some of
their arguments by position; a rename or a reordered signature must fail
here, not in a traced benchmark run."""
import importlib.util
from pathlib import Path

# cli imports its subcommands' modules only when they run, so every
# instrumented module is imported here for _swaps to see its bindings
from qpercept import cli, inference, reproduce, toymodels  # noqa: F401

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_instrumented_name_resolves():
    tracing = _tracing()
    # looks up every (module, attribute) and raises if one is gone
    swaps = tracing._swaps(tracing.Tracer())
    assert len(swaps) >= len(tracing.INSTRUMENTS)


def test_linpos_span_counts_its_samples():
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        toymodels.linear_positivity_fraction(10, 1)
    assert [(s[0], s[5]) for s in tracer.spans] == [("toymodels.linear_positivity_fraction", 10)]
