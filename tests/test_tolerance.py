"""One structural tolerance: every check compares against operators.TOL, and no
public callable, method or dataclass field lets a caller choose another."""
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qpercept
from qpercept import reproduce
from qpercept.hypotheses import (
    ExperienceFamily,
    Explicit,
    check_linear_independence,
    check_pairwise_independence,
)
from qpercept.operators import Operator, State

MODULES = [
    importlib.import_module(f"qpercept.{info.name}") for info in pkgutil.iter_modules(qpercept.__path__)
]


def _public_signatures():
    """(qualified name, parameter names) of every public function, class,
    method and dataclass field defined in a qpercept module."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", list(inspect.signature(obj).parameters)
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                yield f"{module.__name__}.{name}", list(inspect.signature(obj).parameters)
                if dataclasses.is_dataclass(obj):
                    yield f"{module.__name__}.{name} fields", [f.name for f in dataclasses.fields(obj)]
                for attr in vars(obj):
                    method = getattr(obj, attr)
                    if not attr.startswith("_") and callable(method):
                        yield f"{module.__name__}.{name}.{attr}", list(inspect.signature(method).parameters)


def test_no_public_callable_takes_a_tolerance():
    found = dict(_public_signatures())
    computing = ("operators", "hypotheses", "measures", "toymodels", "inference", "manyworlds", "reproduce")
    assert {m.__name__ for m in MODULES} >= {f"qpercept.{m}" for m in computing}
    # the walk reaches the functions and the variant methods that used to take one
    assert "qpercept.operators.is_projector" in found and "qpercept.hypotheses.LinearlyPositive.realize" in found
    assert len(found) > 150
    offenders = {name: params for name, params in found.items() if {"tol", "cutoff"} & set(params)}
    assert offenders == {}


def test_a_state_is_its_matrix_alone():
    assert [f.name for f in dataclasses.fields(State)] == ["mat"]


def test_the_battery_sample_count_is_fixed():
    assert list(inspect.signature(reproduce.linpos_check).parameters) == ["seed"]
    assert list(inspect.signature(reproduce.sphere_checks).parameters) == ["seed"]


@pytest.mark.parametrize("check", [check_pairwise_independence, check_linear_independence])
def test_a_positional_tolerance_is_not_read_as_a_state(check):
    family = ExperienceFamily(
        (("a", Explicit(Operator(np.diag([1.0, 0.0]))), 1.0), ("b", Explicit(Operator(np.diag([0.0, 1.0]))), 1.0))
    )
    with pytest.raises(TypeError):
        check(family, 1e-6)
    assert check(family, state=State.maximally_mixed(2)) in (True, (True, None))
