"""One structural tolerance: every check compares against operators.TOL, and no
public callable, method or record field lets a caller choose another.  One
integer rule: errors.check_int is the only test of whether a value is an integer.
One real rule: errors.check_real is the only test of a real-valued argument.
One array rule: operators.check_array is the only conversion of an array argument."""
import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np
import pytest

import qpercept
from qpercept import reproduce
from qpercept.errors import ValidationError
from qpercept.hypotheses import (
    ExperienceFamily,
    Explicit,
    SymmetrizedProjector,
    check_linear_independence,
    check_pairwise_independence,
)
from qpercept.manyworlds import ProjectorDecomposition
from qpercept.operators import TOL, Operator, ParamPositiveOp, State
from qpercept.toymodels import TwoStepReport, ball_experience, ball_prior_weight

MODULES = [
    importlib.import_module(f"qpercept.{info.name}") for info in pkgutil.iter_modules(qpercept.__path__)
]


def _public_signatures():
    """(qualified name, parameter names) of every public function, class,
    method and record field (of a dataclass or a NamedTuple) defined in a
    qpercept module."""
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
                elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                    yield f"{module.__name__}.{name} fields", list(obj._fields)
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
    # and the fields of the dataclasses and of the NamedTuples
    assert "qpercept.operators.State fields" in found
    assert "qpercept.bloch.TwoStepReport fields" in found and "qpercept.inference.PowerLawModel fields" in found
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


SMALL = 1e-3


def _literal(node) -> bool:
    """A number written in the source, with or without a sign."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant)


def small_float_literals(source: str) -> list[int]:
    """Lines of the nonzero float literals below SMALL in magnitude that are
    neither the value of a module-level UPPER_CASE constant nor a literal call
    argument (a battery check's tolerance, a bisection's precision)."""
    tree = ast.parse(source)
    allowed = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                allowed.update(map(id, ast.walk(stmt.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            args = node.args + [k.value for k in node.keywords]
            allowed.update(id(sub) for arg in args if _literal(arg) for sub in ast.walk(arg))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0 < abs(node.value) < SMALL
        and id(node) not in allowed
    )


def test_the_scan_flags_a_bare_threshold_only():
    source = "EPS = 1e-12\nx = f(1e-12, tol=-1e-9)\nif x > 1e-12:\n    y = 1e-2 * x - 0.0\nz = [2e-4]\nW: float\n"
    assert small_float_literals(source) == [3, 5]


def test_every_threshold_is_tol_or_a_named_constant():
    src = pathlib.Path(qpercept.__file__).parent
    found = [f"{p.stem}:{line}" for p in sorted(src.glob("*.py")) for line in small_float_literals(p.read_text())]
    assert found == []


def _int_call(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int" and node.args


def integer_tests(source: str) -> list[int]:
    """Lines that decide whether a value is an integer: a use of
    numbers.Integral or np.integer, an isinstance or type test against int,
    or a comparison of int(x) with x."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("Integral", "integer"):
            lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "Integral":
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            if any(isinstance(sub, ast.Name) and sub.id == "int" for sub in ast.walk(node.args[-1])):
                lines.add(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            dumps = {ast.dump(o) for o in operands}
            if any(isinstance(o, ast.Name) and o.id == "int" for o in operands) or any(
                _int_call(o) and ast.dump(o.args[0]) in dumps for o in operands
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_integer_scan_flags_each_kind_of_integer_test():
    source = (
        "a = isinstance(x, numbers.Integral)\n"
        "b = isinstance(x, (int, np.integer))\n"
        "if k < 1 or int(k) != k:\n"
        "    c = type(x) is int\n"
        "d = isinstance(x, Integral)\n"
        "e = int(x) + 1 == y or isinstance(x, float) or rng.integers(3)\n"
    )
    assert integer_tests(source) == [1, 2, 3, 4, 5]


def test_check_int_is_the_only_integer_test():
    # errors.py holds the rule; every other module calls errors.check_int
    src = pathlib.Path(qpercept.__file__).parent
    found = [
        f"{p.stem}:{line}"
        for p in sorted(src.glob("*.py"))
        if p.name != "errors.py"
        for line in integer_tests(p.read_text())
    ]
    assert found == []


def _catches(handler, names) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(c, ast.Name) and c.id in names for c in caught)


def real_argument_tests(source: str) -> list[int]:
    """Lines that test a real argument outside the rule: a use of check_finite
    or numbers.Real; a float() conversion guarded against TypeError or
    ValueError; an isfinite test of a field self.x, of a loop variable, or of a
    parameter that a public function never rebinds; or a chained range
    comparison of such a field or parameter.  A check on a computed value (a
    density, a moment, a report) is none of these, nor is a private helper's
    test of what its caller has checked."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in ("check_finite", "Real"):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in ("check_finite", "Real"):
            lines.add(node.lineno)
        elif isinstance(node, ast.Try) and any(_catches(h, ("TypeError", "ValueError")) for h in node.handlers):
            if any(_callee(sub) == "float" for stmt in node.body for sub in ast.walk(stmt)):
                lines.add(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            raw = _raw_parameters(node)
            for sub in ast.walk(node):
                if _callee(sub) == "isfinite" and sub.args and _argument(sub.args[0], raw | _loop_names(node)):
                    lines.add(sub.lineno)
                elif isinstance(sub, ast.Compare) and len(sub.ops) > 1 and _argument(sub.comparators[0], raw):
                    lines.add(sub.lineno)
    return sorted(lines)


def _raw_parameters(function) -> set[str]:
    """The parameters a public function (or dunder method) never rebinds; none
    for a private helper, which takes what its caller has checked."""
    if function.name.startswith("_") and not function.name.endswith("__"):
        return set()
    stored = {n.id for n in ast.walk(function) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return {a.arg for a in function.args.args + function.args.kwonlyargs} - stored


def _loop_names(function) -> set[str]:
    """The names a loop or comprehension of the function binds."""
    return {
        n.id
        for sub in ast.walk(function)
        if isinstance(sub, (ast.For, ast.comprehension))
        for n in ast.walk(sub.target)
        if isinstance(n, ast.Name)
    }


def _argument(expr, names) -> bool:
    """expr is a field self.x or one of the names."""
    if isinstance(expr, ast.Attribute):
        return isinstance(expr.value, ast.Name) and expr.value.id == "self"
    return isinstance(expr, ast.Name) and expr.id in names


def _callee(node):
    """The name a call calls, f or the attribute of x.f, or None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))


def test_the_real_scan_flags_each_kind_of_bespoke_test():
    source = (
        "def f(x, y, z, level, out):\n"
        "    check_finite('x', x)\n"
        "    ok = isinstance(y, numbers.Real) and math.isfinite(y)\n"
        "    if not 0 < z < 1:\n"
        "        pass\n"
        "    try:\n"
        "        v = float(out)\n"
        "    except (TypeError, OverflowError):\n"
        "        v = 0.0\n"
        "    ok = all(np.isfinite(w) for w in (x, y)) and math.isfinite(self.t)\n"
        "    level = check_real('level', level)\n"
        "    out = x * y\n"
        "    return math.isfinite(out) and 0 < level < 1 and math.isfinite(v)\n"
        "def _helper(i, xs):\n"
        "    return 0 <= i < len(xs) and all(0 < x < 1 for x in xs)\n"
        "try:\n"
        "    r = float(s) ** 2\n"
        "except OverflowError:\n"
        "    r = math.inf\n"
    )
    assert real_argument_tests(source) == [2, 3, 4, 6, 10]


def test_check_real_is_the_only_real_argument_test():
    # errors.py holds the rule; the command line tests parsed options and the
    # report, whose values are results
    src = pathlib.Path(qpercept.__file__).parent
    found = [
        f"{p.stem}:{line}"
        for p in sorted(src.glob("*.py"))
        if p.name not in ("errors.py", "cli.py")
        for line in real_argument_tests(p.read_text())
    ]
    assert found == []


def array_intakes(source: str) -> list[int]:
    """Lines that turn an array argument into numbers outside the rule: a call
    of np.asarray, np.array or np.atleast_2d on a field self.x, on a loop
    variable, or on a parameter that a public function never rebinds, anywhere
    but in check_array itself."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "check_array":
            names = _raw_parameters(node) | _loop_names(node)
            for sub in ast.walk(node):
                if _numpy_call(sub, ("asarray", "array", "atleast_2d")) and _argument(sub.args[0], names):
                    lines.add(sub.lineno)
    return sorted(lines)


def _numpy_call(node, names) -> bool:
    """node calls np.f, for f one of the names, with at least one argument."""
    func = node.func if isinstance(node, ast.Call) and node.args else None
    return isinstance(func, ast.Attribute) and func.attr in names and getattr(func.value, "id", None) == "np"


def test_the_array_scan_flags_a_conversion_of_an_argument_only():
    source = (
        "def f(x, y, z, w):\n"
        "    a = np.asarray(x, dtype=float)\n"
        "    b = np.atleast_2d(np.array(y)) + np.atleast_2d(check_array('y', y))\n"
        "    z = z + 1\n"
        "    c = np.asarray(z) + np.array([w, w]) + other.asarray(w) + np.asarray()\n"
        "    return np.asarray(self.mat, dtype=complex)\n"
        "def _helper(v, vs):\n"
        "    return np.asarray(v) + [np.array(u) for u in vs]\n"
        "def check_array(what, value):\n"
        "    return np.asarray(value)\n"
        "class A:\n"
        "    def __post_init__(self):\n"
        "        m = np.atleast_2d(self.points)\n"
    )
    assert array_intakes(source) == [2, 3, 6, 8, 13]


def test_check_array_is_the_only_array_intake():
    # operators.py holds the rule, beside the matrix intake; errors.py stays numpy-free
    src = pathlib.Path(qpercept.__file__).parent
    found = [f"{p.stem}:{line}" for p in sorted(src.glob("*.py")) for line in array_intakes(p.read_text())]
    assert found == []


def _diag(*entries) -> Operator:
    return Operator(np.diag(entries))


def _rank_one_of_five(e: float) -> ProjectorDecomposition:
    # four diagonal entries of e/4 put the first trace e above its rank, while
    # each product entry e/4 (1 - e/4) stays inside the orthogonality check
    first = np.diag([1.0] + [e / 4] * 4)
    return ProjectorDecomposition(5, (1, 4), (Operator(first), Operator(np.eye(5) - first)))


# each check at a distance e from its boundary, in the max-norm it tests
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda e: SymmetrizedProjector(_diag(1.0, 0.0), (_diag(1.0, np.sqrt(1.0 + e)),)), "unitary"),
        (lambda e: ProjectorDecomposition(2, (1, 1), (_diag(1.0, 0.0), _diag(0.0, 1.0 + e))), "the identity"),
        (lambda e: ProjectorDecomposition(2, (1, 1), (_diag(1.0, e), _diag(0.0, 1.0 - e))), "orthogonal"),
        (_rank_one_of_five, "declared rank"),
        (lambda e: ParamPositiveOp(1.0 - e, 1.0, 0.0, 0.0), "violates"),
        (lambda e: ball_experience(np.sqrt(1.0 + e), 0.0, 0.0), "ball coordinates"),
        (lambda e: ball_prior_weight(0.0, np.sqrt(1.0 + e), 0.0), "ball coordinates"),
        (lambda e: TwoStepReport(0.0, 0.0, True, (-e, 0.5, 0.5 + e, 0.0)), "nonnegative"),
        (lambda e: TwoStepReport(0.0, 0.0, True, (0.25, 0.25, 0.25, 0.25 + e)), "sum to 1"),
    ],
    ids=[
        "unitarity", "completeness", "orthogonality", "rank_trace", "cone",
        "ball", "ball_prior", "negative_measure", "measure_sum",
    ],
)
def test_each_check_accepts_half_tol_and_rejects_twice_tol(build, message):
    build(0.5 * TOL)
    with pytest.raises(ValidationError, match=message):
        build(2.0 * TOL)
