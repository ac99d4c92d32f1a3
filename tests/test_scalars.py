"""The arithmetic field, the rule for combining modes, and source hygiene."""

import ast
import dataclasses
import math
import pathlib
from fractions import Fraction

import pytest

import gptsim
from gptsim.postprocessing import is_postprocessing_of
from gptsim.scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ModeError,
    Tolerance,
    cleared,
    field,
    infer_mode,
    integer_row,
    kind_of,
    resolve,
    scaled,
)
from gptsim.simulation import is_simulable, replay_simulation
from gptsim.spaces import observable

SOURCE = pathlib.Path(gptsim.__file__).parent
TESTS = pathlib.Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def test_exact_field_values():
    F = field(EXACT)
    assert F.mode == EXACT
    assert (F.zero, F.one) == (0, 1)
    assert type(F.zero) is Fraction and type(F.one) is Fraction
    assert F.eps == 0
    assert type(F.coerce(3)) is Fraction
    assert F.is_zero((Fraction(0), 0))
    assert not F.is_zero((Fraction(1, 10**30),))
    assert F.key((Fraction(1, 3), 2)) == (Fraction(1, 3), 2)
    assert F.sqrt(Fraction(9, 4)) == Fraction(3, 2) and type(F.sqrt(4)) is Fraction
    assert F.sqrt(Fraction(1, 2)) is None  # irrational roots have no exact value


def test_float_field_values():
    tol = Tolerance(1e-6)
    F = field(FLOAT, tol)
    assert F.mode == FLOAT and F.tol is tol
    assert (F.zero, F.one) == (0.0, 1.0)
    assert type(F.zero) is float and type(F.one) is float
    assert F.eps == 1e-6
    assert type(F.coerce(Fraction(1, 2))) is float
    assert F.is_zero((1e-7, -1e-7)) and not F.is_zero((0.0, 1e-5))
    assert F.sqrt(0.5) == 0.5 ** 0.5
    # the dedup key is the eps grid cell, round(x * (1 / eps))
    assert F.key((0.5, -2e-6)) == (round(0.5 * (1 / 1e-6)), round(-2e-6 * (1 / 1e-6)))


def test_field_is_one_object_per_mode_and_tolerance():
    assert field(EXACT) is field(EXACT, DEFAULT_TOLERANCE)
    assert field(FLOAT) is field(FLOAT, Tolerance())
    assert field(FLOAT) is not field(FLOAT, Tolerance(1e-6))
    assert field(FLOAT) is not field(EXACT)
    assert resolve([None, FLOAT]) is field(FLOAT)
    with pytest.raises(ValueError):
        field("decimal")


@pytest.mark.parametrize("name", ["eps_rank", "eps_feas", "eps_compare"])
@pytest.mark.parametrize("value", [0.0, -1e-9])
def test_tolerance_rejects_nonpositive(name, value):
    # rank, feasibility and comparison all read the one eps: a nonpositive
    # eps is refused, and no per-role keyword can set one of them apart
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["eps"]
    with pytest.raises(ValueError):
        Tolerance(value)
    with pytest.raises(TypeError):
        Tolerance(**{name: value})


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_tolerance_rejects_nonfinite(value):
    with pytest.raises(ValueError):
        Tolerance(value)


def test_kinds_and_their_combination():
    assert kind_of([1, 2]) is None
    assert kind_of([1, Fraction(1, 2)]) == EXACT
    assert kind_of([1, 0.5]) == FLOAT
    assert infer_mode([1, 2]) == EXACT
    with pytest.raises(ModeError):
        kind_of([Fraction(1, 2), 0.5])
    with pytest.raises(ModeError):
        kind_of([True])
    assert resolve([None]).mode == EXACT
    assert resolve([None, EXACT]).mode == EXACT
    assert resolve([None, FLOAT]).mode == FLOAT
    with pytest.raises(ModeError):
        resolve([EXACT, None, FLOAT])


def test_clearing_over_one_scale():
    # exact numbers become integers over their least common denominator,
    # floats stay as they are over 1, and several parts share one scale
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert integer_row([third, half, 2]) == ([2, 3, 12], 6)
    assert integer_row([1, -2]) == ([1, -2], 1)
    with pytest.raises(ValueError):
        integer_row([half, 0.5])
    assert scaled(field(EXACT), (third, 0)) == ([1, 0], 3)
    assert scaled(field(FLOAT), (0.25, 1)) == ((0.25, 1), 1)
    a, b, D = cleared(field(EXACT), [half], (third, 1))
    assert (a.tolist(), b.tolist(), D) == ([3], [2, 6], 6)
    assert all(type(x) is int for x in (*a, *b))
    a, b, D = cleared(field(FLOAT), [0.5], (1, 2.0))
    assert (a.dtype, a.tolist(), b.tolist(), D) == (float, [0.5], [1.0, 2.0], 1)


def _int_source():
    return observable(None, [("a", (1, 0)), ("b", (0, 1))])


def test_integer_source_joins_a_float_target():
    target = observable(None, [("x", (0.25, 0.5)), ("y", (0.75, 0.5))])
    source = _int_source()
    cert = is_simulable(target, [source])
    assert cert.simulable and type(cert.weights[0]) is float
    assert replay_simulation(cert, target, [source])
    rel = is_postprocessing_of(target, source)
    assert rel.simulable and type(rel.weights[0]) is float


def test_fraction_target_with_float_source_raises():
    half = Fraction(1, 2)
    target = observable(None, [("x", (half, half)), ("y", (half, half))])
    source = observable(None, [("a", (1.0, 0.0)), ("b", (0.0, 1.0))])
    with pytest.raises(ModeError):
        is_simulable(target, [source])
    with pytest.raises(ModeError):
        is_postprocessing_of(target, source)


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so no invariant may rest on one
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_no_private_names_imported_across_modules():
    # a helper that another module needs is public where it lives, as the
    # integer clearing is scalars.integer_row
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "gptsim"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert not found, f"private names imported from other modules: {found}"


def test_every_exported_name_resolves():
    # a name deleted from the library must leave __all__ with it
    missing = [name for name in gptsim.__all__ if not hasattr(gptsim, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imports_in(scope):
    """The import statements of a scope, not those of the scopes nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _dead_imports(path):
    """Imported names that nothing in their scope reads, or that a later
    import in the same scope rebinds."""
    dead = []
    for scope in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(scope, _SCOPES):
            continue
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        bound = {}
        for node in sorted(_imports_in(scope), key=lambda node: node.lineno):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name in bound:
                    dead.append(f"{path.name}:{bound[name]} {name} (imported again)")
                bound[name] = node.lineno
        dead.extend(f"{path.name}:{line} {name}" for name, line in bound.items()
                    if name not in used)
    return dead


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    paths = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    found = [entry for path in paths for entry in _dead_imports(path)]
    assert not found, f"unused imports: {found}"


def _references(tree):
    """(name, names read) for each top-level statement of a parsed module:
    the names it reads as variables, as attributes or as strings (tracer
    tables name functions by string), and the name it defines when it is a
    function or class definition, else None."""
    found = []
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        found.append((top.name if isinstance(top, _SCOPES[1:]) else None, names))
    return found


def test_every_library_definition_is_used_or_exported():
    # a module-level function or class that nothing in the library or the
    # benchmark reads, outside its own definition, and that gptsim does not
    # export is dead code
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*sorted(SOURCE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]}
    references = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in trees[path].body:
            if not isinstance(top, _SCOPES[1:]) or top.name in gptsim.__all__:
                continue
            if not any(top.name in names for other, found in references.items()
                       for defined, names in found
                       if not (other == path and defined == top.name)):
                unused.append(f"{path.name}:{top.lineno} {top.name}")
    assert not unused, f"unused library definitions: {unused}"
