"""The arithmetic field, the rule for combining modes, and source hygiene."""

import ast
import pathlib
from fractions import Fraction

import pytest

import gptsim
from gptsim.postprocessing import RELATED, is_postprocessing_of
from gptsim.scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ModeError,
    Tolerance,
    field,
    infer_mode,
    kind_of,
    resolve,
)
from gptsim.simulation import is_simulable, replay_simulation
from gptsim.spaces import observable

SOURCE = pathlib.Path(gptsim.__file__).parent


def test_exact_field_values():
    F = field(EXACT)
    assert F.mode == EXACT
    assert (F.zero, F.one) == (0, 1)
    assert type(F.zero) is Fraction and type(F.one) is Fraction
    assert (F.eps_rank, F.eps_feas, F.eps_compare) == (0, 0, 0)
    assert F.tolerance is None
    assert type(F.coerce(3)) is Fraction
    assert F.is_zero((Fraction(0), 0))
    assert not F.is_zero((Fraction(1, 10**30),))
    assert F.negligible(Fraction(0)) and not F.negligible(Fraction(1, 10**30))
    assert F.key((Fraction(1, 3), 2)) == (Fraction(1, 3), 2)
    assert F.sqrt(Fraction(9, 4)) == Fraction(3, 2) and type(F.sqrt(4)) is Fraction
    assert F.sqrt(Fraction(1, 2)) is None  # irrational roots have no exact value


def test_float_field_values():
    tol = Tolerance(eps_rank=1e-7, eps_feas=1e-8, eps_compare=1e-6)
    F = field(FLOAT, tol)
    assert F.mode == FLOAT and F.tol is tol
    assert (F.zero, F.one) == (0.0, 1.0)
    assert type(F.zero) is float and type(F.one) is float
    assert (F.eps_rank, F.eps_feas, F.eps_compare) == (1e-7, 1e-8, 1e-6)
    assert F.tolerance is tol
    assert type(F.coerce(Fraction(1, 2))) is float
    assert F.is_zero((1e-7, -1e-7)) and not F.is_zero((0.0, 1e-5))
    assert F.negligible(1e-9) and not F.negligible(1e-7)
    assert F.sqrt(0.5) == 0.5 ** 0.5
    # the dedup key is the eps_compare grid cell, round(x * (1 / eps))
    assert F.key((0.5, -2e-6)) == (round(0.5 * (1 / 1e-6)), round(-2e-6 * (1 / 1e-6)))


def test_field_is_one_object_per_mode_and_tolerance():
    assert field(EXACT) is field(EXACT, DEFAULT_TOLERANCE)
    assert field(FLOAT) is field(FLOAT, Tolerance())
    assert field(FLOAT) is not field(FLOAT, Tolerance(eps_compare=1e-6))
    assert field(FLOAT) is not field(EXACT)
    assert resolve([None, FLOAT]) is field(FLOAT)
    with pytest.raises(ValueError):
        field("decimal")


@pytest.mark.parametrize("name", ["eps_rank", "eps_feas", "eps_compare"])
@pytest.mark.parametrize("value", [0.0, -1e-9])
def test_tolerance_rejects_nonpositive(name, value):
    with pytest.raises(ValueError):
        Tolerance(**{name: value})


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


def _int_source():
    return observable(None, [("a", (1, 0)), ("b", (0, 1))])


def test_integer_source_joins_a_float_target():
    target = observable(None, [("x", (0.25, 0.5)), ("y", (0.75, 0.5))])
    source = _int_source()
    cert = is_simulable(target, [source])
    assert cert.simulable and cert.tolerance is not None
    assert replay_simulation(cert, target, [source])
    rel = is_postprocessing_of(target, source)
    assert rel.verdict == RELATED and rel.tolerance is not None


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
