"""Qubit effect coordinates, validity, and the qubit effect cone."""

import math
import random
from fractions import Fraction

import pytest

from oracles import qubit_matrix, qubit_min_eigenvalue

import numpy as np

from gptsim.qubit import (
    QubitEffect,
    QubitObservable,
    QubitSpace,
    as_vector_observable,
    effect_from_linear,
    linear_coords,
    octahedron_margins,
    qubit_to_vector,
    random_qubit_observable,
)
from gptsim.scalars import ModeError
from gptsim.spaces import Effect

F = Fraction


def test_display_coordinates_named_points(suite):
    assert qubit_to_vector(suite.X.effects[0]) == (0, 1, 0, 0)
    assert qubit_to_vector(suite.T.effects[0]) == (1, 0, 0, 0)   # identity
    assert qubit_to_vector(suite.T.effects[1]) == (-1, 0, 0, 0)  # zero effect
    assert qubit_to_vector(suite.ct(0.5).effects[0]) == \
        (0.0, 0.5 / math.sqrt(2), 0.5 / math.sqrt(2), 0.0)


def test_linear_coordinates_roundtrip_exact():
    eff = QubitEffect(F(1, 3), (F(1, 5), F(-2, 5), F(0)))
    back = effect_from_linear(linear_coords(eff))
    assert back == eff


def test_display_coordinates_roundtrip_preserves_validity():
    eff = QubitEffect(F(1, 5), (F(3, 5), F(0), F(1, 5)))
    assert eff.is_valid()
    vec = qubit_to_vector(eff)
    back = QubitEffect(vec[0], vec[1:])
    assert back == eff
    assert back.is_valid()


def test_linear_coordinates_additive(suite):
    a = suite.X.effects[0]
    b = suite.Y.effects[0]
    summed = QubitEffect(a.e0 + b.e0 + 1, tuple(x + y for x, y in
                                                zip(a.e_vec, b.e_vec)))
    lin = tuple(x + y for x, y in zip(linear_coords(a), linear_coords(b)))
    assert linear_coords(summed) == lin


def test_validity_boundary():
    assert QubitEffect(F(1, 2), (F(1, 2), 0, 0)).is_valid()
    assert not QubitEffect(F(1, 2), (F(3, 5), 0, 0)).is_valid()
    assert QubitEffect(0.5, (0.3, 0.4, 0.0)).is_valid()       # 0.5 + 0.5
    assert not QubitEffect(0.5, (0.31, 0.4, 0.0)).is_valid()


def _linear(eff):
    return Effect(linear_coords(eff))


def test_rank_one_matches_eigenvalues(suite):
    for eff in suite.tetrahedron.effects:
        assert QubitSpace().is_extremal(_linear(eff))
        assert abs(qubit_min_eigenvalue(eff.e0, eff.e_vec)) < 1e-12
    assert not QubitSpace().is_extremal(_linear(QubitEffect(0, (0, 0, 0.5))))
    # min eigenvalue formula against numpy
    e = QubitEffect(0.2, (0.1, -0.3, 0.2))
    assert abs(QubitSpace().min_value(_linear(e))
               - qubit_min_eigenvalue(e.e0, e.e_vec)) < 1e-12


def test_observable_validity(suite):
    assert suite.X.is_valid()
    assert suite.tetrahedron.is_valid()
    bad = QubitObservable((("+", QubitEffect(0, (1, 0, 0))),
                           ("-", QubitEffect(0, (-0.5, 0, 0)))))
    assert not bad.is_valid()


def test_octahedron_margins(suite):
    assert octahedron_margins(suite.X)["+"] == 1
    margins = octahedron_margins(suite.ct(0.8))
    assert abs(margins["+"] - 0.8 * math.sqrt(2)) < 1e-12
    assert octahedron_margins(
        QubitObservable((("a", QubitEffect(0.5, (0.6, 0, 0))),
                         ("b", QubitEffect(-0.5, (-0.6, 0, 0))))))["a"] == 1.1


def test_spectral_refiner_sums_and_rank(suite):
    rng = random.Random(7)
    for _ in range(20):
        obs = random_qubit_observable(rng)
        for eff in obs.effects:
            vec = linear_coords(eff)
            parts = QubitSpace().refine(Effect(vec))
            total = [sum(p.coeffs[d] for p in parts) for d in range(4)]
            assert max(abs(a - b) for a, b in zip(total, vec)) < 1e-9
            for p in parts:
                assert QubitSpace().is_extremal(p), p


def test_qubit_cone_exact_arithmetic():
    space = QubitSpace()
    x_plus = Effect((F(1, 2), 0, 0, F(1, 4)))  # rank one, rational Bloch norm
    assert space.is_extremal(x_plus)
    assert space.min_value(x_plus) == 0
    assert space.refine(x_plus) == [x_plus]
    half_id = Effect((0, 0, 0, F(1, 2)))
    assert space.refine(half_id) == [Effect((0, 0, F(1, 2), F(1, 4))),
                                     Effect((0, 0, F(-1, 2), F(1, 4)))]
    assert all(type(c) is F for p in space.refine(half_id) for c in p.coeffs)
    # Bloch norm sqrt(1/8) is irrational: no rank-one verdict needs it, but
    # the eigenvalue and the spectral split would leave exact arithmetic
    diagonal = Effect((F(1, 4), F(1, 4), 0, F(1, 2)))
    assert not space.is_extremal(diagonal)
    with pytest.raises(ModeError):
        space.min_value(diagonal)
    with pytest.raises(ModeError):
        space.refine(diagonal)


def test_vector_observable_unit(suite):
    vec = as_vector_observable(suite.X)
    total = tuple(sum(e.coeffs[d] for e in vec.effects) for d in range(4))
    assert total == (0, 0, 0, 1)


def test_random_qubit_observables_valid():
    rng = random.Random(99)
    for _ in range(50):
        obs = random_qubit_observable(rng)
        assert obs.is_valid()
        mat = sum(np.array(qubit_matrix(e.e0, e.e_vec)) for e in obs.effects)
        assert np.allclose(mat, np.eye(2))


def test_random_qubit_observable_margin_filter():
    rng = random.Random(5)
    for _ in range(20):
        obs = random_qubit_observable(rng, boundary_margin=1e-3)
        for val in octahedron_margins(obs).values():
            assert abs(val - 1.0) >= 1e-3
