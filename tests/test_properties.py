"""Property-based checks with hypothesis: certificates always replay, and the
effect cone's many-effect calls give the one-effect numbers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import min_value as oracle_min, price as oracle_price
from gptsim.catalog import classical, polygon, random_observable, square_bit
from gptsim.geometry import conic_decompose, in_convex_hull, replay_conic, replay_hull
from gptsim.lp import (
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    lp_solve,
    make_program,
    verify_farkas,
    verify_solution,
)
from gptsim.postprocessing import are_equivalent, minimally_sufficient
from gptsim.qubit import QubitSpace
from gptsim.scalars import ModeError, vdot
from gptsim.simulation import is_simulable, replay_simulation
from gptsim.spaces import Effect, StateSpace, is_valid_effect, is_valid_observable

SQ = square_bit()

rationals = st.fractions(min_value=-20, max_value=20,
                         max_denominator=8)


@st.composite
def small_programs(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    rows = [tuple(draw(rationals) for _ in range(n)) for _ in range(m)]
    rhs = tuple(draw(rationals) for _ in range(m))
    return make_program(rows=rows, rhs=rhs)


fine_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10 ** 6)


@st.composite
def general_programs(draw):
    # small_programs widened with an optional objective, zero entries and
    # denominators up to 10**6; an optional dependent row leaves an
    # artificial variable basic at zero after phase 1.
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.just(0), rationals, fine_rationals)
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    rhs = [draw(entries) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        k = draw(rationals)
        rows.append([a - k * b for a, b in zip(rows[0], rows[1])])
        rhs.append(rhs[0] - k * rhs[1])
    objective = draw(st.none() | st.lists(entries, min_size=n, max_size=n))
    return make_program(rows=rows, rhs=rhs, objective=objective)


@settings(max_examples=150, deadline=None)
@given(general_programs())
def test_general_lp_certificates_replay(program):
    out = lp_solve(program)
    if out.verdict == FEASIBLE:
        assert verify_solution(program, out.solution)
        if program.objective is not None:
            assert out.objective_value == sum(
                c * x for c, x in zip(program.objective, out.solution))
    elif out.verdict == INFEASIBLE:
        assert verify_farkas(program, out.farkas)
    else:
        assert out.verdict == UNBOUNDED and program.objective is not None
        feasible = make_program(rows=program.rows, rhs=program.rhs)
        assert lp_solve(feasible).verdict == FEASIBLE
        # The vertex is feasible and the objective grows without bound along the ray.
        assert verify_solution(program, out.solution)
        assert all(sum(a * d for a, d in zip(row, out.ray)) == 0 for row in program.rows)
        assert all(d >= 0 for d in out.ray)
        assert sum(c * d for c, d in zip(program.objective, out.ray)) > 0


def _reference_farkas(program, y):
    # the Fraction replay that the integer verifier replaced
    combo = [vdot(y, col) for col in zip(*program.rows)] if program.rows else []
    return all(z <= 0 for z in combo) and vdot(y, program.rhs) > 0


def _reference_solution(program, x):
    return (all(vdot(row, x) == b for row, b in zip(program.rows, program.rhs))
            and all(v >= 0 for v in x))


@st.composite
def verifier_programs(draw):
    # general_programs with integer entries too, or integer entries only
    if draw(st.booleans()):
        entries = st.integers(-20, 20)
    else:
        entries = st.one_of(st.just(0), st.integers(-20, 20), rationals, fine_rationals)
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    rhs = [draw(entries) for _ in range(m)]
    return make_program(rows=rows, rhs=rhs)


@settings(max_examples=150, deadline=None)
@given(verifier_programs(), st.data())
def test_exact_verifiers_match_fraction_reference(program, data):
    # The solver's certificate replays true under both; a copy with one
    # entry moved by 1/10**12 or set to zero usually replays false, and
    # both verifiers must give the same bool on it.
    out = lp_solve(program)
    if out.verdict == INFEASIBLE:
        cert, verify, reference = out.farkas, verify_farkas, _reference_farkas
    else:
        cert, verify, reference = out.solution, verify_solution, _reference_solution
    assert verify(program, cert) and reference(program, cert)
    i = data.draw(st.integers(0, len(cert) - 1))
    step = data.draw(st.sampled_from((1, -1))) * Fraction(1, 10 ** 12)
    for changed in (cert[i] + step, 0):
        tampered = cert[:i] + (changed,) + cert[i + 1:]
        assert verify(program, tampered) == reference(program, tampered)


@settings(max_examples=60, deadline=None)
@given(small_programs())
def test_lp_certificates_always_replay(program):
    out = lp_solve(program)
    if out.verdict == FEASIBLE:
        assert verify_solution(program, out.solution)
    else:
        assert verify_farkas(program, out.farkas)


@settings(max_examples=40, deadline=None)
@given(small_programs())
def test_lp_modes_agree_on_rational_input(program):
    float_program = make_program(
        rows=[[float(x) for x in r] for r in program.rows],
        rhs=[float(b) for b in program.rhs])
    assert lp_solve(program).verdict == lp_solve(float_program).verdict


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6),
       st.tuples(rationals, rationals))
def test_hull_query_replay_and_idempotence(generators, point):
    res = in_convex_hull(point, generators)
    assert replay_hull(res, point, generators)
    assert in_convex_hull(point, list(generators) + [point]).inside


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5)
       .filter(lambda rays: all(any(x != 0 for x in r) for r in rays)),
       st.tuples(rationals, rationals))
def test_conic_decompose_replay(rays, v):
    res = conic_decompose(v, rays)
    assert replay_conic(res, v, rays)
    if res.inside:
        assert sum(1 for c in res.coefficients if c != 0) <= 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_square_bit_random_observables_behave(seed):
    rng = random.Random(seed)
    obs = random_observable(SQ.space, rng)
    assert is_valid_observable(obs)
    hat = minimally_sufficient(obs)
    assert hat.n_outcomes <= obs.n_outcomes
    assert minimally_sufficient(hat) == hat
    assert are_equivalent(obs, hat)
    cert = is_simulable(obs, [SQ.E, SQ.F])
    assert cert.simulable
    assert replay_simulation(cert, obs, [SQ.E, SQ.F])
    # equivalence invariance of the simulation set
    assert is_simulable(hat, [SQ.E, SQ.F]).simulable


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_simulability_monotone_in_base(seed):
    rng = random.Random(seed)
    obs = random_observable(SQ.space, rng)
    if is_simulable(obs, [SQ.E]).simulable:
        assert is_simulable(obs, [SQ.E, SQ.F]).simulable


# The cone calls against the one-effect formulas of `oracles.min_value` and
# `oracles.price`: polytopes exact and float (float rows on an integer space
# too), and the qubit.
CONES = {"square": SQ.space, "square-float": SQ.space.as_float(),
         "square-integer": StateSpace("integer square", 3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1),
                                                            (1, -1, 1)], (0, 0, 1)),
         "classical3": classical(3).space, "classical3-float": classical(3).space.as_float(),
         **{f"polygon{n}": polygon(n).space for n in range(5, 9)}, "qubit": QubitSpace()}
# hypothesis favours short floats, whose sums round in no order; seeded
# uniform draws carry every bit
floats = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                   st.integers(0, 2 ** 32).map(lambda k: random.Random(k).uniform(-3, 3)))
# (2a, 2b, 1 - a^2 - b^2) / (1 + a^2 + b^2) is a rational point on the unit sphere
sphere = st.tuples(rationals, rationals).map(
    lambda ab: tuple(c / (1 + ab[0] ** 2 + ab[1] ** 2)
                     for c in (2 * ab[0], 2 * ab[1], 1 - ab[0] ** 2 - ab[1] ** 2)))


@st.composite
def cone_rows(draw):
    """(space, rows): one to six coefficient vectors of one field."""
    name = draw(st.sampled_from(sorted(CONES)))
    space = CONES[name]
    if name == "qubit" and draw(st.booleans()):  # exact, with rational Bloch norms
        rows = draw(st.lists(st.tuples(sphere, rationals, rationals), min_size=1, max_size=6))
        return space, [(*(r * x for x in d), tau) for d, r, tau in rows]
    exact = space.kind == "exact" or (name != "qubit" and space.kind is None
                                      and draw(st.booleans()))
    entries = rationals if exact else floats
    return space, draw(st.lists(st.tuples(*[entries] * space.ambient_dim), min_size=1, max_size=6))


def _same(got, want):
    """Bit for bit for floats (so -0.0 is not 0.0), equal for exact numbers."""
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return got == want and not isinstance(got, float)


@settings(max_examples=200, deadline=None)
@given(cone_rows(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_cone_calls_match_the_one_effect_oracles(case, bad, data):
    space, rows = case
    assert all(map(_same, space.min_values(rows), [oracle_min(space, r) for r in rows]))
    values, effects = space.prices(rows)
    for z, value, effect in zip(rows, values, effects):
        want_value, want_effect = oracle_price(space, z)
        assert _same(value, want_value) and all(map(_same, effect, want_effect))
    # a row with a NaN or an inf among float rows: every other row keeps its
    # number, the row is no effect, a NaN gives a NaN, and nothing warns
    if not any(isinstance(x, Fraction) for r in rows for x in r):
        at, d = data.draw(st.integers(0, len(rows))), data.draw(st.integers(0, len(rows[0]) - 1))
        broken = tuple(bad if k == d else x for k, x in enumerate(rows[at % len(rows)]))
        mixed = [*rows[:at], broken, *rows[at:]]
        got = space.min_values(mixed)
        assert all(map(_same, got[:at] + got[at + 1:], [oracle_min(space, r) for r in rows]))
        assert not is_valid_effect(Effect(broken), space)
        assert not math.isnan(bad) or math.isnan(got[at])
        space.prices(mixed)
    # a row of another dimension raises ValueError, whatever the others
    with pytest.raises(ValueError, match="dimension mismatch"):
        space.min_values([*rows, (*rows[0], rows[0][0])])
    with pytest.raises(ValueError, match="dimension mismatch"):
        space.prices([(*rows[0], rows[0][0])])


def test_an_irrational_exact_bloch_norm_raises():
    diagonal = (Fraction(1, 4), Fraction(1, 4), 0, Fraction(1, 2))  # ||e||^2 = 1/8
    for call in (QubitSpace().min_values, QubitSpace().prices):
        with pytest.raises(ModeError):
            call([(0, 0, Fraction(1, 2), Fraction(1, 2)), diagonal])


def test_seeded_qubit_rows_match_the_one_effect_oracles():
    # full-precision floats, where a sum taken in another order or a norm by
    # another formula would move last bits that hypothesis's short floats keep
    rng, space = random.Random("qubit-rows"), QubitSpace()
    rows = [tuple(rng.uniform(-1, 1) for _ in range(4)) for _ in range(2000)]
    assert all(map(_same, space.min_values(rows), [oracle_min(space, r) for r in rows]))
    values, effects = space.prices(rows)
    for z, value, effect in zip(rows, values, effects):
        want_value, want_effect = oracle_price(space, z)
        assert _same(value, want_value) and all(map(_same, effect, want_effect))
