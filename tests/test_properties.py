"""Property-based checks with hypothesis: certificates always replay."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gptsim.catalog import random_observable, square_bit
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
from gptsim.scalars import vdot
from gptsim.simulation import is_simulable, replay_simulation
from gptsim.spaces import is_valid_observable

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
