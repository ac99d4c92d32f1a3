"""Property-based checks with hypothesis: certificates always replay."""

import random

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
    # small_programs widened with free columns, an optional objective and
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
    nonneg = [draw(st.booleans()) for _ in range(n)]
    objective = draw(st.none() | st.lists(entries, min_size=n, max_size=n))
    return make_program(rows=rows, rhs=rhs, nonneg=nonneg, objective=objective,
                        sense=draw(st.sampled_from(("max", "min"))))


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
        feasible = make_program(rows=program.rows, rhs=program.rhs, nonneg=program.nonneg)
        assert lp_solve(feasible).verdict == FEASIBLE


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
