"""LP solver tests: verdicts, certificates, and exact/float agreement."""

from fractions import Fraction

import pytest

from gptsim.lp import (
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    lp_solve,
    make_program,
    verify_farkas,
    verify_solution,
)
from gptsim.scalars import EXACT, FLOAT


F = Fraction


def test_bounded_maximum():
    # maximize x subject to x <= 1 (slack form: x + s = 1), x, s >= 0
    p = make_program(rows=[(1, 1)], rhs=(1,), objective=(1, 0))
    out = lp_solve(p)
    assert out.verdict == FEASIBLE
    assert out.mode == EXACT
    assert out.objective_value == 1
    assert verify_solution(p, out.solution)


def test_infeasible_with_farkas():
    # x >= 0 together with -x >= 1, i.e. -x - s = 1 with s >= 0.
    p = make_program(rows=[(-1, -1)], rhs=(1,))
    out = lp_solve(p)
    assert out.verdict == INFEASIBLE
    assert out.farkas is not None
    assert verify_farkas(p, out.farkas)


def test_unbounded_reported_distinctly():
    # maximize x with only x - s = 1: x can grow without bound.
    p = make_program(rows=[(1, -1)], rhs=(1,), objective=(1, 0))
    out = lp_solve(p)
    assert out.verdict == UNBOUNDED
    assert out.verdict != INFEASIBLE


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        make_program(rows=[(1, 1), (1,)], rhs=(1, 1))


def test_exact_solution_is_fraction():
    p = make_program(rows=[(F(1, 3), F(1, 2))], rhs=(F(1),), objective=(1, 1), sense="min")
    out = lp_solve(p)
    assert out.verdict == FEASIBLE
    assert all(isinstance(x, Fraction) for x in out.solution)
    # min x+y over x/3 + y/2 = 1 picks the y axis: y = 2.
    assert out.objective_value == 2


def test_free_variable_support():
    # x free, y >= 0: x + y = -3 forces x negative when y small.
    p = make_program(rows=[(1, 1)], rhs=(-3,), nonneg=(False, True),
                     objective=(0, 1), sense="min")
    out = lp_solve(p)
    assert out.verdict == FEASIBLE
    assert out.solution[0] == -3
    assert out.solution[1] == 0


def test_float_mode_and_tolerance_recorded():
    p = make_program(rows=[(0.5, 0.5)], rhs=(1.0,), objective=(1.0, 0.0))
    out = lp_solve(p)
    assert out.mode == FLOAT
    assert out.tolerance is not None
    assert out.objective_value == pytest.approx(2.0)


def test_degenerate_program_terminates():
    # Several redundant constraints meeting at one vertex.
    rows = [(1, 1, 1, 0), (1, 1, 0, 1), (2, 2, 1, 1)]
    p = make_program(rows=rows, rhs=(1, 1, 2), objective=(3, 2, 0, 0))
    out = lp_solve(p)
    assert out.verdict == FEASIBLE
    assert out.objective_value == 3
    assert verify_solution(p, out.solution)


@pytest.mark.parametrize("seed", range(12))
def test_random_rational_agreement_exact_vs_float(seed):
    # Random small equality-form programs with entries of magnitude <= 10**3:
    # both backends must agree on the verdict.
    import random

    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(2, 6)
    rows = [tuple(F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n))
            for _ in range(m)]
    rhs = tuple(F(rng.randint(-10, 10), 1) for _ in range(m))
    p_exact = make_program(rows=rows, rhs=rhs)
    p_float = make_program(rows=[[float(x) for x in r] for r in rows],
                           rhs=[float(b) for b in rhs])
    out_e = lp_solve(p_exact)
    out_f = lp_solve(p_float)
    assert out_e.verdict == out_f.verdict
    if out_e.verdict == FEASIBLE:
        assert verify_solution(p_exact, out_e.solution)
        assert verify_solution(p_float, out_f.solution)
    else:
        assert verify_farkas(p_exact, out_e.farkas)
        assert verify_farkas(p_float, out_f.farkas)


def test_exact_mode_rejects_float_data():
    p = make_program(rows=[(0.5, 0.5)], rhs=(1.0,), objective=(1.0, 0.0))
    with pytest.raises(ValueError, match="exact mode requested for float data"):
        lp_solve(p, mode=EXACT)


@pytest.mark.parametrize("kernel, one", [("_IntTableau", 1), ("_FloatTableau", 1.0)])
def test_nonpositive_farkas_scale_raises(monkeypatch, kernel, one):
    # -x0 - x1 = 1 is infeasible; row 2 starts on the crash column x2 and
    # row 1 on an artificial. With both dual values read as -1, y'b < 0.
    from gptsim import lp

    p = make_program(rows=[(-one, -one, 0), (one, 0, one)], rhs=(one, one))
    out = lp_solve(p)
    assert out.verdict == INFEASIBLE and verify_farkas(p, out.farkas)
    cls = getattr(lp, kernel)
    monkeypatch.setattr(cls, "dual", lambda self, i: -one)
    with pytest.raises(lp.CertificateError, match="Farkas scale must be positive"):
        lp_solve(p)
    assert issubclass(lp.CertificateError, RuntimeError)


def _degenerate_programs(count, seed):
    # Bounded programs (a simplex row) with zero right-hand sides, so many
    # pivots leave the objective unchanged.
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(3, 7)
        rows = [tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
                for _ in range(m)]
        rows.append((1,) * n)
        rhs = tuple(F(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 3))
                    for _ in range(m)) + (1,)
        objective = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
        out.append(make_program(rows=rows, rhs=rhs, objective=objective,
                                sense=rng.choice(("max", "min"))))
    return out


def test_bland_rule_from_first_stall(monkeypatch):
    from gptsim import lp

    programs = _degenerate_programs(30, seed=5)
    reference = [lp_solve(p) for p in programs]
    monkeypatch.setattr(lp, "_STALL_LIMIT", 0)
    rows = [(1, 1, 1, 0), (1, 1, 0, 1), (2, 2, 1, 1)]
    p = make_program(rows=rows, rhs=(1, 1, 2), objective=(3, 2, 0, 0))
    out = lp_solve(p)
    assert out.verdict == FEASIBLE
    assert out.objective_value == 3
    assert verify_solution(p, out.solution)
    verdicts = set()
    for program, ref in zip(programs, reference):
        out = lp_solve(program)
        verdicts.add(out.verdict)
        assert out.verdict == ref.verdict
        if out.verdict == FEASIBLE:
            assert verify_solution(program, out.solution)
            assert out.objective_value == ref.objective_value
        else:
            assert verify_farkas(program, out.farkas)
    assert verdicts == {FEASIBLE, INFEASIBLE}


def _simulation_corpus():
    # Seeded exact simulation LPs: square bit, classical(3) and the
    # rational-coordinate tetrahedron, 201 programs in all.
    import random

    from gptsim.catalog import classical, random_observable, square_bit, tetrahedron_rational
    from gptsim.simulation import simulation_program

    sq, cl, rat = square_bit(), classical(3), tetrahedron_rational()
    rng = random.Random(2026)
    programs = []
    for _ in range(33):
        a, b = random_observable(sq.space, rng), random_observable(sq.space, rng)
        c, d = random_observable(cl.space, rng), random_observable(cl.space, rng)
        for target, sims in ((a, [sq.E, sq.F]), (a, [sq.E]), (a, [sq.F]), (a, [b]),
                             (c, [cl.distinguishing]), (c, [d])):
            programs.append(simulation_program(target, sims))
    binarizations = [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    for sims in ([rat["B"]], binarizations, [rat["D1"], rat["D2"]]):
        target = rat["A"] if sims == [rat["B"]] else rat["B"]
        programs.append(simulation_program(target, sims))
    return programs


def test_exact_outcomes_pinned():
    # Any change of pivot choice or certificate changes this digest.
    import hashlib

    digest = hashlib.sha256()
    verdicts = set()
    for program in _simulation_corpus():
        out = lp_solve(program, mode=EXACT)
        verdicts.add(out.verdict)
        digest.update(repr(out).encode())
    assert verdicts == {FEASIBLE, INFEASIBLE}
    assert digest.hexdigest() == (
        "4ec4d8acbe6c853e7e4303d8afbdc7877f018be974d689ca5d9294bbc53c8bea")


def _float_corpus(monkeypatch):
    # Seeded float programs: the float twins of the exact corpus, polygon
    # simulation LPs (n = 5..8) against the irreducible catalog and against
    # one random observable, and the conic decompositions (feasibility plus
    # greedy objectives) of the effects of random polygon observables.
    import random

    from gptsim import geometry
    from gptsim.catalog import polygon_irreducibles, random_observable
    from gptsim.simulation import simulation_program
    from gptsim.spaces import dual_cone_rays

    programs = [make_program(rows=[[float(x) for x in r] for r in p.rows],
                             rhs=[float(b) for b in p.rhs], nonneg=p.nonneg)
                for p in _simulation_corpus()]
    conic = []

    def recording(program, *args, **kwargs):
        conic.append(program)
        return lp_solve(program, *args, **kwargs)

    for n in range(5, 9):
        cat = polygon_irreducibles(n)
        space = cat.theory.space
        rays = dual_cone_rays(space)
        rng = random.Random(100 + n)
        for _ in range(6):
            target, other = random_observable(space, rng), random_observable(space, rng)
            programs.append(simulation_program(target, list(cat.observables)))
            programs.append(simulation_program(target, [other]))
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "lp_solve", recording)
                for effect in target.effects:
                    geometry.conic_decompose(effect.coeffs, rays)
    return programs + conic


def test_float_outcomes_pinned(monkeypatch):
    # Verdicts and pivot counts do not depend on summation order, so any
    # change of float pivot choice changes this digest.
    import hashlib

    digest = hashlib.sha256()
    verdicts = []  # 836 programs, 505 with an objective
    for program in _float_corpus(monkeypatch):
        out = lp_solve(program, mode=FLOAT)
        verdicts.append(out.verdict)
        digest.update(repr((out.verdict, out.pivots)).encode())
    assert (verdicts.count(FEASIBLE), verdicts.count(INFEASIBLE)) == (724, 112)
    assert digest.hexdigest() == (
        "8b92cefcd7cca36b74814e75b3300337e681eb80718bdded239705c70f87ea10")
