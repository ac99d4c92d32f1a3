"""LP solver tests: verdicts, certificates, and exact/float agreement."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from corpora import float_corpus, oracle_programs, simulation_corpus
from gptsim.lp import (
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    lp_solve,
    make_program,
    verify_farkas,
    verify_solution,
)
from gptsim.scalars import DEFAULT_TOLERANCE, EXACT, FLOAT


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
    with pytest.raises(ValueError, match="tie-breaks need an objective"):
        make_program(rows=[(1, 1)], rhs=(1,), tiebreaks=[(1, 0)])
    with pytest.raises(ValueError, match="objective width"):
        make_program(rows=[(1, 1)], rhs=(1,), objective=(1, 0), tiebreaks=[(1,)])
    from gptsim.lp import LinearProgram

    for rows in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match="constraint row width"):
            LinearProgram(num_vars=2, rows=rows, rhs=(0.0,) * len(rows))


def test_exact_solution_is_fraction():
    p = make_program(rows=[(F(1, 3), F(1, 2))], rhs=(F(1),), objective=(-1, -1))
    out = lp_solve(p)
    assert out.verdict == FEASIBLE
    assert all(isinstance(x, Fraction) for x in out.solution)
    # max -(x+y) over x/3 + y/2 = 1 picks the y axis: y = 2.
    assert out.objective_value == -2


def test_float_mode_and_tolerance_recorded():
    p = make_program(rows=[(0.5, 0.5)], rhs=(1.0,), objective=(1.0, 0.0))
    out = lp_solve(p)
    assert out.mode == FLOAT
    assert all(type(x) is float for x in out.solution)
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


@pytest.mark.parametrize("where", ["objective", "rows"])
def test_exact_mode_rejects_float_data_before_solving(where):
    # -x0 - x1 = 1 is infeasible in phase 1, so a float objective must be
    # caught up front; a float row is caught while the exact kernel clears
    # it. Neither rejected program counts as a solve.
    from gptsim import lp

    row, objective = ((-1.0, -1), (1, 0)) if where == "rows" else ((-1, -1), (1.0, 0))
    p = make_program(rows=[row], rhs=(1,), objective=objective)
    solves = lp.stats["solves"]
    with pytest.raises(ValueError, match="exact mode requested for float data"):
        lp_solve(p, mode=EXACT)
    assert lp.stats["solves"] == solves
    assert lp_solve(p, mode=FLOAT).verdict == INFEASIBLE
    assert lp.stats["solves"] == solves + 1


def _with_array_twin(rows, rhs):
    return [make_program(rows=r, rhs=rhs) for r in (rows, np.array(rows, dtype=float))]


def test_float_verifiers_reject_nan():
    # products beyond the largest float read as inf or NaN, which fail too,
    # and raise no RuntimeWarning (which tier-1 turns into an error)
    nan = float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in _with_array_twin([(1.0, 1.0)], (1.0,)):
            assert verify_solution(p, (0.5, 0.5))
            for solution in ((nan, nan), (nan, 1.0), (0.5, nan), (1e308, 1e308)):
                assert verify_solution(p, solution) is False
        for q in _with_array_twin([(1.0, 1.0)], (-1.0,)):
            assert verify_farkas(q, (-1.0,))
            assert verify_farkas(q, (nan,)) is False
        for q in _with_array_twin([(4.0,), (4.0,)], (4.0, -4.0)):
            assert verify_farkas(q, (1e308, -1e308)) is False  # inf - inf in y'A


def test_float_farkas_with_an_infinite_entry_fails():
    # y = (-inf, 0) meets no zero here: y'A = (-inf, -inf) <= eps and
    # y'b = inf > eps, so only a finiteness test on y rejects it
    inf, nan = float("inf"), float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in _with_array_twin([(1.0, 1.0), (0.0, 1.0)], (-1.0, 0.0)):
            assert verify_farkas(q, (-1.0, 0.0))
            assert verify_farkas(q, (-inf, 0.0)) is False
            assert verify_farkas(q, (-1.0, nan)) is False


def test_float_verifiers_allow_eps_and_no_more():
    eps = DEFAULT_TOLERANCE.eps
    for p in _with_array_twin([(1.0, 1.0)], (1.0,)):
        assert verify_solution(p, (0.5, 0.5 + eps / 2))
        assert not verify_solution(p, (0.5, 0.5 + 2 * eps))
        assert verify_solution(p, (-eps / 2, 1.0))
        assert not verify_solution(p, (-2 * eps, 1.0))
    # y = (-1, 1) refutes x1 + x2 = 1 and x1 + x2 = 2; y'A is the residual
    for q in _with_array_twin([(1.0, 1.0), (1.0, 1.0)], (1.0, 2.0)):
        assert verify_farkas(q, (-1.0, 1.0))
        assert verify_farkas(q, (-1.0, 1.0 + eps / 2))
        assert not verify_farkas(q, (-1.0, 1.0 + 2 * eps))
        assert verify_farkas(q, (-1.0, 1.0 - 2 * eps))  # y'A < 0 refutes too


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_verifiers_on_a_program_without_rows(mode):
    # the twin's rows are a zero-row float array, which keeps its width even
    # without an objective to give one
    assert make_program(rows=np.zeros((0, 2)), rhs=[]).num_vars == 2
    p, twin = (make_program(rows=rows, rhs=[], objective=(1, 0))
               for rows in ([], np.zeros((0, 2))))
    assert isinstance(twin.rows, np.ndarray)
    assert repr(lp_solve(twin, mode=mode)) == repr(lp_solve(p, mode=mode))
    for program in (p, twin):
        assert not verify_farkas(program, (), mode=mode)  # y'b = 0 refutes nothing
        assert not verify_farkas(program, (1,), mode=mode)
        assert verify_solution(program, (0, 3), mode=mode)
        assert not verify_solution(program, (-1, 0), mode=mode)
        assert not verify_solution(program, (0, -3), mode=mode)
        assert not verify_solution(program, (0,), mode=mode)


def test_exact_verifiers_reject_float_data():
    p = make_program(rows=[(0.5, 0.5)], rhs=(1.0,))
    q = make_program(rows=[(1, 1)], rhs=(2,))
    for program, farkas, solution in ((p, (F(1),), (F(1), F(1))), (q, (1.0,), (1.0, 1.0))):
        with pytest.raises(ValueError, match="exact mode requested for float data"):
            verify_farkas(program, farkas, mode=EXACT)
        with pytest.raises(ValueError, match="exact mode requested for float data"):
            verify_solution(program, solution, mode=EXACT)


@pytest.mark.parametrize("kernel, one", [("_IntTableau", 1), ("_FloatRevised", 1.0)])
def test_nonpositive_farkas_scale_raises(monkeypatch, kernel, one):
    # -x0 - x1 = 1 is infeasible, and each row starts on its artificial.
    # With both dual values read as -1, y'b < 0.
    from gptsim import lp

    p = make_program(rows=[(-one, -one, 0), (one, 0, one)], rhs=(one, one))
    out = lp_solve(p)
    assert out.verdict == INFEASIBLE and verify_farkas(p, out.farkas)
    cls = getattr(lp, kernel)
    monkeypatch.setattr(cls, "dual", lambda self, i: -one)
    with pytest.raises(lp.CertificateError, match="Farkas scale must be positive"):
        lp_solve(p)
    assert issubclass(lp.CertificateError, RuntimeError)


@pytest.mark.parametrize("kernel, one", [("_IntTableau", 1), ("_FloatRevised", 1.0)])
def test_unbounded_phase_1_raises_certificate_error(monkeypatch, kernel, one):
    # x0 + x1 = 2, x0 - x1 = 0 start on their artificials, so phase 1 must
    # pivot; a ratio test that finds no leaving row is a breakdown.
    from gptsim import lp

    p = make_program(rows=[(one, one), (one, -one)], rhs=(2 * one, 0 * one))
    assert lp_solve(p).pivots > 0
    monkeypatch.setattr(getattr(lp, kernel), "leaving", lambda self, col, basis: -1)
    with pytest.raises(lp.CertificateError, match="phase 1 cannot be unbounded"):
        lp_solve(p)


def test_float_solution_failing_replay_raises(monkeypatch):
    # Every float FEASIBLE or UNBOUNDED outcome is replayed against its
    # program before it leaves lp_solve.
    from gptsim import lp

    bounded = make_program(rows=[(1.0, 1.0, 0.0), (0.0, 1.0, -1.0)], rhs=(1.0, 0.0),
                           objective=(1.0, 0.0, 0.0))
    unbounded = make_program(rows=[(1.0, -1.0)], rhs=(1.0,), objective=(1.0, 0.0))
    assert lp_solve(bounded).verdict == FEASIBLE
    assert lp_solve(unbounded).verdict == UNBOUNDED
    value = lp._FloatRevised.value
    monkeypatch.setattr(lp._FloatRevised, "value",
                        lambda self, i, col=-1: value(self, i, col) + (1e-6 if col < 0 else 0.0))
    for program in (bounded, unbounded):
        with pytest.raises(lp.CertificateError, match="fails replay"):
            lp_solve(program)


def test_float_unbounded_ray_replays(monkeypatch):
    # `_simplex` replays the ray of a float UNBOUNDED outcome as well:
    # A r = 0, r >= 0 and c'r > 0 for the objective c that grows along it.
    from gptsim import lp

    grows = [(1.0, 0.0), (0.0, 0.0, 0.0, 1.0, 0.0)]
    programs = [
        make_program(rows=[(1.0, -1.0)], rhs=(1.0,), objective=grows[0]),
        make_program(rows=[(1.0, 1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, -1.0)],
                     rhs=(1.0, 0.0), objective=(1.0, 1.0, 0.0, 0.0, 0.0),
                     tiebreaks=[grows[1]]),
    ]
    for program, c in zip(programs, grows):
        out = lp_solve(program)
        assert out.verdict == UNBOUNDED
        A, _ = program.float_data
        r = np.array(out.ray)
        assert np.abs(A @ r).max() <= 1e-12 and r.min() >= 0 and np.dot(c, r) >= 1
    value = lp._FloatRevised.value
    monkeypatch.setattr(lp._FloatRevised, "value",
                        lambda self, i, col=-1: value(self, i, col) + (1e-6 if col >= 0 else 0.0))
    for program in programs:
        with pytest.raises(lp.CertificateError, match="unbounded ray fails replay"):
            lp_solve(program)


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
        sign = rng.choice((1, -1))  # -1: the minimum, as the maximum of -objective
        out.append(make_program(rows=rows, rhs=rhs, objective=[sign * c for c in objective]))
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


def test_exact_outcomes_pinned():
    # Any change of pivot choice or certificate changes this digest.
    import hashlib

    digest = hashlib.sha256()
    verdicts = set()
    for program in simulation_corpus():
        out = lp_solve(program, mode=EXACT)
        verdicts.add(out.verdict)
        digest.update(repr(out).encode())
    assert verdicts == {FEASIBLE, INFEASIBLE}
    assert digest.hexdigest() == (
        "60153d5f8a4f7cc47e1abb5c519c94c135500c70459e1056af4669758cfdbfb8")


def test_float_outcomes_pinned():
    # Verdicts and pivot counts do not depend on summation order, so any
    # change of float pivot choice changes this digest.
    import hashlib

    digest = hashlib.sha256()
    verdicts = []  # 849 programs, 516 with an objective
    for program in float_corpus():
        out = lp_solve(program, mode=FLOAT)
        verdicts.append(out.verdict)
        digest.update(repr((out.verdict, out.pivots)).encode())
    assert (verdicts.count(FEASIBLE), verdicts.count(INFEASIBLE)) == (736, 113)
    assert digest.hexdigest() == (
        "c2f73d6db91ea0470e1c38d4e6e216617314d8a87075185acac4dba989430d5d")


def test_float_ratio_ties_go_to_the_smallest_basic_index():
    # Every row starts on its artificial, so the basic values are |b| =
    # (1, 2 + 2e-12, 2), and the column of x0 in the flipped rows is
    # (1, 2, 1). Rows 0 and 1 tie within eps (ratios 1 and 1 + 1e-12) and
    # row 2 (ratio 2) does not. The tie goes to the row whose basic index is
    # the smaller, row 1 too, although row 0 comes first and has the smaller
    # ratio.
    from gptsim import lp
    from gptsim.scalars import DEFAULT_TOLERANCE, field

    rows = [(1.0, 0.0, 0.0, 1.0), (-2.0, -2.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0)]
    p = make_program(rows=rows, rhs=(1.0, -2.0 - 2e-12, 2.0), objective=(1.0, 0.0, 0.0, 0.0))
    tab = lp._FloatRevised(p, [1, -1, 1], field(FLOAT, DEFAULT_TOLERANCE))
    for basis, row in (([4, 5, 6], 0), ([5, 4, 6], 1), ([3, 1, 2], 1), ([1, 3, 2], 0)):
        assert tab.leaving(0, basis) == row


def test_singleton_columns_start_on_artificials():
    # Column x2 has one nonzero, positive, in row 1, the case that once
    # started row 1 on x2. Row i starts on artificial column n + i in both
    # kernels, and both decide the feasible and the infeasible variant
    # alike, with certificates that replay.
    from gptsim import lp
    from gptsim.scalars import DEFAULT_TOLERANCE, field

    for sign, verdict in ((1, FEASIBLE), (-1, INFEASIBLE)):
        rows, rhs = [(sign, sign, 0), (1, 0, 1)], (1, 1)
        outs = []
        for kernel, mode, kind in ((lp._IntTableau, EXACT, F), (lp._FloatRevised, FLOAT, float)):
            p = make_program(rows=[[kind(x) for x in r] for r in rows],
                             rhs=[kind(b) for b in rhs], objective=[kind(0), kind(0), kind(1)])
            assert kernel(p, [1, 1], field(mode, DEFAULT_TOLERANCE)).basis == list(range(3, 5))
            out = lp_solve(p, mode=mode)
            assert out.verdict == verdict
            assert (verify_solution(p, out.solution) if verdict == FEASIBLE
                    else verify_farkas(p, out.farkas))
            outs.append(out)
        assert outs[0].solution == outs[1].solution and outs[0].farkas == outs[1].farkas


@pytest.mark.parametrize("last", [1, -1])
@pytest.mark.parametrize("sense", ["max", "min"])
@pytest.mark.parametrize("objective", [(1, 0, 0, 0, 0), (0, 1, -1, 0, 1), (-1, 2, 0, 1, 0)])
def test_float_free_columns_and_flips_agree_with_exact(objective, sense, last):
    # x0 and x4 are free, each written as the difference of two nonnegative
    # columns (columns 0-1 and 5-6), and row 0 is negated; with last = -1
    # row 3 is negated too and x1 + x2 = -1 is infeasible. A minimum is the
    # maximum of the negated objective. The float kernel takes the exact
    # kernel's pivots to the same verdict, and a twin with the float rows as
    # one array gives the same outcome.
    def split(r):
        return (r[0], -r[0], *r[1:], -r[-1])

    rows = [split(r) for r in
            [(1, -1, 0, 0, 1), (1, 0, 1, 0, -1), (0, 1, 1, 1, 2), (0, 1, 1, 0, 0)]]
    rhs = (-2, 3, 4, last)
    objective = split(objective if sense == "max" else [-c for c in objective])
    exact = make_program(rows=rows, rhs=rhs, objective=objective)
    floats, twin = (make_program(rows=float_rows, rhs=[float(b) for b in rhs],
                                 objective=[float(c) for c in objective])
                    for float_rows in ([[float(x) for x in r] for r in rows],
                                       np.array(rows, dtype=float)))
    assert isinstance(twin.rows, np.ndarray)
    ref, out = lp_solve(exact, mode=EXACT), lp_solve(floats, mode=FLOAT)
    assert repr(lp_solve(twin, mode=FLOAT)) == repr(out)
    assert out.verdict == ref.verdict == (FEASIBLE if last > 0 else INFEASIBLE)
    assert out.pivots == ref.pivots
    if last > 0:
        assert out.solution == pytest.approx([float(x) for x in ref.solution], abs=1e-12)
        wrong = (out.solution[0] + 1e-6, *out.solution[1:])
        for program in (floats, twin):
            assert verify_solution(program, out.solution)
            assert not verify_solution(program, wrong)
    else:
        assert out.farkas == pytest.approx([float(y) for y in ref.farkas], abs=1e-12)
        for program in (floats, twin):
            assert verify_farkas(program, out.farkas)
            assert not verify_farkas(program, tuple(-y for y in out.farkas))


def test_array_rows_are_read_only_and_survive_a_solve():
    A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]])
    p = make_program(rows=A, rhs=[1.0, -0.5], objective=[0.0, 1.0, 1.0])
    assert np.shares_memory(p.rows, A)  # a view, not a copy
    with pytest.raises(ValueError, match="read-only"):
        p.rows[0, 0] = 2.0
    with pytest.raises(TypeError):
        hash(p)
    out = lp_solve(p)
    assert out.verdict == FEASIBLE and out.pivots > 0
    assert verify_solution(p, out.solution)
    assert np.array_equal(p.rows, [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]])


def test_pivot_cap_counts_the_whole_solve(monkeypatch):
    # Phase 1 and phase 2 take two pivots each. A cap of 3 (half a pivot per
    # variable and constraint) admits either phase alone but not the solve.
    from gptsim import lp

    rows, rhs = [(0.0, 2.0, 3.0, 3.0), (3.0, 2.0, 3.0, 1.0)], (4.0, 4.0)
    p = make_program(rows=rows, rhs=rhs, objective=(1.0, 2.0, 1.0, 2.0))
    assert lp_solve(make_program(rows=rows, rhs=rhs)).pivots == 2
    assert lp_solve(p).pivots == 4
    monkeypatch.setattr(lp._FloatRevised, "CAP", 0.5)
    with pytest.raises(lp.SolverLimitError, match="exceeded 3.0 pivots"):
        lp_solve(p)
    monkeypatch.setattr(lp._FloatRevised, "CAP", 1)
    assert lp_solve(p).solution == pytest.approx((0.0, 2.0, 0.0, 0.0), abs=1e-15)


@pytest.mark.parametrize("one", [1, 1.0])
def test_tiebreaks_optimize_over_the_optimal_face(one):
    # x0 + x1 + x2 = 1 and x3 = x4, all nonnegative. Maximizing x0 + x1 ties
    # on the edge x2 = 0; the tie-break x1 + 2 x2 alone would pick x2 = 1, but
    # over that edge it picks x1 = 1. A third objective, x3, is unbounded
    # along x3 = x4.
    zero = 0 * one
    rows = [(one, one, one, zero, zero), (zero, zero, zero, one, -one)]
    first = (one, one, zero, zero, zero)
    second = (zero, one, 2 * one, zero, zero)
    alone = lp_solve(make_program(rows=rows, rhs=(one, zero), objective=second))
    assert alone.solution == (0, 0, 1, 0, 0)
    p = make_program(rows=rows, rhs=(one, zero), objective=first, tiebreaks=[second])
    out = lp_solve(p)
    assert out.verdict == FEASIBLE and verify_solution(p, out.solution)
    assert out.solution == (0, 1, 0, 0, 0) and out.objective_value == 1
    third = (zero, zero, zero, one, zero)
    p = make_program(rows=rows, rhs=(one, zero), objective=first, tiebreaks=[second, third])
    out = lp_solve(p)
    assert out.verdict == UNBOUNDED and out.solution == (0, 1, 0, 0, 0)
    assert out.ray == (0, 0, 0, 1, 1)


@pytest.mark.parametrize("stall_limit", [None, 0])
def test_exact_kernel_matches_fraction_oracle(monkeypatch, stall_limit):
    # The integer kernel's outcomes equal those of a plain Fraction tableau
    # under the same rules, on programs that reach each arithmetic path of
    # the kernel: rows reduced by a gcd once past a machine word, updates
    # where the pivot does not divide the entry, and more than one pricing.
    from math import gcd

    from gptsim import lp
    from oracles import fraction_simplex

    if stall_limit is not None:
        monkeypatch.setattr(lp, "_STALL_LIMIT", stall_limit)
    hits = {"reduced by a gcd": 0, "pivot divides": 0, "pivot does not divide": 0,
            "priced twice": 0}
    reduced, eliminate, price = lp._reduced, lp._eliminate, lp._IntTableau.price

    def counted_reduced(row, den):
        out = reduced(row, den)
        hits["reduced by a gcd"] += out[1] != den
        return out

    def counted_eliminate(row, den, f, P, p, nz):
        hits["pivot divides" if gcd(p, f) == p else "pivot does not divide"] += 1
        return eliminate(row, den, f, P, p, nz)

    def counted_price(self, values, basis):
        self.priced = getattr(self, "priced", 0) + 1
        hits["priced twice"] += self.priced == 2
        return price(self, values, basis)

    monkeypatch.setattr(lp, "_reduced", counted_reduced)
    monkeypatch.setattr(lp, "_eliminate", counted_eliminate)
    monkeypatch.setattr(lp._IntTableau, "price", counted_price)
    verdicts = set()
    programs = oracle_programs(31, 90)
    started = [_with_slack_start(p) for p in programs[::2]] + simulation_corpus()[::4]
    for program in programs + started:
        out = lp_solve(program, mode=EXACT)
        verdicts.add((out.verdict, bool(program.start)))
        assert (out.verdict, out.solution, out.farkas, out.ray, out.objective_value,
                out.pivots) == fraction_simplex(program, lp._STALL_LIMIT)
    assert verdicts == {(v, s) for v in (FEASIBLE, INFEASIBLE, UNBOUNDED) for s in (False, True)}
    assert all(hits.values()), hits


def _with_slack_start(program):
    # The program with a unit column appended for each row of nonnegative
    # right-hand side, priced at zero, which starts that row.
    n = program.num_vars
    named = [i for i, b in enumerate(program.rhs) if b >= 0]
    rows = [list(r) + [int(i == k) for k in named] for i, r in enumerate(program.rows)]
    pad = [0] * len(named)
    return make_program(rows, program.rhs,
                        None if program.objective is None else list(program.objective) + pad,
                        [list(t) + pad for t in program.tiebreaks],
                        start=[(i, n + t) for t, i in enumerate(named)])


@pytest.mark.parametrize("array", [False, True])
@pytest.mark.parametrize("start, message", [
    ([(0, 1)], "unit column"),        # column 1 has a second nonzero
    ([(0, 2)], "unit column"),        # 2, not 1, in row 0
    ([(1, 0)], "unit column"),        # column 0 is e_0, not e_1
    ([(2, 3)], "out of range"),
    ([(0, 5)], "out of range"),
    ([(-1, 3)], "out of range"),
    ([(0, 0), (0, 3)], "row twice"),
    ([(1, 3)], "nonnegative right-hand side"),
])
def test_malformed_start_raises(array, start, message):
    rows = [(1.0, 1.0, 2.0, 0.0, 0.0), (0.0, 1.0, 0.0, 1.0, 0.0)]
    rows = np.array(rows) if array else rows
    assert make_program(rows, (1.0, 2.0), start=[(0, 0), (1, 3)]).start == ((0, 0), (1, 3))
    with pytest.raises(ValueError, match=message):
        make_program(rows, (1.0, -2.0) if "right-hand" in message else (1.0, 2.0),
                     start=start)


def test_programs_without_a_start_keep_their_outcomes():
    # The full outcomes, every float bit included, of the oracle programs
    # and their float twins, which name no start; the digest was taken
    # before programs could name one.
    import hashlib

    digest = hashlib.sha256()
    programs = oracle_programs(31, 90)
    twins = [make_program([[float(x) for x in r] for r in p.rows], [float(b) for b in p.rhs],
                          None if p.objective is None else [float(c) for c in p.objective],
                          [[float(c) for c in t] for t in p.tiebreaks]) for p in programs]
    for program, mode in [(p, EXACT) for p in programs] + [(p, FLOAT) for p in twins]:
        assert not program.start
        digest.update(repr(lp_solve(program, mode=mode)).encode())
    assert digest.hexdigest() == (
        "41fe231ce42eb64b46d0b75107815c91a6e452acc820fa42fa4fce8c99679333")


@pytest.mark.parametrize("kernel, mode, one", [("_IntTableau", EXACT, 1),
                                               ("_FloatRevised", FLOAT, 1.0)])
def test_started_rows_cost_nothing_in_phase_1(kernel, mode, one):
    # Row 0 starts on its unit column x2 and row 1 on its artificial, so
    # phase 1 prices row 0 at 0 and row 1 above 0 (the integer kernel's
    # duals carry its positive denominator). Row 1, -x0 - x1 = 1, is
    # infeasible at the start, and its Farkas vector is (0, 1).
    from gptsim import lp
    from gptsim.scalars import field

    p = make_program(rows=[(one, 0 * one, one), (-one, -one, 0 * one)], rhs=(one, one),
                     start=[(0, 2)])
    tab = getattr(lp, kernel)(p, [1, 1], field(mode, DEFAULT_TOLERANCE))
    assert tab.basis == [2, 4]
    assert [tab.dual(i) for i in range(2)] == [0, tab.dual(1)] and tab.dual(1) > 0
    out = lp_solve(p, mode=mode)
    assert out.verdict == INFEASIBLE and out.pivots == 0
    assert out.farkas == (0, 1) and verify_farkas(p, out.farkas)


def test_exact_solves_leave_their_program_unchanged():
    # The kernel updates its rows in place; they are copies, so solving,
    # replaying and solving again sees the same program each time.
    p = make_program(rows=[(F(1, 2), 1, 0, F(-1, 3)), (3, F(2, 5), 1, 0), (1, 1, 1, 1)],
                     rhs=(F(1, 4), 2, 1), objective=(1, 0, 2, F(1, 7)),
                     tiebreaks=[(0, 1, 0, 0)])
    rows, rhs = p.rows, p.rhs
    first = lp_solve(p, mode=EXACT)
    data = p.integer_data
    assert first.verdict == FEASIBLE and first.pivots > 0
    assert lp_solve(p, mode=EXACT) == first
    assert verify_solution(p, first.solution, mode=EXACT)
    assert lp_solve(p, mode=EXACT) == first
    assert p.rows == rows and p.rhs == rhs and p.integer_data is data
    assert data == tuple((tuple(r), d) for r, d in (
        ([6, 12, 0, -4, 3], 12), ([15, 2, 5, 0, 10], 5), ([1, 1, 1, 1, 1], 1)))
    q = make_program(rows=[(1, -1), (-1, 1)], rhs=(1, 1))
    out = lp_solve(q, mode=EXACT)
    assert out.verdict == INFEASIBLE and verify_farkas(q, out.farkas, mode=EXACT)
    assert lp_solve(q, mode=EXACT) == out
    assert q.integer_data == (((1, -1, 1), 1), ((-1, 1, 1), 1))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_final_basis_and_inverse(mode):
    # B^-1 b is the basic part of the solution (zero at a dropped row's
    # artificial), and B^-1 times the basis columns is the identity, a
    # dropped row's basic column being its artificial, the unit column
    # negated where the row's rhs is negative; neither field enters the
    # outcome's repr or equality
    import dataclasses

    programs = oracle_programs(31, 90) + simulation_corpus() if mode == EXACT else float_corpus()
    checked = dropped = 0
    for p in programs:
        out = lp_solve(p, mode)
        assert repr(out) == repr(dataclasses.replace(out, basis=None, inverse=None))
        assert out == dataclasses.replace(out, basis=None, inverse=None)
        if out.verdict == INFEASIBLE:
            assert out.basis is None and out.inverse is None
            continue
        n, m = p.num_vars, len(p.rhs)
        assert len(out.basis) == m
        dropped += any(j >= n for j in out.basis)
        x = list(out.solution) + [0] * m
        columns = [[p.rows[i][j] if j < n else (-1 if p.rhs[i] < 0 else 1) * (j - n == i)
                    for i in range(m)] for j in out.basis]
        if mode == EXACT:
            for (row, den), j in zip(out.inverse, out.basis):
                assert F(sum(a * b for a, b in zip(row, p.rhs)), den) == x[j]
                assert [F(sum(a * c for a, c in zip(row, col)), den) for col in columns] == \
                    [int(k == j) for k in out.basis]
        else:
            assert not out.inverse.flags.writeable
            basic = out.inverse @ np.asarray(p.rhs, dtype=float)
            assert np.abs(basic - np.asarray(x)[list(out.basis)]).max() <= 1e-9
            identity = out.inverse @ np.array(columns, dtype=float).T
            assert np.abs(identity - np.eye(m)).max() <= 1e-8
        checked += 1
    assert checked > 100 and dropped > 10
