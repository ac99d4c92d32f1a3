"""Linear programming with feasibility and infeasibility certificates.

Every program has one form: equality constraints `A x = b` over
nonnegative variables, `x >= 0`, with an optional linear objective to
maximize and optional tie-breaks, maximized in turn. The library asks
nothing else: simulation, postprocessing and compatibility weights and
conic coefficients are nonnegative, and a minimum is the maximum of the
negated objective. A program holds one array, in its field, fixed when it
is built (`LinearProgram.data`): a float program its read-only float64 A
beside b, an exact program the integer matrix that the exact kernel reads,
each row's numerators with its right-hand side over one positive
denominator per row. So a program knows its field without a scan
(`LinearProgram.mode`), and equal inputs give equal programs.
One two-phase simplex driver, `_simplex`, owns the algorithm: phase 1 from
artificial columns (row i starts on column n + i unless the program's
`start` names a unit column e_i for it, which then starts basic at level
b_i and costs nothing in phase 1), the pivot rule, the infeasibility test
and Farkas certificate, drive-out of artificials, phase 2, unbounded
detection and solution and ray recovery. Phase 2 optimizes the
objectives in turn in one tableau: after each, the nonbasic columns with
nonzero reduced cost are fixed at zero, so the next one sees only the
optimal face (a lexicographic optimum). The program's field picks one of
two kernels, which own only their numbers:
`_IntTableau` (exact mode, for rational inputs) keeps rows of Python ints
over per-row denominators, updates a row only at the nonzeros of the pivot
row and scales it only when the pivot does not divide its entry, and
returns `fractions.Fraction` values;
`_FloatRevised` (float mode) is the revised simplex method in numpy,
compared with tolerances: it keeps A and a small inverse of the basis
instead of the tableau, so a pivot on a program of m rows costs O(m^2) plus
one pricing product over A, not a rewrite of m x (n + m) entries.
Each kernel reads a program in the field it was built in, the only one it
is solved and replayed in: the float kernel a float program's arrays as they
are, the exact kernel an exact program's integer matrix as it is
(`make_program` clears rows by `scalars.integer_row`, the package's one
clearing, and `simulation.simulation_program` places the same integers from
its layout). A program in the other field is another program, its twin,
built from its numbers. A float program with an inf or a NaN among its
numbers is rejected with ValueError before any pivot, so a rejected program
is no solve.

Every verdict is checkable after the fact: a feasible outcome carries the
solution vector, an infeasible outcome carries a Farkas vector y with
y'A <= 0 and y'b = 1, an unbounded outcome a vertex and a ray along which
the objective improves. Two predicates are the only place where these tests
are written: `scalars.satisfies` (A x = b, x >= 0) and `scalars.refutes`
(y'A <= 0 < y.b), each on arrays over one scale, with eps 0 on integers
and eps on floats, so that an inf or a NaN fails. `verify_solution` and
`verify_farkas` replay the first two against the original program through
them, in its field, on the data `_cleared` reads: a float program's arrays as
the float kernel reads them; an exact program's integer matrix as the exact
kernel reads it, each row over its positive denominator, with the
certificate cleared to integers, whose signs and zeros are those of the
rationals (as Applegate, Cook, Dash & Espinoza 2007 check exact LP
certificates), and a float in the certificate raises ValueError.
`_simplex` replays every float
FEASIBLE or UNBOUNDED outcome by `satisfies`, on the float array its
solution tuple is made from, and the ray of an UNBOUNDED one against
A r = 0, r >= 0 (`satisfies` with b = 0) and c'r > 0 for the objective c
that grows along it (`_ray_replays`), and raises `CertificateError`
instead of returning one that fails; the dual phase replays its Farkas
vector by `refutes` (below), but phase 1's float Farkas vector is not
replayed, since the absolute eps rejects correct refutations of badly
scaled programs. Code
that builds an answer from a certificate raises `CertificateError` when
the certificate fails that replay, so it never returns it. Every outcome
also carries the final basis and its inverse B^-1, read from the kernel's
final state with no extra elimination (`LPOutcome`), so that a caller can
decide another right-hand side over the same rows without a solve
(`Answers`, below).

A float program without an objective may also start from a given basis,
one column per row with n + i for row i's artificial (`lp_solve`'s
`start`), such as the `LPOutcome.basis` of another solve over the same
rows that a store kept, or that of an infeasible solve over fewer columns,
renumbered for the program that adds columns to it (a round of column
generation, `simulation.is_compatible`). With no cost every basis is dual
feasible, so
`_simplex` runs a dual phase from it instead of phase 1 (Koberstein 2005;
Bixby 2002): `_FloatRevised.restart` inverts B once, and each pivot lets
the row furthest out of feasibility leave, a basic value below -eps or a
basic artificial at a level beyond eps either way (an artificial may only
sit at zero), for the nonbasic structural column whose entry alpha_rj in
that row, signed to move its value toward zero, is most negative below
-eps. When no column qualifies, row r refutes
the program: y = (row r of B^-1) / x_r, which is -(row r of B^-1) / |x_r|
for a value below zero, has y'A <= 0 and y'b = 1 once the flips are
undone. The dual phase makes at most `_DUAL_CAP` pivots per row. A
singular B, the cap, or a Farkas vector that fails `refutes` sends the
program to the cold two phases, the only fallback, with the
pivots spent so far counted; a primal feasible basis goes on to the
drive-out of artificials at level zero and the float replay, as phase 1's
does. Exact mode and programs with an objective take no start.

Pivoting uses the largest-coefficient rule and switches permanently to
Bland's rule once the objective has stalled for more than `_STALL_LIMIT`
pivots, which resolves degeneracy and guarantees termination in exact mode;
ratio ties go to the smallest basic index. In float mode a pivot must also
exceed eps times the largest entry of its column when that is above 1, and
an artificial left in the basis after phase 1 is pivoted out at level zero,
so that a near-singular basis does not turn rounding noise into basic
values. Float mode caps the pivots of a whole solve at 10**4 * (variables +
constraints) and raises SolverLimitError instead of returning a verdict
when the cap is hit.

A question that is one LP over a fixed constraint matrix per key, with b
read from the question (a refinement over one space's rays, a simulation
over one simulation set, a compatibility decision over one layout), first
reads the answers of earlier solves over that matrix through one store
loop, `Answers`, in one registry (`answers`): a scan, a hit replayed by its
kind, a start for a miss, and the solve's answer kept. Each kind keeps only
its b, its translations and replay, and its own program and solve.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isfinite, lcm
from typing import Optional, Sequence

import numpy as np

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    Tolerance,
    field,
    infer_mode,
    integer_row,
    refutes,
    satisfies,
    vdot,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Consecutive non-improving pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 30

# Dual-phase pivots per row before a started solve gives up and runs cold.
_DUAL_CAP = 2

# Deterministic work counters, reported by the CLI in place of wall-clock time.
stats = {"solves": 0, "pivots": 0}


def reset_stats():
    stats["solves"] = 0
    stats["pivots"] = 0


class SolverLimitError(RuntimeError):
    """Float-mode simplex exceeded its pivot budget without terminating."""


class CertificateError(RuntimeError):
    """A certificate failed replay against the instance it was issued for, or
    the solver broke down before it could issue one."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Equality-form program: maximize the objective subject to A x = b and
    x >= 0. Each tie-break is maximized over the optimal face of the
    objectives before it.

    `data` is the program's one stored form, in its field, fixed when the
    program is built; `mode()` reads the field from it. A float program
    holds (A, b): A a read-only float64 array of m rows and num_vars
    columns, b a read-only float64 array of m entries, which the float
    kernel and the float verifiers read as they are. An exact program holds
    (N, den): N a read-only object array of Python ints, m rows of num_vars
    + 1 columns, row i the numerators of row i of A with b_i last over the
    positive int den[i] (a read-only object array of m entries), equal row
    for row to `scalars.integer_row` of the row with its right-hand side;
    the exact kernel and the exact verifiers read it as it is. `rows` and
    `rhs` read it as numbers, made only when read.

    Two programs are equal when their variable count, field, stored arrays,
    objectives and start are, so equal inputs give equal programs and an
    exact program differs from its float twin; a program is not hashable.

    `start` holds (row, column) pairs: the simplex starts each named row on
    that column instead of its artificial. The column must be the unit
    column e_row and the row's right-hand side nonnegative, so that the
    column is basic at level b[row]; a row named twice, an index out of
    range or any other column raises ValueError."""

    num_vars: int
    data: tuple
    objective: Optional[tuple] = None
    tiebreaks: tuple = ()
    start: tuple = ()

    def __post_init__(self):
        A, v = self.data
        if len(A) != len(v) or A.shape[1:] != (self.num_vars + (self.mode() == EXACT),):
            raise ValueError("constraint row width must equal variable count (rows: rhs length)")
        if self.objective is None and self.tiebreaks:
            raise ValueError("tie-breaks need an objective")
        if any(len(c) != self.num_vars for c in self.objectives()):
            raise ValueError("objective width must equal variable count")
        A.flags.writeable = v.flags.writeable = False
        if self.start:
            self._check_start()

    def _check_start(self):
        (A, v), n = self.data, self.num_vars
        named, cols = zip(*self.start)
        if not all(0 <= i < len(v) for i in named) or not all(0 <= j < n for j in cols):
            raise ValueError("start names a row or column out of range")
        if len(set(named)) != len(named):
            raise ValueError("start names a row twice")
        b, ones = self._rhs(), (np.ones(len(v)) if self.mode() == FLOAT else v)
        if any(b[i] < 0 for i in named):
            raise ValueError("a started row needs a nonnegative right-hand side")
        # one nonzero per start column, 1 in its row (den[i] / den[i] in an exact program)
        if not (np.count_nonzero(A.take(cols, axis=1)) == len(cols)
                and all(A[i, j] == ones[i] for i, j in self.start)):
            raise ValueError("a start column must be the unit column of its row")

    def __eq__(self, other):
        same = isinstance(other, LinearProgram) and all(map(np.array_equal, self.data, other.data))
        return same and (self.num_vars, self.mode(), self.objectives(), self.start) == (
            other.num_vars, other.mode(), other.objectives(), other.start)

    @property
    def nonneg(self) -> tuple:
        """(True,) * num_vars: every variable is nonnegative. Kept read-only
        for perfbench's tracer (`perfbench/tracer.py::_tableau_width`), the
        one reader of per-variable flags."""
        return (True,) * self.num_vars

    def objectives(self) -> tuple:
        """The objective and its tie-breaks, in order; empty without one."""
        return () if self.objective is None else (self.objective,) + self.tiebreaks

    def mode(self) -> str:
        """The field of the stored form: FLOAT for a float array, else EXACT."""
        return FLOAT if self.data[0].dtype == float else EXACT

    def _rhs(self) -> list:
        """The right-hand side as stored, whose signs are b's: the floats, or
        the numerators over positive denominators."""
        return (self.data[1] if self.mode() == FLOAT else self.data[0][:, -1]).tolist()

    @cached_property
    def rows(self):
        """The rows of A, for reading: a float program's stored array, an
        exact program's as tuples of Fractions, made on first read."""
        A, v = self.data
        return A if self.mode() == FLOAT else tuple(
            tuple(Fraction(x, d) for x in r[:-1]) for r, d in zip(A.tolist(), v.tolist()))

    @cached_property
    def rhs(self) -> tuple:
        """b as a tuple, for reading: floats, or Fractions made on first read."""
        b = self._rhs()
        return tuple(b if self.mode() == FLOAT else map(Fraction, b, self.data[1]))


def _integer_form(rows, rhs, n: int) -> tuple:
    """(N, den) of an exact program (`LinearProgram.data`): each row with its
    right-hand side cleared to integers by `scalars.integer_row`, the
    package's one clearing; a float raises ValueError."""
    cleared = [integer_row((*r, b)) for r, b in zip(rows, rhs)]
    N = np.array([nums for nums, _ in cleared], dtype=object).reshape(len(cleared), n + 1)
    return N, np.array([den for _, den in cleared], dtype=object)


def make_program(rows, rhs, objective=None, tiebreaks=(), start=()) -> LinearProgram:
    """Convenience constructor.

    A 2-D float64 ndarray of rows is kept as a read-only view, without a
    copy or a scan, beside the right-hand side as a float array. Any other
    rows are read once: one `infer_mode` pass over the rows, the right-hand
    side and the objectives picks the field, and the rows become one float
    array, or are cleared to integers row by row with their right-hand
    sides (`scalars.integer_row`). An array of rows that is not 2-D, a row
    count other than the right-hand side's length and rows of unequal
    length raise ValueError, in either field.
    """
    objective = None if objective is None else tuple(objective)
    tiebreaks = tuple(tuple(c) for c in tiebreaks)
    if isinstance(rows, np.ndarray) and rows.ndim != 2:
        raise ValueError("constraint rows must be a 2-D table")
    if len(rows) != len(rhs):
        raise ValueError("constraint row count must equal right-hand side length")
    if isinstance(rows, np.ndarray) and rows.dtype == float:
        n, data = rows.shape[1], (rows.view(), np.array(rhs, dtype=float))
    else:
        rows, rhs = [tuple(r) for r in rows], tuple(rhs)
        n = len(rows[0]) if rows else len(objective) if objective is not None else 0
        if any(len(r) != n for r in rows):
            raise ValueError("constraint row width must equal variable count")
        if infer_mode(chain(chain.from_iterable(rows), rhs, objective or (), *tiebreaks)) == EXACT:
            data = _integer_form(rows, rhs, n)
        else:
            data = np.array(rows, dtype=float).reshape(len(rows), n), np.array(rhs, dtype=float)
    return LinearProgram(n, data, objective, tiebreaks, tuple((int(i), int(j)) for i, j in start))


@dataclass(frozen=True)
class LPOutcome:
    """Solve result plus the data needed to replay it.

    Every outcome also carries the kernel's final basis, row i's basic
    column in `basis`, and its inverse B^-1 in `inverse`: one row per basic
    column and one column per program row, with the flips undone, so that
    x_B = B^-1 b for the program's own b. In exact mode each row is (integer
    numerators, positive denominator), the tableau's artificial columns as
    they are; in float mode it is a read-only float array. A row the solve
    found redundant and dropped keeps its artificial column n + i as its
    basic column, at level zero for b: its row of B^-1 gives that level for
    another b, which the program's rows leave consistent only at zero. An
    INFEASIBLE outcome's basis is the one it refuted from, phase 1's or the
    dual phase's, with a row out of feasibility (a basic value below zero or
    an artificial above it); a later solve over more columns may start from
    it (`lp_solve`'s `start`). Neither field is part of the outcome's repr or
    equality."""

    verdict: str
    mode: str
    solution: Optional[tuple] = None
    objective_value: Optional[object] = None
    farkas: Optional[tuple] = None
    ray: Optional[tuple] = None
    pivots: int = 0
    basis: Optional[tuple] = dataclasses.field(default=None, repr=False, compare=False)
    inverse: Optional[object] = dataclasses.field(default=None, repr=False, compare=False)


def lp_solve(program: LinearProgram, tol: Tolerance = DEFAULT_TOLERANCE,
             start: Optional[Sequence] = None) -> LPOutcome:
    """Solve a LinearProgram in its own field (`LinearProgram.mode`).

    `start` is a basis to start from, as `LPOutcome.basis` holds one, of
    any verdict: row i's basic column, structural or n + i for row i's
    artificial. Only a float program without an objective takes one (the
    dual phase of the module docstring); any other, or a start of another
    length or naming another column, raises ValueError before any solve,
    as does an inf or a NaN in a float program's rows, right-hand side or
    objectives."""
    F = field(program.mode(), tol)
    if F.mode == FLOAT and not _finite(program):
        raise ValueError("a float program needs finite numbers")
    if start is not None:
        if F.mode == EXACT or program.objective is not None:
            raise ValueError("a start needs a float program without an objective")
        n = program.num_vars
        if len(start) != len(program.data[1]) or not all(
                0 <= j < n or j == n + i for i, j in enumerate(start)):
            raise ValueError("a start names a structural column or its row's artificial per row")
    out = _simplex(program, _IntTableau if F.mode == EXACT else _FloatRevised, F, start)
    stats["pivots"] += out.pivots
    return out


def _finite(program: LinearProgram) -> bool:
    """Every number of a float program is finite."""
    return all(np.isfinite(a).all() for a in program.data) and all(
        map(isfinite, chain(*program.objectives())))


def verify_solution(program: LinearProgram, solution: Sequence,
                    tol: Tolerance = DEFAULT_TOLERANCE, mode: Optional[str] = None) -> bool:
    """Replay a feasible certificate against the program in its field: A x =
    b and x >= 0 (`scalars.satisfies`), exactly in exact mode, where a float
    raises ValueError, and within eps in each row and sign in float mode,
    where an inf or a NaN fails. `mode`, if given, must be the program's
    (`LinearProgram.mode`), or ValueError is raised."""
    A, b, x, eps = _cleared(program, solution, tol, mode, False)
    return len(x) == program.num_vars and satisfies(A, x, b, eps)


def verify_farkas(program: LinearProgram, farkas: Sequence,
                  tol: Tolerance = DEFAULT_TOLERANCE, mode: Optional[str] = None) -> bool:
    """Replay an infeasibility certificate against the program in its field:
    y'A <= 0 and y'b > 0 (`scalars.refutes`), exactly in exact mode, where a
    float raises ValueError, and within eps in each sign in float mode, where
    an inf or a NaN in y fails. `mode`, if given, must be the program's
    (`LinearProgram.mode`), or ValueError is raised."""
    A, b, y, eps = _cleared(program, farkas, tol, mode, True)
    return len(y) == len(b) and refutes(y, A, b, eps)


def _cleared(program: LinearProgram, certificate: Sequence, tol: Tolerance,
             mode: Optional[str], farkas: bool) -> tuple:
    """(A, b, certificate, eps) as the pair `scalars.satisfies` and
    `scalars.refutes` reads them, in the program's field; a `mode` other
    than that field raises ValueError. A float program: its arrays, as the
    float kernel reads them, and the certificate as a float array. An exact
    program: the integer rows N and right-hand side n_b of its stored form,
    which the exact kernel reads, row i over den[i] > 0, and the certificate
    cleared to integers (`scalars.integer_row`), with eps 0; a float raises
    ValueError.
    Every den[i] is positive, so for a solution x = X / D, A x = b holds
    exactly when N X = n_b D does, row by row; for a Farkas vector y of one
    entry per row, y'A <= 0 < y.b holds exactly when z'N <= 0 < z.n_b
    does for z_i = y_i / den_i, cleared to integers (a y of another length
    is returned as it is, for the caller's length test)."""
    F = field(program.mode(), tol)
    if mode not in (None, F.mode):
        raise ValueError(f"a {F.mode} program replays in its own field, not in {mode} mode")
    if F.mode == FLOAT:
        return (*program.data, np.asarray(certificate, dtype=float), F.eps)
    (N, den), n = program.data, program.num_vars
    X, D = integer_row(certificate)
    if farkas and len(X) == len(den):  # z_i = y_i / den_i, cleared; b needs no scale
        X, D = integer_row([Fraction(x, d) for x, d in zip(X, den)])[0], 1
    return N[:, :n], N[:, n] * D, np.array(X, dtype=object), F.eps


# ---------------------------------------------------------------------------
# The driver. Rows with a negative right-hand side are negated (flips), so
# every starting basic value is nonnegative. Both kernels minimize: phase 1
# the artificial sum, phase 2 the negated objective.
# ---------------------------------------------------------------------------

def _simplex(program: LinearProgram, kernel, F, start=None) -> LPOutcome:
    """Two-phase simplex on a tableau of class `kernel` in the arithmetic of
    F; given a `start` (float kernel only), the dual phase from it first."""
    m, n = len(program.data[1]), program.num_vars
    flips = [-1 if b < 0 else 1 for b in program._rhs()]
    tab = kernel(program, flips, F)
    stats["solves"] += 1  # only now: a program the kernel rejects is no solve
    cap = None if kernel.CAP is None else kernel.CAP * (n + m)

    pivots, row = 0, None
    if start is not None and tab.restart(start):
        pivots, row = _dual(tab, n, _DUAL_CAP * m)
        if row is not None and row >= 0:
            y = tab.row_farkas(row, flips)
            if refutes(y, *program.data, F.eps):
                return LPOutcome(INFEASIBLE, F.mode, farkas=tuple(y.tolist()), pivots=pivots,
                                 basis=tuple(tab.basis), inverse=tab.basis_inverse(flips))
        if row != -1:  # the cap, or a refutation that fails replay: solve cold
            tab = kernel(program, flips, F)
    basis = tab.basis
    if row != -1:  # phase 1
        pivots, col = _optimize(tab, basis, n, cap, pivots)
        if col >= 0:  # the artificial sum is bounded below by 0: a numerical breakdown
            raise CertificateError("phase 1 cannot be unbounded")
        if tab.artificial_sum() > F.eps:
            farkas = tab.farkas(program, flips)
            if farkas is None:
                raise CertificateError("Farkas scale must be positive")
            return LPOutcome(INFEASIBLE, F.mode, farkas=farkas, pivots=pivots,
                             basis=tuple(basis), inverse=tab.basis_inverse(flips))

    # Pivot zero-level artificials out of the basis; a row with no
    # structural coefficient left is redundant and removed.
    dead = []
    for i, j in enumerate(basis):
        if j >= n:
            col = tab.structural(i, n)
            if col < 0:
                dead.append(i)
            else:
                tab.drive_out(i, col)
                basis[i] = col
    tab.drop(dead)
    basis[:] = [j for i, j in enumerate(basis) if i not in dead]

    # Phase 2. Fixed columns are zeroed and priced at zero: they never enter.
    fixed, ray = set(), None
    for k, objective in enumerate(program.objectives()):
        if k:
            fixed.update(tab.fix(n, basis))
            if len(fixed) + len(basis) == n:
                break
        tab.price([0 if col in fixed else -c for col, c in enumerate(objective)], basis)
        total, col = _optimize(tab, basis, n, cap, pivots)
        if col >= 0:  # the count leaves out this objective's pivots
            # F.zero + v turns a float -0.0 into 0.0
            basic = {j: -tab.value(i, col) for i, j in enumerate(basis)}
            ray = tuple(F.one if j == col else F.zero + basic.get(j, F.zero) for j in range(n))
            break
        pivots = total
    if F.mode == FLOAT:
        # The replay reads the array that the solution is made from, so it
        # tests the very floats returned, without a round trip through a tuple.
        x = np.zeros(n)
        x[basis] = [F.zero + tab.value(i) for i in range(len(basis))]
        sol = tuple(x.tolist())
        A, b = program.data
        if not satisfies(A, x, b, F.eps):
            raise CertificateError("float solution fails replay against its program")
    else:
        # Exact values need no -0.0 fix-up: each is one Fraction of the kernel.
        x = [F.zero] * n
        for i, col in enumerate(basis):
            x[col] = tab.value(i)
        sol = tuple(x)
    if F.mode == FLOAT and ray and not _ray_replays(program, ray, objective, F.eps):
        raise CertificateError("float unbounded ray fails replay against its program")
    value = None if ray or program.objective is None else tab.dot(program.objective, sol)
    for i in dead:  # in increasing order, so each lands at its own row
        basis.insert(i, n + i)
    return LPOutcome(UNBOUNDED if ray else FEASIBLE, F.mode, solution=sol,
                     objective_value=value, ray=ray, pivots=pivots,
                     basis=tuple(basis), inverse=tab.basis_inverse(flips))


def _initial_basis(program: LinearProgram) -> list:
    """Row i's starting basic column: the one `program.start` names for it,
    or its artificial n + i."""
    n = program.num_vars
    basis = list(range(n, n + len(program.data[1])))
    for i, j in program.start:
        basis[i] = j
    return basis


def _ray_replays(program: LinearProgram, ray, objective, eps) -> bool:
    """A r = 0 and r >= 0 within eps in each row and sign (`scalars.satisfies`
    with b = 0), and c'r > eps for the objective c that grows along r; an
    inf or a NaN fails."""
    r = np.asarray(ray, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return satisfies(program.data[0], r, 0.0, eps) and bool(
            np.asarray(objective, dtype=float) @ r > eps)


def _dual(tab, n, cap):
    """The dual phase on the kernel's restarted basis, for a program
    without an objective: pivot the row furthest out of feasibility out
    until none is. Returns the pivots with -1 once the basis is primal
    feasible, with the row that no entering column repairs, or with None
    when `cap` pivots did not suffice."""
    basis, pivots = tab.basis, 0
    while True:
        row = tab.infeasible(n)
        if row < 0:
            return pivots, -1
        col = tab.repair(row, n)
        if col < 0:
            return pivots, row
        if pivots >= cap:
            return pivots, None
        tab.pivot(row, col)
        basis[row] = col
        pivots += 1


def _optimize(tab, basis, allowed, cap, pivots):
    """Pivot to optimality on the reduced-cost row of `tab`.

    Counts on from the solve's `pivots` so far and returns the count with -1,
    or with the entering column of an unbounded direction. Entering columns
    are restricted to indices < allowed so artificial columns never re-enter.
    A count above `cap` raises SolverLimitError (no cap when it is None).
    """
    stall, bland = 0, False
    prev = tab.objective()
    while True:
        col = tab.entering(allowed, bland)
        if col < 0:
            return pivots, -1
        row = tab.leaving(col, basis)
        if row < 0:
            return pivots, col
        tab.pivot(row, col)
        basis[row] = col
        pivots += 1
        if cap is not None and pivots > cap:
            raise SolverLimitError(f"simplex exceeded {cap} pivots; reporting nontermination")
        obj = tab.objective()
        if tab.same(obj, prev):
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        prev = obj


# ---------------------------------------------------------------------------
# Exact kernel: dense tableau of Python ints.
#
# Row i of T holds integer numerators over the positive denominator D[i]; the
# last row is the reduced-cost row. The rows start as lists copied from the
# program's stored form, since the kernel updates its rows in place. The
# pivot rule compares numerators only within the reduced-cost row, which
# share one denominator, and the ratio test compares T[i][last] / T[i][col]
# by cross products (the denominator of row i cancels), so no choice depends
# on a row's scale. A pivot on P over p, or a cost set-up, subtracts f / p
# times P from a row (`_eliminate`), and only at the nonzeros of P: when p
# divides f, in place over the row's own denominator; otherwise the row and
# its denominator are first scaled by p / gcd(p, f). A row is divided by the
# gcd of its entries and denominator only once the denominator has outgrown
# a machine word, which bounds the growth of its integers. Fractions, which
# are normalized, are built only for the returned values.
# ---------------------------------------------------------------------------

def _reduced(row, den):
    if den < 1 << 64:
        return row, den
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def _eliminate(row, den, f, P, p, nz):
    """row / den - (f / den) * (P / p) as (numerators, denominator), for a
    row P over p > 0 whose nonzero columns are nz. When p divides f, row is
    updated in place and den is kept; otherwise the row is scaled by
    L = p / gcd(p, f) and its denominator becomes den * L."""
    g = gcd(p, f)
    if g == p:
        q = f // p
        for j in nz:
            row[j] -= q * P[j]
        return row, den
    scale, q = p // g, f // g
    row = [scale * x for x in row]
    for j in nz:
        row[j] -= q * P[j]
    return _reduced(row, den * scale)


class _IntTableau:
    CAP = None  # Bland's rule terminates in exact arithmetic

    def __init__(self, program, flips, F):
        m, n = len(flips), program.num_vars
        N, den = program.data
        T = [r if flip > 0 else [-x for x in r] for r, flip in zip(N.tolist(), flips)]
        D = den.tolist()
        basis = _initial_basis(program)
        # Phase 1 reduced costs for minimizing the sum of the artificials that
        # start basic: minus the sum of their rows (f = den subtracts a row
        # whole), zero on the artificial columns. A started row's unit column
        # holds D[i] / D[i] = 1 and is zero in every other row.
        red, red_den = [0] * (n + 1), 1
        for row, den, j in zip(T, D, basis):
            if j >= n:
                red, red_den = _eliminate(red, red_den, red_den, row, den,
                                          [k for k, a in enumerate(row) if a])
        # Row i has its artificial column n + i, which holds 1 = D[i] / D[i].
        for i, row in enumerate(T):
            row[n:n] = [0] * m
            row[n + i] = D[i]
        red[n:n] = [0] * m
        self.n, self.basis, self.cost = n, basis, [j >= n for j in basis]
        self.T, self.D, self.dropped = T + [red], D + [red_den], []

    def entering(self, allowed, bland):
        red = self.T[-1][:allowed]
        if bland:
            return next((j for j, c in enumerate(red) if c < 0), -1)
        low = min(red, default=0)
        return red.index(low) if low < 0 else -1

    def leaving(self, col, basis):
        T = self.T
        row = -1
        for i in range(len(basis)):
            a = T[i][col]
            if a > 0:
                b = T[i][-1]
                if row < 0:
                    row, best_a, best_b = i, a, b
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row, best_a, best_b = i, a, b
        return row

    def pivot(self, row, col):
        """Scale T[row] so that its col entry is 1 and clear col from every other row."""
        T, D = self.T, self.D
        P, p = T[row], T[row][col]
        if p < 0:
            P, p = [-x for x in P], -p
        P, p = _reduced(P, p)
        T[row], D[row] = P, p
        nz = [j for j, a in enumerate(P) if a]
        for i, Ti in enumerate(T):
            f = Ti[col]
            if f and i != row:
                T[i], D[i] = _eliminate(Ti, D[i], f, P, p, nz)

    def objective(self):
        return self.T[-1][-1], self.D[-1]

    @staticmethod
    def same(a, b):
        return a[0] * b[1] == b[0] * a[1]

    def artificial_sum(self):
        return Fraction(-self.T[-1][-1], self.D[-1])

    def dual(self, i):
        """Phase-1 dual value of row i times the reduced-cost denominator
        den, an integer: cost_i * den - r, with r the numerator of the
        reduced cost of its artificial column n + i, whose cost cost_i is 1
        if the row started on it and 0 if it started on a structural column."""
        return self.cost[i] * self.D[-1] - self.T[-1][self.n + i]

    def farkas(self, program, flips):
        """y / y'|b| with the flips undone, for the duals y = v / den of the
        flipped rows, whose right-hand sides are |b|; None unless y'|b| > 0.
        With b_j = B_j / D_j read from `data` and L the lcm of the
        D_j that count, y'|b| = N / (L den) for the integer N = sum_j v_j
        |B_j| L / D_j, so entry i is the one Fraction v_i L / +-N."""
        v = [self.dual(i) for i in range(len(flips))]
        terms = [(x * abs(r[-1]), d) for x, r, d in zip(v, *program.data) if x and r[-1]]
        L = lcm(*(den for _, den in terms))
        N = sum(t * (L // den) for t, den in terms)
        if not N > 0:
            return None
        return tuple(Fraction(x * L, N if flip > 0 else -N) for x, flip in zip(v, flips))

    def structural(self, i, n):
        return next((j for j in range(n) if self.T[i][j]), -1)

    drive_out = pivot  # the artificial's level is exactly zero

    def drop(self, rows):
        """Remove rows whose artificial stays basic, keeping each one's
        artificial columns, its row of B^-1, for `inverse`."""
        n, m = self.n, len(self.T) - 1
        self.dropped = [(i, self.T[i][n:n + m], self.D[i]) for i in rows]
        for i in reversed(rows):
            del self.T[i], self.D[i]

    def fix(self, allowed, basis):
        """Zero the columns < allowed with nonzero reduced cost; returns them."""
        cols = [j for j in range(allowed) if self.T[-1][j]]
        for row in self.T:
            for j in cols:
                row[j] = 0
        return cols

    def price(self, values, basis):
        """Replace the reduced-cost row by that of the cost `values`: clear
        each basic column j from it with its row i, where T[i][j] == D[i]."""
        T, D = self.T, self.D
        cost, red_den = integer_row(values)
        red = cost + [0] * (len(T[-1]) - len(cost))
        for i, j in enumerate(basis):
            if red[j]:
                red, red_den = _eliminate(red, red_den, red[j], T[i], D[i],
                                          [k for k, a in enumerate(T[i]) if a])
        T[-1], D[-1] = red, red_den

    def value(self, i, col=-1):  # by default the basic value of row i
        return Fraction(self.T[i][col], self.D[i])

    def basis_inverse(self, flips):
        """B^-1 as (numerators, denominator) per program row: the row's
        artificial columns over its denominator, negated in the columns of
        flipped rows; a dropped row's as `drop` read them."""
        n, m = self.n, len(flips)
        rows = [row[n:n + m] for row in self.T[:-1]]
        dens = self.D[:-1]
        for i, row, den in self.dropped:
            rows.insert(i, row)
            dens.insert(i, den)
        if -1 in flips:
            negated = [j for j, flip in enumerate(flips) if flip < 0]
            for inv in rows:
                for j in negated:
                    inv[j] = -inv[j]
        return tuple(zip(map(tuple, rows), dens))

    dot = staticmethod(vdot)


# ---------------------------------------------------------------------------
# Float kernel: the revised simplex method (Dantzig & Orchard-Hays 1954).
# Instead of the whole tableau it keeps the flipped constraint matrix with
# the cost as its last row, C = [A ; c] (structural columns only: the
# artificial column of row i is the unit column e_i), and the inverse of the
# extended basis [B 0 ; c_B 1] beside the basic values,
#     R = [B^-1  0  x_B ; -y  1  -z],  y = c_B B^-1,  z = c_B x_B,
# an (m+1) x (m+2) array. The tableau column of j is R[:, :-1] @ C[:, j], its
# last entry the reduced cost c_j - y A_j, and the reduced-cost row is
# R[-1, :-1] @ C, so pricing is one vector-matrix product, the entering
# column one matrix-vector product and a pivot one rank-1 update of R.
# Phase 1 starts each row on its artificial or on the unit column the
# program names for it, so B is the identity: R is the identity beside |b|,
# with -y = -1 on a row started on its artificial and 0 on a started row.
# A dual phase restarts from a given basis instead, with no cost: R is B^-1
# beside B^-1 |b| over the last row (0 1 0).
# Entries within eps of zero count as zero.
# ---------------------------------------------------------------------------

class _FloatRevised:
    CAP = 10_000  # pivots per variable and constraint before SolverLimitError

    def __init__(self, program, flips, F):
        m, n = len(flips), program.num_vars
        self.eps = F.eps
        A, b = program.data
        C = np.zeros((m + 1, n))  # phase 1 prices structural columns at zero
        C[:m] = A
        negated = [i for i, flip in enumerate(flips) if flip < 0]
        if negated:
            C[negated] *= -1.0
        self.basis = _initial_basis(program)
        R = np.eye(m + 1, m + 2)
        R[:m, -1] = np.abs(b)
        R[-1, :m] = -1.0
        art = R[:m, -1]  # the basic values of the rows started on artificials
        if program.start:
            started = [i for i, _ in program.start]
            R[-1, started] = 0.0
            art = np.delete(art, started)
        R[-1, -1] = -art.sum()
        self.C, self.dropped = C, ([], None)
        self._inverse(R)
        self.red, self.col, self.d = None, -1, None

    def _inverse(self, R):
        """Install R with its views: the inverse, the basic values and -y."""
        self.R, self.Q, self.x, self.ybar = R, R[:, :-1], R[:-1, -1], R[-1, :-1]

    def restart(self, start) -> bool:
        """Start from the basis `start` (row i's basic column, n + i for the
        artificial e_i) with no cost, B inverted once; False, with nothing
        changed, when B is singular."""
        m, n = len(self.basis), self.C.shape[1]
        cols = np.asarray(start, dtype=int)
        ours = cols < n
        B = np.eye(m)
        B[:, ours] = self.C[:m, cols[ours]]
        try:
            inverse = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        R = np.zeros((m + 1, m + 2))
        R[:m, :m] = inverse
        R[:m, -1] = inverse @ self.x  # x is still |b|, the slack start's values
        R[m, m] = 1.0
        self._inverse(R)
        self.basis, self.col = list(start), -1
        return True

    def infeasible(self, n):
        """The row furthest out of feasibility beyond eps, -1 if none: a
        basic value below -eps, or a basic artificial's level beyond eps
        either way."""
        x = self.x
        gap = np.where(np.asarray(self.basis) < n, -x, np.abs(x))
        rows = np.flatnonzero(gap > self.eps)
        return int(rows[gap[rows].argmax()]) if rows.size else -1

    def repair(self, row, n):
        """The nonbasic structural column whose entry in `row` of B^-1 A is
        most negative below -eps, the row negated when its value is above
        zero (an artificial's), so that the column moves the value toward
        zero as it enters; -1 if none."""
        alpha = self.Q[row] @ self.C
        if self.x[row] > 0:
            alpha = -alpha
        alpha[[j for j in self.basis if j < n]] = 0.0
        col = int(alpha.argmin()) if n else -1
        return -1 if col < 0 or alpha[col] >= -self.eps else col

    def row_farkas(self, row, flips):
        """(row of B^-1) / x_row with the flips undone, a float array: a
        Farkas vector when `repair` finds no column for the row."""
        return self.R[row, :len(flips)] / self.x[row] * flips

    def column(self, col):
        """The tableau column of `col`, reduced cost last; kept until R or C
        changes."""
        if col != self.col:
            self.col, self.d = col, self.Q @ self.C[:, col]
        return self.d

    def entering(self, allowed, bland):
        self.red = self.ybar @ self.C
        cand = self.red[:allowed]
        if bland:
            hits = np.nonzero(cand < -self.eps)[0]
            return int(hits[0]) if hits.size else -1
        col = int(cand.argmin()) if allowed else -1
        return -1 if col < 0 or cand[col] >= -self.eps else col

    def leaving(self, col, basis):
        """The row of least ratio; ties go to the smallest basic index. A
        pivot must exceed eps times the column's largest entry when that is
        above 1, so that an ill-conditioned basis does not pivot on noise."""
        eps = self.eps
        d = self.column(col)[:-1]
        rows = (d > eps).nonzero()[0]
        if rows.size < 2:
            return int(rows[0]) if rows.size else -1
        piv = d[rows]
        top = piv[piv.argmax()]
        if top > 1.0:
            keep = piv > eps * top
            rows, piv = rows[keep], piv[keep]
        ratios = self.x[rows] / piv
        best = float(ratios[ratios.argmin()])
        ties = rows[ratios <= best + eps * (1 + abs(best))]
        if ties.size == 1:
            return int(ties[0])
        return min(ties.tolist(), key=basis.__getitem__)

    def pivot(self, row, col):
        R, d = self.R, self.column(col)
        prow = R[row]
        prow /= d[row]
        d[row] = 0.0
        R -= d[:, None] * prow
        self.col = -1

    def objective(self):
        return self.R[-1, -1]

    def same(self, a, b):
        return abs(a - b) <= self.eps

    def artificial_sum(self):
        return -self.R[-1, -1]

    def dual(self, i):
        """Phase-1 dual value of row i."""
        return float(-self.R[-1, i])

    def farkas(self, program, flips):
        """y / y'|b| with the flips undone, for the duals y of the flipped
        rows, whose right-hand sides are |b|; None unless y'|b| > 0."""
        y = [self.dual(i) for i in range(len(flips))]
        scale = self.dot(y, np.abs(program.data[1]))
        if not scale > 0:
            return None
        return tuple(v / scale if flip > 0 else v / -scale for v, flip in zip(y, flips))

    def structural(self, i, n):
        hits = np.nonzero(np.abs(self.Q[i] @ self.C[:, :n]) > self.eps)[0]
        return int(hits[0]) if hits.size else -1

    def drive_out(self, i, col):
        """Pivot the artificial of row i out for `col`. Phase 1 left it at a
        level within eps of zero, which a pivot on a small entry would spread
        over every basic value as level / entry; it leaves at level zero."""
        self.R[i, -1] = 0.0
        self.pivot(i, col)

    def drop(self, rows):
        """Remove rows whose artificial stays basic. Column i of B^-1 is then
        the unit vector e_i, so deleting row and column i of R leaves the
        inverse of the remaining basis; row i of B^-1 is kept for `inverse`."""
        self.dropped = (rows, self.R[rows, :len(self.R) - 1])  # a copy: rows is a list
        if rows:
            keep = [i for i in range(len(self.R)) if i not in rows]  # and the last row
            self._inverse(self.R[keep][:, keep + [-1]])
            self.C = self.C[keep]
            self.col = -1

    def fix(self, allowed, basis):
        """Zero the nonbasic columns < allowed whose reduced cost, as the
        last `entering` priced it, is above eps."""
        cols = [int(j) for j in np.nonzero(self.red[:allowed] > self.eps)[0] if j not in basis]
        self.C[:, cols] = 0.0
        self.col = -1
        return cols

    def price(self, values, basis):
        """Replace the cost by `values` and the duals by c_B B^-1."""
        C, R = self.C, self.R
        C[-1] = [float(v) for v in values]
        R[-1] = -(C[-1, basis] @ R[:-1])
        R[-1, -2] = 1.0
        self.col = -1

    def value(self, i, col=-1):  # by default the basic value of row i
        return float(self.R[i, -1] if col < 0 else self.column(col)[i])

    def basis_inverse(self, flips):
        """B^-1, one row per program row, the flips undone: R's inverse in
        the rows and columns of the rows kept, and a dropped row's row as
        `drop` read it. Column i of a dropped row is zero in every other row."""
        m, (dead, rows) = len(flips), self.dropped
        if dead:
            inv = np.zeros((m, m))
            kept = np.delete(np.arange(m), dead)
            inv[np.ix_(kept, kept)] = self.R[:len(kept), :len(kept)]
            inv[dead] = rows
        else:
            inv = self.R[:m, :m].copy()
        if -1 in flips:
            inv *= np.asarray(flips, dtype=float)
        inv.flags.writeable = False
        return inv

    @staticmethod
    def dot(a, b):
        return float(np.dot(np.array(a, dtype=float), np.array(b, dtype=float)))


# The scan's context in exact mode: object arithmetic raises no float warning.
_OBJECT_ARITHMETIC = contextlib.nullcontext()


class Answers:
    """Answers of earlier solves of programs that share one constraint
    matrix A and differ in b, so that a new b is decided without a solve:
    the store loop of every kind of question, one store per space's rays
    (`spaces.StateSpace.refine`), per simulation set
    (`simulation.is_simulable`) and per layout (`simulation.is_compatible`).

    A basis B with B^-1 b >= 0 is a feasible vertex for b whichever b it was
    found for, and optimal when its reduced costs do not depend on b (no
    objective, or a nondegenerate lexicographic optimum); a Farkas vector y
    with y'A <= 0 refutes every b with y.b > 0 (Gal, "Postoptimal Analyses,
    Parametric Programming, and Related Topics", 1995). Refutations are
    stacked as y on the entries of b, with a bound that y.b of every
    feasible b stays below (0 for a Farkas vector: `limits` stays None);
    bases as B^-1 in the columns `reached` (the program's rows that b
    gives), read on the entries `reads` of b, with a mask of the rows whose
    basic column is structural, since a row the solve dropped (`LPOutcome`)
    needs B^-1 b within eps of zero. Exact B^-1 is kept as integers, each
    row over its denominator (`dens`). A stack grows by one row per answer
    kept, concatenated onto a copy of the stack (`_push`): nothing is
    allocated ahead, since most exact simulation-set stores keep one answer,
    and a store holds at most `cap` answers of each kind.

    A kind subclasses it with its translations and leaves the loop here.
    `decide` scans the store once for one b or many: for each b, the first
    stored refutation with y.b above its bound, else the first stored basis
    feasible for b. The kind turns the payload of a refutation into its
    answer (`refuted`), and the hits of bases into theirs (`solved`, every
    hit of one scan at once), and gives None for an answer that fails its
    replay: that b is a miss with no start. Any other miss starts from the
    stored basis with the fewest rows out of feasibility, the first of
    ties, in float mode (`lp_solve`'s `start`, the dual phase); an exact
    store gives no start, since rebuilding the integer tableau from B^-1
    costs more than the few pivots a start saves. A scan takes the first
    answer in storing order, so the hash seed changes nothing.

    `keep_refutation` and `keep_basis` stack the answer of a solve when the
    solve returns, so each miss pays for its own store step, and only while
    the store holds fewer than `cap` answers of that kind: only then does
    the kind translate the answer into what the store keeps
    (`kept_refutation`, `kept_basis`, None for one it does not keep), so a
    full store translates nothing. A basis whose key (None: no key) is
    stored already is not stacked again. `Answers` itself, with no kind,
    keeps answers given in the form it stacks them.

    Verdicts never depend on earlier calls: a kind tests a stored answer as
    it tests an LP answer of its mode. Certificates may, and replay as well
    as the LP's own. (A float b within eps of the boundary is the LP's
    exception too: phase 1 tests a sum of residuals against eps, the store
    each row.) An answer from the store is no LP solve: `stats` does not
    move."""

    reached = reads = slice(None)

    def __init__(self, F, cap: int):
        self.F, self.cap = F, cap
        self.bases, self.refutations = [], []  # what turns each answer into a certificate
        self.keys = set()  # the stored bases' keys
        self.refuting = self.limits = self.inverses = self.structural = self.dens = None

    def decide(self, bs: Sequence, Ls: Sequence, *question) -> list:
        """(answer, start) for each b in bs, an array in the field's dtype
        cleared over its scale in Ls, with `question` passed on to the kind's
        translations: (answer, None) for a hit, (None, the payload of the
        basis to start from, or None) for a miss; an empty store misses every
        b at once. `solved` gets each hit as (b's index, payload, B^-1 b as
        the field's numbers). Each b is scanned alone, by `refuting @ b` and
        `inverses @ b`, which run numpy's matrix-vector kernel for each stored
        y and B^-1, so every float is the one that b gets whatever else the
        call asks (one operand of every b would go to the matrix-matrix
        kernel, which rounds otherwise). An inf or a NaN gives no warning."""
        F, found, refuted, solved = self.F, [(None, None)] * len(bs), [], []
        if not (self.refutations or self.bases):
            return found
        with np.errstate(over="ignore", invalid="ignore") if F.mode == FLOAT else _OBJECT_ARITHMETIC:
            for i, (b, L) in enumerate(zip(bs, Ls)):
                if self.refuting is not None:
                    limits = F.eps if self.limits is None else self.limits * L
                    hits = np.flatnonzero(self.refuting @ b > limits)
                    if hits.size:
                        refuted.append((i, self.refutations[hits[0]]))
                        continue
                if self.inverses is None:
                    continue
                X = self.inverses @ b[self.reads]
                # a row is out of feasibility below -eps, or above eps where its
                # basic column is not structural
                failing = (~((X >= -F.eps) & ((X <= F.eps) | self.structural))).sum(axis=-1)
                k = int(failing.argmin())
                if failing[k]:
                    found[i] = None, (self.bases[k] if F.mode == FLOAT else None)
                else:
                    solved.append((i, self.bases[k], self._levels(X[k], k, L)))
        for i, payload in refuted:
            found[i] = self.refuted(payload, *question), None
        if solved:
            for (i, _, _), answer in zip(solved, self.solved(solved, *question)):
                found[i] = answer, None
        return found

    def _levels(self, x, k, L) -> list:
        """B^-1 b of stored basis k, x, as the field's numbers: exact rows
        over their denominators times L."""
        if self.F.mode == FLOAT:  # + 0.0 turns a -0.0 into 0.0
            return (x + self.F.zero).tolist()
        return list(map(Fraction, x.tolist(), (self.dens[k] * L).tolist()))

    def keep_refutation(self, *answer):
        """Stack a refutation as the kind keeps it, (payload, y, bound or
        None), if there is room: bounds for all refutations or for none."""
        kept = len(self.refutations) < self.cap and self.kept_refutation(*answer)
        if kept:
            payload, y, bound = kept
            self.refutations.append(payload)
            self._push("refuting", y)
            if bound is not None:
                self._push("limits", bound + self.F.eps)

    def keep_basis(self, *answer):
        """Stack a basis as the kind keeps it, (payload, key, B^-1 as
        `LPOutcome.inverse` holds it (a float array, or exact rows of
        (numerators, denominator)), structural mask), if there is room and
        its key is new."""
        kept = len(self.bases) < self.cap and self.kept_basis(*answer)
        if not kept or kept[1] is not None and kept[1] in self.keys:
            return
        payload, key, inverse, structural = kept
        self.keys.add(key)
        if self.F.mode == FLOAT:
            inverse = np.asarray(inverse, dtype=float)[:, self.reached]
        else:
            self._push("dens", [den for _, den in inverse], object)
            inverse = [row[self.reached] for row, _ in inverse]
        self.bases.append(payload)
        self._push("inverses", inverse, self.F.dtype)
        self._push("structural", structural)

    @staticmethod
    def kept_refutation(payload, y, bound=None):
        """(payload, y, bound): a refutation given as the store keeps it."""
        return payload, y, bound

    @staticmethod
    def kept_basis(payload, inverse, structural):
        """(payload, no key, B^-1, structural mask): a basis given as the
        store keeps it."""
        return payload, None, inverse, structural

    def _push(self, name: str, item, dtype=None):
        """Append item to the stack `name` (None while empty) as its last row."""
        item, stack = np.asarray(item, dtype=dtype)[None], getattr(self, name)
        setattr(self, name, item if stack is None else np.concatenate((stack, item)))


_KEYS = 64
_ANSWERS = {}  # key -> Answers, the least recently used first


def answers(key, make) -> Answers:
    """The `Answers` of `key` (made by `make()` if new), now the most
    recently used. A caller stacks each answer there when its solve returns.
    Every caller's keys, each starting with the caller's kind, share at most
    `_KEYS` places, the least recently used leaving first;
    `spaces.dual_cone_rays.cache_clear()` empties them."""
    store = _ANSWERS.pop(key, None)
    if store is None:
        store = make()
        if len(_ANSWERS) >= _KEYS:
            del _ANSWERS[next(iter(_ANSWERS))]
    _ANSWERS[key] = store
    return store


answers.cache_clear = _ANSWERS.clear
