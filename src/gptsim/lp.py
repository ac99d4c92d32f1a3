"""Linear programming with feasibility and infeasibility certificates.

Every program has one form: equality constraints `A x = b` over
nonnegative variables, `x >= 0`, with an optional linear objective to
maximize and optional tie-breaks, maximized in turn. The library asks
nothing else: simulation, postprocessing and compatibility weights and
conic coefficients are nonnegative, and a minimum is the maximum of the
negated objective. The rows of A are a tuple of tuples or, for float data
only, a read-only 2-D float ndarray; a program holding an array is not
hashable. Either way the float kernel and the float verifiers read the
program as float arrays (`LinearProgram.float_data`), converted at most
once per program.
One two-phase simplex driver, `_simplex`, owns the algorithm: phase 1 from
artificial columns (row i starts on column n + i unless the program's
`start` names a unit column e_i for it, which then starts basic at level
b_i and costs nothing in phase 1), the pivot rule, the infeasibility test
and Farkas certificate, drive-out of artificials, phase 2, unbounded
detection and solution and ray recovery. Phase 2 optimizes the
objectives in turn in one tableau: after each, the nonbasic columns with
nonzero reduced cost are fixed at zero, so the next one sees only the
optimal face (a lexicographic optimum). The mode picks one of two
kernels, which own only their numbers:
`_IntTableau` (exact mode, for rational inputs) keeps rows of Python ints
over per-row denominators, updates a row only at the nonzeros of the pivot
row and scales it only when the pivot does not divide its entry, and
returns `fractions.Fraction` values;
`_FloatRevised` (float mode) is the revised simplex method in numpy,
compared with tolerances: it keeps A and a small inverse of the basis
instead of the tableau, so a pivot on a program of m rows costs O(m^2) plus
one pricing product over A, not a rewrite of m x (n + m) entries.
Exact mode reads the rows and right-hand sides cleared to integers once per
program (`LinearProgram.integer_data`): cleared from the rows on first
read by `scalars.integer_row`, the package's one clearing, or filled in
with the same integers by a builder that knows its layout
(`simulation.simulation_program`). A request checks only the
objectives for floats up front, and a float row or right-hand side raises
ValueError when the kernel reads `integer_data`, before any pivot, so a
rejected program is no solve.

Every verdict is checkable after the fact: a feasible outcome carries the
solution vector, an infeasible outcome carries a Farkas vector y with
y'A <= 0 and y'b = 1, an unbounded outcome a vertex and a ray along which
the objective improves. `verify_solution` and `verify_farkas` replay the
first two against the original program: in exact mode on integers, by
reading `integer_data`, clearing the certificate's denominators and
testing signs of integer dot products (as Applegate, Cook, Dash & Espinoza
2007 check exact LP certificates), in float mode by one matrix-vector
product over the rows, tuple or ndarray (A x for a solution, y'A for a
Farkas vector), whose entries are tested against eps so that an inf or a
NaN fails. `_simplex` replays every float FEASIBLE or UNBOUNDED outcome
by `verify_solution`'s test, on the float array its solution tuple is
made from, and the ray of an UNBOUNDED one against A r = 0,
r >= 0 and c'r > 0 for the objective c that grows along it, and raises
`CertificateError` instead of returning one that fails; a float Farkas vector is not replayed there,
since the absolute eps rejects correct refutations of badly scaled
programs. Code that builds an answer from a certificate raises
`CertificateError` when the certificate fails that replay, so it never
returns it. A FEASIBLE or UNBOUNDED outcome also carries the final basis
and its inverse B^-1, read from the kernel's final state with no extra
elimination (`LPOutcome`), so that a caller can decide another right-hand
side over the same rows without a solve (`simulation.is_simulable`).

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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
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
    vdot,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Consecutive non-improving pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 30

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


@dataclass(frozen=True)
class LinearProgram:
    """Equality-form program: maximize the objective subject to rows . x = rhs
    and x >= 0. Each tie-break is maximized over the optimal face of the
    objectives before it.

    `rows` is a tuple of tuples or a read-only 2-D float ndarray (float data
    only); a program with ndarray rows is not hashable. Float replay of
    either is one matrix-vector product over the rows as one float array,
    `float_data`, which the float kernel reads too.

    `start` holds (row, column) pairs: the simplex starts each named row on
    that column instead of its artificial. The column must be the unit
    column e_row and the row's right-hand side nonnegative, so that the
    column is basic at level rhs[row]; a row named twice, an index out of
    range or any other column raises ValueError."""

    num_vars: int
    rows: tuple
    rhs: tuple
    objective: Optional[tuple] = None
    tiebreaks: tuple = ()
    start: tuple = ()

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise ValueError("row count does not match rhs length")
        if (self.rows.shape[1:] != (self.num_vars,) if isinstance(self.rows, np.ndarray)
                else any(len(r) != self.num_vars for r in self.rows)):
            raise ValueError("constraint row width must equal variable count")
        if self.objective is None and self.tiebreaks:
            raise ValueError("tie-breaks need an objective")
        if any(len(c) != self.num_vars for c in self.objectives()):
            raise ValueError("objective width must equal variable count")
        if self.start:
            self._check_start()

    def _check_start(self):
        m, n = len(self.rhs), self.num_vars
        named, cols = zip(*self.start)
        if not all(0 <= i < m for i in named) or not all(0 <= j < n for j in cols):
            raise ValueError("start names a row or column out of range")
        if len(set(named)) != len(named):
            raise ValueError("start names a row twice")
        if any(self.rhs[i] < 0 for i in named):
            raise ValueError("a started row needs a nonnegative right-hand side")
        if isinstance(self.rows, np.ndarray):
            block = self.rows[:, cols]
            unit = ((block[named, range(len(cols))] == 1).all()
                    and np.count_nonzero(block) == len(cols))
        else:
            columns = list(zip(*self.rows))
            unit = all(columns[j].count(0) == m - 1 and columns[j][i] == 1 for i, j in self.start)
        if not unit:
            raise ValueError("a start column must be the unit column of its row")

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
        vals = [x for r in self.rows for x in r]
        vals.extend(self.rhs)
        vals.extend(x for c in self.objectives() for x in c)
        return infer_mode(vals)

    @cached_property
    def integer_data(self) -> tuple:
        """Each row with its rhs cleared to integers, as (numerators, positive
        denominator) with the numerators a tuple and the denominator their
        least common one, for the exact kernel and the exact verifiers.
        Made from the rows on first read (`scalars.integer_row`); a float
        raises ValueError. The builder of a program, and only it, may fill it
        first by storing the value in the instance's `__dict__` before anything
        reads it (`simulation.simulation_program` does, from its layout); a
        filled value must equal this generic clearing, row for row."""
        return tuple((tuple(row), den) for row, den in
                     (integer_row((*r, b)) for r, b in zip(self.rows, self.rhs)))

    @cached_property
    def float_data(self) -> tuple:
        """(A, b) as read-only float arrays, made on first use: an ndarray's
        rows come without a copy, tuple rows are converted once for the float
        kernel and the float verifiers."""
        data = (np.asarray(self.rows, dtype=float).reshape(len(self.rhs), self.num_vars),
                np.asarray(self.rhs, dtype=float))
        for a in data:
            a.flags.writeable = False
        return data


def make_program(rows, rhs, objective=None, tiebreaks=(), start=()) -> LinearProgram:
    """Convenience constructor.

    A 2-D float ndarray of rows is kept as a read-only view, without a copy;
    any other rows become a tuple of tuples.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == float:
        rows = rows.view()
        rows.flags.writeable = False
        n = rows.shape[1]
    else:
        rows = tuple(tuple(r) for r in rows)
        n = len(rows[0]) if len(rows) else (len(objective) if objective is not None else 0)
    return LinearProgram(
        num_vars=n,
        rows=rows,
        rhs=tuple(rhs),
        objective=tuple(objective) if objective is not None else None,
        tiebreaks=tuple(tuple(c) for c in tiebreaks),
        start=tuple((int(i), int(j)) for i, j in start),
    )


@dataclass(frozen=True)
class LPOutcome:
    """Solve result plus the data needed to replay it.

    A FEASIBLE or UNBOUNDED outcome also carries the kernel's final basis,
    row i's basic column in `basis`, and its inverse B^-1 in `inverse`: one
    row per basic column and one column per program row, with the flips
    undone, so that x_B = B^-1 b for the program's own b. In exact mode each
    row is (integer numerators, positive denominator), the tableau's
    artificial columns as they are; in float mode it is a read-only float
    array. A row the solve found redundant and dropped keeps its artificial
    column n + i as its basic column, at level zero for b: its row of B^-1
    gives that level for another b, which the program's rows leave
    consistent only at zero. Neither field is part of the outcome's repr or
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


def lp_solve(program: LinearProgram, mode: Optional[str] = None,
             tol: Tolerance = DEFAULT_TOLERANCE) -> LPOutcome:
    """Solve a LinearProgram, inferring the arithmetic mode if not given."""
    if mode is None:
        mode = program.mode()
    elif mode == EXACT and infer_mode(x for c in program.objectives() for x in c) == FLOAT:
        raise ValueError("exact mode requested for float data")
    kernel = _IntTableau if mode == EXACT else _FloatRevised
    out = _simplex(program, kernel, field(mode, tol))
    stats["pivots"] += out.pivots
    return out


def verify_solution(program: LinearProgram, solution: Sequence,
                    tol: Tolerance = DEFAULT_TOLERANCE, mode: Optional[str] = None) -> bool:
    """Replay a feasible certificate against the program.

    Exact mode clears x to integers X over L and reads row i, rhs included,
    as integers N_i, B_i from `integer_data`, then tests N_i . X == B_i * L
    and X >= 0; a float raises ValueError. Float mode computes A x as one
    matrix-vector product over the rows, tuple or ndarray, and allows eps in
    each row and sign.
    """
    mode = mode or program.mode()
    if len(solution) != program.num_vars:
        return False
    if mode == EXACT:
        X, L = integer_row(solution)
        for N, _ in program.integer_data:
            if sum(a * x for a, x in zip(N, X)) != N[-1] * L:  # zip stops before B_i
                return False
        return all(x >= 0 for x in X)
    return _solution_replays(program, np.asarray(solution, dtype=float), field(mode, tol).eps)


def _solution_replays(program: LinearProgram, x, eps) -> bool:
    """A x = b within eps in each row and x >= 0 within eps in each entry,
    for a float array x; an inf or a NaN fails."""
    A, b = program.float_data
    with np.errstate(over="ignore", invalid="ignore"):
        return bool((np.abs(A @ x - b) <= eps).all() and (x >= -eps).all())


def verify_farkas(program: LinearProgram, farkas: Sequence,
                  tol: Tolerance = DEFAULT_TOLERANCE, mode: Optional[str] = None) -> bool:
    """Replay an infeasibility certificate: y'A <= 0 and y'b > 0.

    Exact mode clears y to integers Y and reads each row i, rhs included,
    as integers over D_i from `integer_data`. The sum over Y_i != 0 of
    Y_i * (L / D_i) times row i, L the lcm of those D_i, is (y'A, y'b)
    times a positive number, so its signs are tested exactly; a float in y
    or in the program raises ValueError. Float mode computes y'A as one
    vector-matrix product over the rows, tuple or ndarray, and allows eps
    in each sign; an inf or a NaN in y fails.
    """
    mode = mode or program.mode()
    if len(farkas) != len(program.rows):
        return False
    if mode != EXACT:
        A, b = program.float_data
        eps = field(mode, tol).eps
        y = np.asarray(farkas, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a test
            return bool(np.isfinite(y).all() and (y @ A <= eps).all() and y @ b > eps)
    Y, _ = integer_row(farkas)
    terms = [(y, row, den) for y, (row, den) in zip(Y, program.integer_data) if y]
    L = lcm(*(den for _, _, den in terms))
    acc = [0] * (program.num_vars + 1)
    for y, row, den in terms:
        k = y * (L // den)
        acc = [a + k * x for a, x in zip(acc, row)]
    *combo, yb = acc
    return all(z <= 0 for z in combo) and yb > 0


# ---------------------------------------------------------------------------
# The driver. Rows with a negative right-hand side are negated (flips), so
# every starting basic value is nonnegative. Both kernels minimize: phase 1
# the artificial sum, phase 2 the negated objective.
# ---------------------------------------------------------------------------

def _simplex(program: LinearProgram, kernel, F) -> LPOutcome:
    """Two-phase simplex on a tableau of class `kernel` in the arithmetic of F."""
    m, n = len(program.rows), program.num_vars
    flips = [-1 if b < 0 else 1 for b in program.rhs]
    tab = kernel(program, flips, F)
    stats["solves"] += 1  # only now: a program the kernel rejects is no solve
    basis = tab.basis
    cap = None if kernel.CAP is None else kernel.CAP * (n + m)

    pivots, col = _optimize(tab, basis, n, cap, 0)
    if col >= 0:  # the artificial sum is bounded below by 0: a numerical breakdown
        raise CertificateError("phase 1 cannot be unbounded")
    if tab.artificial_sum() > F.eps:
        farkas = tab.farkas(program, flips)
        if farkas is None:
            raise CertificateError("Farkas scale must be positive")
        return LPOutcome(INFEASIBLE, F.mode, farkas=farkas, pivots=pivots)

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
        if not _solution_replays(program, x, F.eps):
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
                     basis=tuple(basis), inverse=tab.inverse(flips))


def _initial_basis(program: LinearProgram) -> list:
    """Row i's starting basic column: the one `program.start` names for it,
    or its artificial n + i."""
    n = program.num_vars
    basis = list(range(n, n + len(program.rhs)))
    for i, j in program.start:
        basis[i] = j
    return basis


def _ray_replays(program: LinearProgram, ray, objective, eps) -> bool:
    """A r = 0 and r >= 0 within eps in each row and sign, and c'r > eps for
    the objective c that grows along r; an inf or a NaN fails."""
    A, _ = program.float_data
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.asarray(ray, dtype=float)
        return bool((np.abs(A @ r) <= eps).all() and (r >= -eps).all()
                    and np.asarray(objective, dtype=float) @ r > eps)


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
# program's `integer_data`, which clears each program to integers once, since
# the kernel updates its rows in place. The pivot rule compares numerators
# only within the reduced-cost row, which share one denominator, and the
# ratio test compares T[i][last] / T[i][col] by cross products (the
# denominator of row i cancels), so no choice depends on a row's scale. A
# pivot on P over p, or a cost set-up, subtracts f / p times P from a row
# (`_eliminate`), and only at the nonzeros of P: when p divides f, in place
# over the row's own denominator; otherwise the row and its denominator are
# first scaled by p / gcd(p, f). A row is divided by the gcd of its entries
# and denominator only once the denominator has outgrown a machine word,
# which bounds the growth of its integers. Fractions, which are normalized,
# are built only for the returned values.
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
        m, n = len(program.rows), program.num_vars
        data = program.integer_data
        T = [list(r) if flip > 0 else [-x for x in r] for (r, _), flip in zip(data, flips)]
        D = [den for _, den in data]
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
        self.T, self.D = T + [red], D + [red_den]

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
        With b_j = B_j / D_j read from `integer_data` and L the lcm of the
        D_j that count, y'|b| = N / (L den) for the integer N = sum_j v_j
        |B_j| L / D_j, so entry i is the one Fraction v_i L / +-N."""
        v = [self.dual(i) for i in range(len(flips))]
        terms = [(x * abs(row[-1]), den) for x, (row, den) in zip(v, program.integer_data)
                 if x and row[-1]]
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

    def inverse(self, flips):
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
# Entries within eps of zero count as zero.
# ---------------------------------------------------------------------------

class _FloatRevised:
    CAP = 10_000  # pivots per variable and constraint before SolverLimitError

    def __init__(self, program, flips, F):
        m, n = len(program.rows), program.num_vars
        self.eps = F.eps
        A, b = program.float_data
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
        self.C = C
        self._inverse(R)
        self.red, self.col, self.d = None, -1, None

    def _inverse(self, R):
        """Install R with its views: the inverse, the basic values and -y."""
        self.R, self.Q, self.x, self.ybar = R, R[:, :-1], R[:-1, -1], R[-1, :-1]

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
        scale = self.dot(y, [abs(b) for b in program.rhs])
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

    def inverse(self, flips):
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
