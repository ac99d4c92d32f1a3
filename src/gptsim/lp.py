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
crash and artificial columns, the pivot rule, the infeasibility test and
Farkas certificate, drive-out of artificials, phase 2, unbounded detection
and solution recovery. Phase 2 optimizes the objectives in turn in one
tableau: after each, the nonbasic columns with nonzero reduced cost are
fixed at zero, so the next one sees only the optimal face (a lexicographic
optimum). The mode picks one of two kernels, which own only their numbers:
`_IntTableau` (exact mode, for rational inputs) keeps rows of Python ints
over per-row denominators and returns `fractions.Fraction` values;
`_FloatRevised` (float mode) is the revised simplex method in numpy,
compared with tolerances: it keeps A and a small inverse of the basis
instead of the tableau, so a pivot on a program of m rows costs O(m^2) plus
one pricing product over A, not a rewrite of m x (n + m) entries.
An exact-mode request checks only the objectives for floats up front;
`_integer_row` rejects a float row or right-hand side while `_IntTableau`
clears it, before any pivot, and a rejected program is no solve.

Every verdict is checkable after the fact: a feasible outcome carries the
solution vector, an infeasible outcome carries a Farkas vector y with
y'A <= 0 and y'b = 1, an unbounded outcome a vertex and a ray along which
the objective improves. `verify_solution` and `verify_farkas` replay the
first two against the original program: in exact mode on integers, by
clearing denominators with `_integer_row` and testing signs of integer dot
products (as Applegate, Cook, Dash & Espinoza 2007 check exact LP
certificates), in float mode by one matrix-vector product over the rows,
tuple or ndarray (A x for a solution, y'A for a Farkas vector), whose
entries are tested against eps so that an inf or a NaN fails. The driver replays every float FEASIBLE or UNBOUNDED outcome
with `verify_solution` and raises `CertificateError` instead of returning
one that fails; a float Farkas vector is not replayed there, since the
absolute eps rejects correct refutations of badly scaled programs. Code
that builds an answer from a certificate raises `CertificateError` when the
certificate fails that replay, so it never returns it.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, Tolerance, field, infer_mode, vdot

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
    `float_data`, which the float kernel reads too."""

    num_vars: int
    rows: tuple
    rhs: tuple
    objective: Optional[tuple] = None
    tiebreaks: tuple = ()

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
    def float_data(self) -> tuple:
        """(A, b) as read-only float arrays, made on first use: an ndarray's
        rows come without a copy, tuple rows are converted once for the float
        kernel and the float verifiers."""
        data = (np.asarray(self.rows, dtype=float).reshape(len(self.rhs), self.num_vars),
                np.asarray(self.rhs, dtype=float))
        for a in data:
            a.flags.writeable = False
        return data


def make_program(rows, rhs, objective=None, tiebreaks=()) -> LinearProgram:
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
    )


@dataclass(frozen=True)
class LPOutcome:
    """Solve result plus the data needed to replay it."""

    verdict: str
    mode: str
    solution: Optional[tuple] = None
    objective_value: Optional[object] = None
    farkas: Optional[tuple] = None
    ray: Optional[tuple] = None
    pivots: int = 0


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

    Exact mode clears x to integers X over L and row i, rhs included, to
    integers N_i, B_i, then tests N_i . X == B_i * L and X >= 0; a float
    raises ValueError. Float mode computes A x as one matrix-vector product
    over the rows, tuple or ndarray, and allows eps in each row and sign.
    """
    mode = mode or program.mode()
    if len(solution) != program.num_vars:
        return False
    if mode == EXACT:
        X, L = _integer_row(solution)
        for r, b in zip(program.rows, program.rhs):
            N, _ = _integer_row((*r, b))
            if sum(a * x for a, x in zip(N, X)) != N[-1] * L:  # zip stops before B_i
                return False
        return all(x >= 0 for x in X)
    A, b = program.float_data
    eps = field(mode, tol).eps
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail every test
        x = np.asarray(solution, dtype=float)
        return bool((np.abs(A @ x - b) <= eps).all() and (x >= -eps).all())


def verify_farkas(program: LinearProgram, farkas: Sequence,
                  tol: Tolerance = DEFAULT_TOLERANCE, mode: Optional[str] = None) -> bool:
    """Replay an infeasibility certificate: y'A <= 0 and y'b > 0.

    Exact mode clears y to integers Y and each row i with Y_i != 0, rhs
    included, to integers over D_i. The sum of Y_i * (L / D_i) times row i,
    L the lcm of the D_i, is (y'A, y'b) times a positive number, so its
    signs are tested exactly; a float it reads raises ValueError. Float
    mode computes y'A as one vector-matrix product over the rows, tuple or
    ndarray, and allows eps in each sign.
    """
    mode = mode or program.mode()
    if len(farkas) != len(program.rows):
        return False
    if mode != EXACT:
        A, b = program.float_data
        eps = field(mode, tol).eps
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail every test
            y = np.asarray(farkas, dtype=float)
            return bool((y @ A <= eps).all() and y @ b > eps)
    Y, _ = _integer_row(farkas)
    terms = [(y, *_integer_row((*r, b)))
             for y, r, b in zip(Y, program.rows, program.rhs) if y]
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
        # Dual values of the flipped rows, whose right-hand sides are |b|;
        # the division by the scale also undoes the flips.
        y = [tab.dual(i) for i in range(m)]
        scale = tab.dot(y, [abs(b) for b in program.rhs])
        if not scale > 0:
            raise CertificateError("Farkas scale must be positive")
        farkas = tuple(v / scale if flip > 0 else v / -scale for v, flip in zip(y, flips))
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
            ray = _recover(n, [col] + basis,
                           [F.one] + [-tab.value(i, col) for i in range(len(basis))], F)
            break
        pivots = total
    sol = _recover(n, basis, [tab.value(i) for i in range(len(basis))], F)
    if F.mode == FLOAT and not verify_solution(program, sol, F.tol, mode=FLOAT):
        raise CertificateError("float solution fails replay against its program")
    value = None if ray or program.objective is None else tab.dot(program.objective, sol)
    return LPOutcome(UNBOUNDED if ray else FEASIBLE, F.mode, solution=sol,
                     objective_value=value, ray=ray, pivots=pivots)


def _recover(n, cols, values, F):
    """The n variables, `values` in columns `cols` and zero elsewhere; F.zero
    + v turns a float -0.0 into 0.0."""
    x = [F.zero] * n
    for col, v in zip(cols, values):
        x[col] = F.zero + v
    return tuple(x)


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


def _start_basis(crash, m, n):
    """Row i starts on its crash column, or else on a new artificial column.

    Returns the basis and {row: artificial column}.
    """
    art = {i: n + k for k, i in enumerate(i for i in range(m) if i not in crash)}
    return [crash[i] if i in crash else art[i] for i in range(m)], art


# ---------------------------------------------------------------------------
# Exact kernel: dense tableau of Python ints.
#
# Row i of T holds integer numerators over the positive denominator D[i]; the
# last row is the reduced-cost row. The pivot rule compares numerators only
# within the reduced-cost row, which share one denominator, and the ratio
# test compares T[i][last] / T[i][col] by cross products (the denominator of
# row i cancels), so no choice depends on a row's scale. A row is therefore
# divided by the gcd of its entries and denominator only once the
# denominator has outgrown a machine word, which bounds the growth of its
# integers. Fractions, which are normalized, are built only for the
# returned values.
# ---------------------------------------------------------------------------

def _integer_row(values):
    """Numerators of the values over their least common denominator; a float
    value raises ValueError."""
    try:
        dens = [x.denominator for x in values]
    except AttributeError:
        raise ValueError("exact mode requested for float data") from None
    den = lcm(*dens)
    return [x.numerator if d == den else x.numerator * (den // d)
            for x, d in zip(values, dens)], den


def _reduced(row, den):
    if den < 1 << 64:
        return row, den
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def _crash_columns(rows, m, n):
    """{row: column} for the columns with a single nonzero, which is positive.

    Such a column can serve as its row's basic variable directly, so only
    the remaining rows need artificial variables in phase 1.
    """
    count = [0] * n
    where = [-1] * n
    for i in range(m):
        row = rows[i]
        for j in range(n):
            if row[j] != 0:
                count[j] += 1
                where[j] = i
    crash = {}
    for j in range(n):
        if count[j] == 1 and rows[where[j]][j] > 0 and where[j] not in crash:
            crash[where[j]] = j
    return crash


class _IntTableau:
    CAP = None  # Bland's rule terminates in exact arithmetic

    def __init__(self, program, flips, F):
        m, n = len(program.rows), program.num_vars
        T, D = [], []
        for r, b, flip in zip(program.rows, program.rhs, flips):
            row, den = _integer_row((*r, b))
            T.append(row if flip > 0 else [-x for x in row])
            D.append(den)
        crash = _crash_columns(T, m, n)
        self.basis, self.art = _start_basis(crash, m, n)
        self.crash = {}  # row: (column, coefficient numerator, row denominator)
        for i in range(m):
            row = T[i][:n] + [0] * len(self.art) + T[i][n:]
            if i in crash:
                piv = row[crash[i]]
                self.crash[i] = (crash[i], piv, D[i])
                T[i], D[i] = _reduced(row, piv)
            else:
                row[self.art[i]] = D[i]
                T[i] = row
        # Phase 1 reduced costs for minimizing the artificial sum.
        red_den = lcm(*[D[i] for i in self.art])
        red = [0] * (n + len(self.art) + 1)
        for i in self.art:
            k = red_den // D[i]
            red = [x - k * a for x, a in zip(red, T[i])]
        for col in self.art.values():
            red[col] = 0
        red, red_den = _reduced(red, red_den)
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
        for i, Ti in enumerate(T):
            f = Ti[col]
            if f and i != row:
                T[i], D[i] = _reduced([p * x - f * a for x, a in zip(Ti, P)], D[i] * p)

    def objective(self):
        return self.T[-1][-1], self.D[-1]

    @staticmethod
    def same(a, b):
        return a[0] * b[1] == b[0] * a[1]

    def artificial_sum(self):
        return Fraction(-self.T[-1][-1], self.D[-1])

    def dual(self, i):
        """Phase-1 dual value of row i, from the reduced cost r of its starting
        column: 1 - r for an artificial (cost 1), -r / coefficient for a
        crash column (cost 0; its row was divided by the coefficient)."""
        red, den = self.T[-1], self.D[-1]
        if i in self.crash:
            j, num, row_den = self.crash[i]
            return Fraction(-red[j] * row_den, den * num)
        return Fraction(den - red[self.art[i]], den)

    def structural(self, i, n):
        return next((j for j in range(n) if self.T[i][j]), -1)

    drive_out = pivot  # the artificial's level is exactly zero

    def drop(self, rows):
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
        """Replace the reduced-cost row by that of the cost `values`."""
        T, D = self.T, self.D
        cost, cost_den = _integer_row(values)
        red, red_den = cost + [0] * (len(T[-1]) - len(cost)), cost_den
        for i, j in enumerate(basis):
            if cost[j]:
                k, c = cost_den * D[i], cost[j] * red_den
                red, red_den = _reduced([k * x - c * a for x, a in zip(red, T[i])], red_den * k)
        T[-1], D[-1] = red, red_den

    def value(self, i, col=-1):  # by default the basic value of row i
        return Fraction(self.T[i][col], self.D[i])

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
        A = C[:m]
        nonzero = A != 0.0
        crash = {}
        for j in np.nonzero(nonzero.sum(axis=0) == 1)[0]:
            i = int(np.argmax(nonzero[:, j]))
            if i not in crash and A[i, j] > 0:
                crash[i] = int(j)
        self.basis, self.art = _start_basis(crash, m, n)
        # The extended basis is diagonal: crash coefficients, and ones for
        # the artificials and the cost row.
        diag = np.ones(m + 1)
        for i, j in crash.items():
            diag[i] = A[i, j]
        R = np.zeros((m + 1, m + 2))
        np.fill_diagonal(R, 1.0 / diag)
        R[:m, -1] = np.abs(b) / diag[:m]
        # Phase 1 minimizes the artificial sum: y is 1 on artificial rows.
        arts = list(self.art)
        R[-1, arts] = -1.0
        R[-1, -1] = -R[arts, -1].sum()
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
        inverse of the remaining basis."""
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

    @staticmethod
    def dot(a, b):
        return float(np.dot(np.array(a, dtype=float), np.array(b, dtype=float)))
