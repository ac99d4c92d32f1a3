"""Linear programming with feasibility and infeasibility certificates.

Problems are stated over equality constraints `A x = b` with per-variable
nonnegativity flags and an optional linear objective. One two-phase simplex
driver, `_simplex`, owns the algorithm: phase 1 from crash and artificial
columns, the pivot rule, the infeasibility test and Farkas certificate,
drive-out of artificials, phase 2, unbounded detection and solution
recovery. The mode picks one of two kernels, which own only their numbers:
`_IntTableau` (exact mode, for rational inputs) keeps rows of Python ints
over per-row denominators and returns `fractions.Fraction` values;
`_FloatTableau` (float mode) is a numpy tableau compared with tolerances.

Every verdict is checkable after the fact: a feasible outcome carries the
solution vector, an infeasible outcome carries a Farkas vector y with
y'A <= 0 on nonnegative columns, y'A = 0 on free columns and y'b = 1
(certificates are normalized to y'b = 1). `verify_solution` and
`verify_farkas` replay either certificate against the original program.
Code that builds an answer from a certificate raises `CertificateError`
when the certificate fails that replay, so it never returns it.

Pivoting uses the largest-coefficient rule and switches permanently to
Bland's rule once the objective has stalled for more than `_STALL_LIMIT`
pivots, which resolves degeneracy and guarantees termination in exact mode;
ratio ties go to the smallest basic index. Float mode additionally caps the
pivot count at 10**4 * (variables + constraints) and raises
SolverLimitError instead of returning a verdict when the cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """A certificate failed replay against the instance it was issued for."""


@dataclass(frozen=True)
class LinearProgram:
    """Equality-form program: rows . x = rhs, x_j >= 0 where nonneg[j]."""

    num_vars: int
    rows: tuple
    rhs: tuple
    nonneg: tuple
    objective: Optional[tuple] = None
    sense: str = "max"

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise ValueError("row count does not match rhs length")
        for r in self.rows:
            if len(r) != self.num_vars:
                raise ValueError("constraint row width must equal variable count")
        if len(self.nonneg) != self.num_vars:
            raise ValueError("nonneg flags must cover every variable")
        if self.objective is not None and len(self.objective) != self.num_vars:
            raise ValueError("objective width must equal variable count")
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")

    def mode(self) -> str:
        vals = [x for r in self.rows for x in r]
        vals.extend(self.rhs)
        if self.objective is not None:
            vals.extend(self.objective)
        return infer_mode(vals)


def make_program(rows, rhs, nonneg=None, objective=None, sense="max") -> LinearProgram:
    """Convenience constructor; nonneg defaults to all-nonnegative."""
    rows = tuple(tuple(r) for r in rows)
    n = len(rows[0]) if rows else (len(objective) if objective else 0)
    if nonneg is None:
        nonneg = (True,) * n
    return LinearProgram(
        num_vars=n,
        rows=rows,
        rhs=tuple(rhs),
        nonneg=tuple(nonneg),
        objective=tuple(objective) if objective is not None else None,
        sense=sense,
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
    tolerance: Optional[Tolerance] = None
    pivots: int = 0


def lp_solve(program: LinearProgram, mode: Optional[str] = None,
             tol: Tolerance = DEFAULT_TOLERANCE) -> LPOutcome:
    """Solve a LinearProgram, inferring the arithmetic mode if not given."""
    if mode is None:
        mode = program.mode()
    elif mode == EXACT and program.mode() == FLOAT:
        raise ValueError("exact mode requested for float data")
    stats["solves"] += 1
    kernel = _IntTableau if mode == EXACT else _FloatTableau
    out = _simplex(program, kernel, field(mode, tol))
    stats["pivots"] += out.pivots
    return out


def verify_solution(program: LinearProgram, solution: Sequence,
                    tol: Tolerance = DEFAULT_TOLERANCE, mode: Optional[str] = None) -> bool:
    """Replay a feasible certificate against the program."""
    eps = field(mode or program.mode(), tol).eps_feas
    if len(solution) != program.num_vars:
        return False
    for row, b in zip(program.rows, program.rhs):
        if abs(vdot(row, solution) - b) > eps:
            return False
    for x, flag in zip(solution, program.nonneg):
        if flag and x < -eps:
            return False
    return True


def verify_farkas(program: LinearProgram, farkas: Sequence,
                  tol: Tolerance = DEFAULT_TOLERANCE, mode: Optional[str] = None) -> bool:
    """Replay an infeasibility certificate: y'A <= 0 (=0 on free), y'b > 0."""
    eps = field(mode or program.mode(), tol).eps_feas
    if len(farkas) != len(program.rows):
        return False
    combo = [vdot(farkas, col) for col in zip(*program.rows)] if program.rows else []
    for z, flag in zip(combo, program.nonneg):
        if flag:
            if z > eps:
                return False
        elif abs(z) > eps:
            return False
    return bool(vdot(farkas, program.rhs) > eps)


# ---------------------------------------------------------------------------
# The driver. Free variables are split x = x+ - x-; the column map records
# (variable, sign) per standard-form column. Rows with a negative right-hand
# side are negated (flips), so every starting basic value is nonnegative.
# ---------------------------------------------------------------------------

def _colmap(program: LinearProgram):
    colmap = []
    for j, flag in enumerate(program.nonneg):
        colmap.append((j, 1))
        if not flag:
            colmap.append((j, -1))
    return colmap


def _simplex(program: LinearProgram, kernel, F) -> LPOutcome:
    """Two-phase simplex on a tableau of class `kernel` in the arithmetic of F."""
    colmap = _colmap(program)
    m, n = len(program.rows), len(colmap)
    flips = [-1 if b < 0 else 1 for b in program.rhs]
    tab = kernel(program, colmap, flips, F)
    basis = tab.basis
    cap = None if kernel.CAP is None else kernel.CAP * (program.num_vars + m)

    pivots = _optimize(tab, basis, n, cap)
    if pivots is None:
        raise RuntimeError("phase 1 cannot be unbounded")
    if tab.artificial_sum() > F.eps_feas:
        # Dual values of the flipped rows, whose right-hand sides are |b|;
        # the division by the scale also undoes the flips.
        y = [tab.dual(i) for i in range(m)]
        scale = tab.dot(y, [abs(b) for b in program.rhs])
        if not scale > 0:
            raise CertificateError("Farkas scale must be positive")
        farkas = tuple(v / scale if flip > 0 else v / -scale for v, flip in zip(y, flips))
        return LPOutcome(INFEASIBLE, F.mode, farkas=farkas, tolerance=F.tolerance,
                         pivots=pivots)

    # Pivot zero-level artificials out of the basis; a row with no
    # structural coefficient left is redundant and removed.
    dead = []
    for i, j in enumerate(basis):
        if j >= n:
            col = tab.structural(i, n)
            if col < 0:
                dead.append(i)
            else:
                tab.pivot(i, col)
                basis[i] = col
    tab.drop(dead)
    basis[:] = [j for i, j in enumerate(basis) if i not in dead]

    more = 0
    if program.objective is not None:
        flip = -1 if program.sense == "max" else 1
        tab.price([program.objective[j] for j, _ in colmap],
                  [flip * s for _, s in colmap], basis)
        more = _optimize(tab, basis, n, cap)
        if more is None:
            return LPOutcome(UNBOUNDED, F.mode, tolerance=F.tolerance, pivots=pivots)
    sol = [F.zero] * program.num_vars
    for i, col in enumerate(basis):
        j, sign = colmap[col]
        sol[j] = sol[j] + (tab.value(i) if sign == 1 else -tab.value(i))
    sol = tuple(sol)
    value = None if program.objective is None else tab.dot(program.objective, sol)
    return LPOutcome(FEASIBLE, F.mode, solution=sol, objective_value=value,
                     tolerance=F.tolerance, pivots=pivots + more)


def _optimize(tab, basis, allowed, cap):
    """Pivot to optimality on the reduced-cost row of `tab`.

    Returns the pivot count, or None when an unbounded direction is found.
    Entering columns are restricted to indices < allowed so artificial
    columns never re-enter. More than `cap` pivots raises SolverLimitError
    (no cap when it is None).
    """
    pivots = stall = 0
    bland = False
    prev = tab.objective()
    while True:
        col = tab.entering(allowed, bland)
        if col < 0:
            return pivots
        row = tab.leaving(col, basis)
        if row < 0:
            return None
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
# last row is the reduced-cost row. Every updated row is divided by the gcd
# of its entries and denominator, which keeps it as small as the equivalent
# Fractions. A reduced cost is negative when its numerator is, and the ratio
# test compares T[i][last] / T[i][col] by cross products (the denominator of
# row i cancels). Fractions are built only for the returned values.
# ---------------------------------------------------------------------------

def _integer_row(values, signs):
    """Numerators of sign * value over the values' least common denominator."""
    dens = [x.denominator for x in values]
    den = lcm(*dens)
    return [s * x.numerator * (den // d) for s, x, d in zip(signs, values, dens)], den


def _reduced(row, den):
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

    def __init__(self, program, colmap, flips, F):
        m, n = len(program.rows), len(colmap)
        T, D = [], []
        for r, b, flip in zip(program.rows, program.rhs, flips):
            row, den = _integer_row([r[j] for j, _ in colmap] + [b],
                                    [flip * s for _, s in colmap] + [flip])
            T.append(row)
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

    def drop(self, rows):
        for i in reversed(rows):
            del self.T[i], self.D[i]

    def price(self, values, signs, basis):
        """Replace the reduced-cost row by that of the cost sign * value."""
        T, D = self.T, self.D
        cost, cost_den = _integer_row(values, signs)
        red, red_den = cost + [0] * (len(T[-1]) - len(cost)), cost_den
        for i, j in enumerate(basis):
            if cost[j]:
                k, c = cost_den * D[i], cost[j] * red_den
                red, red_den = _reduced([k * x - c * a for x, a in zip(red, T[i])], red_den * k)
        T[-1], D[-1] = red, red_den

    def value(self, i):
        return Fraction(self.T[i][-1], self.D[i])

    dot = staticmethod(vdot)


# ---------------------------------------------------------------------------
# Float kernel: numpy tableau T, one row per constraint, and the reduced-cost
# row `red`; entries within eps_rank of zero count as zero.
# ---------------------------------------------------------------------------

class _FloatTableau:
    CAP = 10_000  # pivots per variable and constraint before SolverLimitError

    def __init__(self, program, colmap, flips, F):
        m, n = len(program.rows), len(colmap)
        self.eps, self.eps_compare = F.eps_rank, F.eps_compare
        flips = np.array(flips, dtype=float)
        A = np.array(program.rows, dtype=float).reshape(m, program.num_vars)
        A = A[:, [j for j, _ in colmap]] * [s for _, s in colmap] * flips[:, None]
        b = np.array(program.rhs, dtype=float) * flips
        nonzero = A != 0.0
        crash = {}
        for j in np.nonzero(nonzero.sum(axis=0) == 1)[0]:
            i = int(np.argmax(nonzero[:, j]))
            if i not in crash and A[i, j] > 0:
                crash[i] = int(j)
        self.basis, self.art = _start_basis(crash, m, n)
        self.crash = {i: (j, A[i, j]) for i, j in crash.items()}  # row: (column, coefficient)
        T = np.hstack([A, np.zeros((m, len(self.art))), b[:, None]])
        for i, j in crash.items():
            if A[i, j] != 1.0:
                T[i] /= A[i, j]
        for i, col in self.art.items():
            T[i, col] = 1.0
        self.red = -T[list(self.art)].sum(axis=0) if self.art else np.zeros(T.shape[1])
        self.red[list(self.art.values())] = 0.0
        self.T = T

    def entering(self, allowed, bland):
        cand = self.red[:allowed]
        if bland:
            hits = np.nonzero(cand < -self.eps)[0]
            return int(hits[0]) if hits.size else -1
        col = int(np.argmin(cand)) if allowed else -1
        return -1 if col < 0 or cand[col] >= -self.eps else col

    def leaving(self, col, basis):
        T = self.T
        colvals = T[:, col]
        ok = colvals > self.eps
        if not ok.any():
            return -1
        ratios = np.full(len(basis), np.inf)
        ratios[ok] = T[ok, -1] / colvals[ok]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + self.eps * (1 + abs(best)))[0]
        return int(min(ties, key=lambda i: basis[i]))

    def pivot(self, row, col):
        T, red = self.T, self.red
        T[row] = T[row] / T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        if red[col] != 0.0:
            red -= red[col] * T[row]

    def objective(self):
        return self.red[-1]

    def same(self, a, b):
        return abs(a - b) <= self.eps_compare

    def artificial_sum(self):
        return -self.red[-1]

    def dual(self, i):
        """Phase-1 dual value of row i; see `_IntTableau.dual`."""
        if i in self.crash:
            j, coeff = self.crash[i]
            return float(-self.red[j] / coeff)
        return float(1.0 - self.red[self.art[i]])

    def structural(self, i, n):
        hits = np.nonzero(np.abs(self.T[i, :n]) > self.eps)[0]
        return int(hits[0]) if hits.size else -1

    def drop(self, rows):
        if rows:
            self.T = np.delete(self.T, rows, axis=0)

    def price(self, values, signs, basis):
        """Replace the reduced-cost row by that of the cost sign * value."""
        cost = [float(s * v) for s, v in zip(signs, values)]
        self.red = np.zeros(self.T.shape[1])
        self.red[:len(cost)] = cost
        for i, j in enumerate(basis):
            if cost[j] != 0.0:
                self.red -= cost[j] * self.T[i]

    def value(self, i):
        return float(self.T[i, -1])

    @staticmethod
    def dot(a, b):
        return float(np.dot(np.array(a, dtype=float), np.array(b, dtype=float)))
