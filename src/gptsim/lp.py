"""Linear programming with feasibility and infeasibility certificates.

Problems are stated over equality constraints `A x = b` with per-variable
nonnegativity flags and an optional linear objective. Two backends share one
two-phase simplex structure: an exact backend over `fractions.Fraction`
(used whenever the inputs are rational) and a float backend on numpy arrays
with tolerance-based comparisons.

Every verdict is checkable after the fact: a feasible outcome carries the
solution vector, an infeasible outcome carries a Farkas vector y with
y'A <= 0 on nonnegative columns, y'A = 0 on free columns and y'b = 1
(certificates are normalized to y'b = 1). `verify_solution` and
`verify_farkas` replay either certificate against the original program.
Code that builds an answer from a certificate raises `CertificateError`
when the certificate fails that replay, so it never returns it.

Pivoting uses the largest-coefficient rule and switches permanently to
Bland's rule as soon as the objective stalls, which resolves degeneracy and
guarantees termination in exact mode. Float mode additionally caps the
pivot count at 10**4 * (variables + constraints) and raises
SolverLimitError instead of returning a verdict when the cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    if mode == EXACT:
        return _solve_exact(program)
    return _solve_float(program, tol)


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
# Standard-form conversion shared by both backends.
#
# Free variables are split x = x+ - x-; colmap records (variable, sign) per
# standard-form column so solutions map back and Farkas handling is uniform.
# ---------------------------------------------------------------------------

def _standard_form(program: LinearProgram, coerce):
    colmap = []
    for j, flag in enumerate(program.nonneg):
        colmap.append((j, 1))
        if not flag:
            colmap.append((j, -1))
    rows = []
    for r in program.rows:
        rows.append([sign * r[j] for (j, sign) in colmap])
    if program.objective is None:
        cost = None
    else:
        flip = -1 if program.sense == "max" else 1
        cost = [coerce(flip * sign * program.objective[j]) for (j, sign) in colmap]
    rhs = list(program.rhs)
    return rows, rhs, cost, colmap


def _recover_solution(xs, colmap, num_vars, zero):
    out = [zero] * num_vars
    for val, (j, sign) in zip(xs, colmap):
        out[j] = out[j] + (val if sign == 1 else -val)
    return tuple(out)


def _crash_columns(rows, m, n):
    """Pick singleton columns as a partial starting basis.

    A column appearing with a positive coefficient in exactly one row can
    serve as that row's basic variable directly, so only the remaining rows
    need artificial variables in phase 1. Returns {row: column}.
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


# ---------------------------------------------------------------------------
# Exact backend: dense tableau over Fraction.
# ---------------------------------------------------------------------------

def _solve_exact(program: LinearProgram) -> LPOutcome:
    rows, rhs, cost, colmap = _standard_form(program, Fraction)
    m, n = len(rows), len(colmap)
    rows = [[Fraction(x) for x in r] for r in rows]
    rhs = [Fraction(b) for b in rhs]
    flips = []
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            flips.append(-1)
        else:
            flips.append(1)

    crash = _crash_columns(rows, m, n)
    crash_coeff = {i: rows[i][j] for i, j in crash.items()}
    art_rows = [i for i in range(m) if i not in crash]
    art_col = {i: n + k for k, i in enumerate(art_rows)}
    n_art = len(art_rows)
    width = n + n_art + 1

    T = []
    basis = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * n_art + [rhs[i]]
        if i in crash:
            piv = crash_coeff[i]
            if piv != 1:
                row = [x / piv for x in row]
            basis.append(crash[i])
        else:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        T.append(row)

    # Phase 1 reduced costs for minimizing the artificial sum.
    red = [Fraction(0)] * width
    for j in range(width):
        red[j] = -sum(T[i][j] for i in art_rows)
    for i in art_rows:
        red[art_col[i]] = Fraction(0)

    pivots = _pivot_loop(T, basis, red, allowed=n)
    if pivots is None:
        raise RuntimeError("phase 1 cannot be unbounded")
    phase1 = -red[width - 1]
    if phase1 > 0:
        y = [Fraction(0)] * m
        for i in range(m):
            if i in crash:
                y[i] = flips[i] * (-red[crash[i]] / crash_coeff[i])
            else:
                y[i] = flips[i] * (1 - red[art_col[i]])
        scale = vdot(y, program.rhs)
        if not scale > 0:
            raise RuntimeError("Farkas scale must be positive")
        y = tuple(v / scale for v in y)
        stats["pivots"] += pivots
        return LPOutcome(INFEASIBLE, EXACT, farkas=y, pivots=pivots)

    _drive_out_artificials(T, basis, n)

    if cost is None:
        sol = _recover_solution(_basic_solution(T, basis, n), colmap,
                                program.num_vars, Fraction(0))
        stats["pivots"] += pivots
        return LPOutcome(FEASIBLE, EXACT, solution=sol, pivots=pivots)

    if not T and any(c < 0 for c in cost):
        stats["pivots"] += pivots
        return LPOutcome(UNBOUNDED, EXACT, pivots=pivots)

    width = len(T[0]) if T else n + 1
    red = [Fraction(0)] * width
    for j in range(n):
        red[j] = cost[j]
    for i in range(len(basis)):
        cb = cost[basis[i]] if basis[i] < n else Fraction(0)
        if cb != 0:
            for j in range(width):
                red[j] -= cb * T[i][j]
    more = _pivot_loop(T, basis, red, allowed=n)
    if more is None:
        stats["pivots"] += pivots
        return LPOutcome(UNBOUNDED, EXACT, pivots=pivots)
    pivots += more
    sol = _recover_solution(_basic_solution(T, basis, n), colmap,
                            program.num_vars, Fraction(0))
    value = vdot(program.objective, sol)
    stats["pivots"] += pivots
    return LPOutcome(FEASIBLE, EXACT, solution=sol, objective_value=value, pivots=pivots)


def _basic_solution(T, basis, n):
    xs = [Fraction(0)] * n
    if not T:
        return xs
    last = len(T[0]) - 1
    for i in range(len(basis)):
        if basis[i] < n:
            xs[basis[i]] = T[i][last]
    return xs


def _pivot_loop(T, basis, red, allowed):
    """Exact simplex pivots to optimality on the given reduced-cost row.

    Returns the pivot count, or None when an unbounded direction is found.
    Entering columns are restricted to indices < allowed so artificial
    columns never re-enter. Largest-coefficient rule until the objective
    stalls, then Bland's rule.
    """
    last = len(T[0]) - 1 if T else 0
    pivots = 0
    stall = 0
    bland = False
    prev_obj = red[last] if T else None
    while T:
        col = -1
        if bland:
            for j in range(allowed):
                if red[j] < 0:
                    col = j
                    break
        else:
            best = Fraction(0)
            for j in range(allowed):
                if red[j] < best:
                    best = red[j]
                    col = j
        if col < 0:
            return pivots
        row = -1
        best_ratio = None
        for i in range(len(T)):
            a = T[i][col]
            if a > 0:
                ratio = T[i][last] / a
                if best_ratio is None or ratio < best_ratio or \
                        (ratio == best_ratio and basis[i] < basis[row]):
                    best_ratio = ratio
                    row = i
        if row < 0:
            return None
        _pivot(T, basis, red, row, col)
        pivots += 1
        if red[last] == prev_obj:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        prev_obj = red[last]
    return pivots


def _pivot(T, basis, red, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    prow = T[row]
    width = len(prow)
    for i in range(len(T)):
        if i == row:
            continue
        f = T[i][col]
        if f == 0:
            continue
        Ti = T[i]
        for j in range(width):
            Ti[j] = Ti[j] - f * prow[j]
    f = red[col]
    if f != 0:
        for j in range(width):
            red[j] = red[j] - f * prow[j]
    basis[row] = col


def _drive_out_artificials(T, basis, n):
    """Pivot zero-level artificial variables out of the basis.

    Rows whose structural coefficients are all zero are redundant and
    removed outright.
    """
    dead = []
    zero_red = None
    for i in range(len(basis)):
        if basis[i] < n:
            continue
        col = -1
        for j in range(n):
            if T[i][j] != 0:
                col = j
                break
        if col >= 0:
            if zero_red is None:
                zero_red = [Fraction(0)] * len(T[i])
            _pivot(T, basis, zero_red, i, col)
        else:
            dead.append(i)
    for i in reversed(dead):
        del T[i]
        del basis[i]


# ---------------------------------------------------------------------------
# Float backend: numpy tableau, same algorithm.
# ---------------------------------------------------------------------------

def _solve_float(program: LinearProgram, tol: Tolerance) -> LPOutcome:
    rows, rhs, cost, colmap = _standard_form(program, float)
    m, n = len(rows), len(colmap)
    A = np.array(rows, dtype=float).reshape(m, n)
    b = np.array(rhs, dtype=float)
    flips = np.where(b < 0, -1.0, 1.0)
    A = A * flips[:, None]
    b = b * flips

    nonzero = A != 0.0
    col_counts = nonzero.sum(axis=0)
    crash_rows = np.full(m, -1, dtype=int)
    crash_cols = np.full(m, -1, dtype=int)
    crash_coeff = np.ones(m)
    taken = np.zeros(m, dtype=bool)
    for j in np.nonzero(col_counts == 1)[0]:
        i = int(np.argmax(nonzero[:, j]))
        if not taken[i] and A[i, j] > 0:
            taken[i] = True
            crash_rows[i] = i
            crash_cols[i] = j
            crash_coeff[i] = A[i, j]
    art_rows = np.nonzero(~taken)[0]
    n_art = len(art_rows)
    art_col = {int(i): n + k for k, i in enumerate(art_rows)}

    T = np.hstack([A, np.zeros((m, n_art)), b[:, None]])
    basis = []
    for i in range(m):
        if taken[i]:
            if crash_coeff[i] != 1.0:
                T[i] /= crash_coeff[i]
            basis.append(int(crash_cols[i]))
        else:
            T[i, art_col[i]] = 1.0
            basis.append(art_col[i])
    red = -T[art_rows].sum(axis=0) if n_art else np.zeros(T.shape[1])
    for i in art_rows:
        red[art_col[int(i)]] = 0.0

    cap = 10_000 * (program.num_vars + m)
    pivots = _np_pivot_loop(T, basis, red, allowed=n, tol=tol, cap=cap)
    if pivots is None:
        raise RuntimeError("phase 1 cannot be unbounded")
    phase1 = -red[-1]
    if phase1 > tol.eps_feas:
        y = np.zeros(m)
        for i in range(m):
            if taken[i]:
                y[i] = -red[int(crash_cols[i])] / crash_coeff[i]
            else:
                y[i] = 1.0 - red[art_col[i]]
        y *= flips
        scale = float(np.dot(y, np.array([float(v) for v in program.rhs])))
        y = y / scale
        stats["pivots"] += pivots
        return LPOutcome(INFEASIBLE, FLOAT, farkas=tuple(float(v) for v in y),
                         tolerance=tol, pivots=pivots)

    T, basis = _np_drive_out(T, basis, n, tol)
    if cost is None:
        sol = _np_solution(T, basis, n, colmap, program.num_vars)
        stats["pivots"] += pivots
        return LPOutcome(FEASIBLE, FLOAT, solution=sol, tolerance=tol, pivots=pivots)

    if T.shape[0] == 0 and min(cost, default=0.0) < -tol.eps_rank:
        stats["pivots"] += pivots
        return LPOutcome(UNBOUNDED, FLOAT, tolerance=tol, pivots=pivots)

    c = np.zeros(T.shape[1])
    c[:n] = cost
    red = c.copy()
    for i, bi in enumerate(basis):
        if bi < n and cost[bi] != 0.0:
            red -= cost[bi] * T[i]
    more = _np_pivot_loop(T, basis, red, allowed=n, tol=tol, cap=cap)
    if more is None:
        stats["pivots"] += pivots
        return LPOutcome(UNBOUNDED, FLOAT, tolerance=tol, pivots=pivots)
    pivots += more
    sol = _np_solution(T, basis, n, colmap, program.num_vars)
    value = float(np.dot(np.array([float(v) for v in program.objective]),
                         np.array(sol)))
    stats["pivots"] += pivots
    return LPOutcome(FEASIBLE, FLOAT, solution=sol, objective_value=value,
                     tolerance=tol, pivots=pivots)


def _np_solution(T, basis, n, colmap, num_vars):
    xs = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            xs[bi] = T[i, -1]
    return _recover_solution(xs.tolist(), colmap, num_vars, 0.0)


def _np_pivot_loop(T, basis, red, allowed, tol, cap):
    eps = tol.eps_rank
    pivots = 0
    stall = 0
    bland = False
    prev_obj = red[-1]
    while True:
        cand = red[:allowed]
        if bland:
            hits = np.nonzero(cand < -eps)[0]
            col = int(hits[0]) if hits.size else -1
        else:
            col = int(np.argmin(cand)) if allowed else -1
            if col >= 0 and cand[col] >= -eps:
                col = -1
        if col < 0:
            return pivots
        colvals = T[:, col]
        ok = colvals > eps
        if not ok.any():
            return None
        ratios = np.full(len(basis), np.inf)
        ratios[ok] = T[ok, -1] / colvals[ok]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + eps * (1 + abs(best)))[0]
        row = int(min(ties, key=lambda i: basis[i]))
        _np_pivot(T, basis, red, row, col)
        pivots += 1
        if cap is not None and pivots > cap:
            raise SolverLimitError(
                f"simplex exceeded {cap} pivots; reporting nontermination")
        if abs(red[-1] - prev_obj) <= tol.eps_compare:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        prev_obj = red[-1]


def _np_pivot(T, basis, red, row, col):
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    if red[col] != 0.0:
        red -= red[col] * T[row]
    basis[row] = col


def _np_drive_out(T, basis, n, tol):
    eps = tol.eps_rank
    keep = []
    for i in range(len(basis)):
        if basis[i] < n:
            keep.append(i)
            continue
        structural = np.nonzero(np.abs(T[i, :n]) > eps)[0]
        if structural.size:
            col = int(structural[0])
            _np_pivot(T, basis, np.zeros(T.shape[1]), i, col)
            keep.append(i)
        # else: redundant row, dropped below
    if len(keep) != len(basis):
        T = T[keep]
        basis = [basis[i] for i in keep]
    return T, basis
