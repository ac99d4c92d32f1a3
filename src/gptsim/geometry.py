"""Convex geometry primitives built on the LP core.

Rank via pivoted elimination, deterministic conic decomposition with
separating functionals, and extreme-ray enumeration for low-dimensional
inequality cones. Convex-hull membership is conic decomposition of the
lifted point (point, 1) over the lifted generators (g, 1). Both verdicts of
both queries replay against the definition on the vector and the rays
(`replay_conic`), so a fault in the program `conic_decompose` builds cannot
pass its own replay.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lp import INFEASIBLE, UNBOUNDED, lp_solve, make_program
from .scalars import DEFAULT_TOLERANCE, Tolerance, cleared, field, infer_mode, refutes, vdot, vscale

INSIDE = "inside"
OUTSIDE = "outside"


def rank(vectors: Sequence[Sequence], tol: Tolerance = DEFAULT_TOLERANCE,
         mode: Optional[str] = None) -> int:
    """Rank of a list of equal-length vectors by elimination with pivoting.

    Exact over rationals; in float mode a pivot below eps (relative to
    the largest entry) counts as zero. An empty list has rank 0.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return 0
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ValueError("rank: vectors must share one dimension")
    F = field(mode or infer_mode(x for v in vectors for x in v), tol)
    _, pivots = _eliminate(vectors, F, reduce_above=False)
    return len(pivots)


def null_space_vector(vectors: Sequence[Sequence], tol: Tolerance = DEFAULT_TOLERANCE,
                      mode: Optional[str] = None):
    """One nonzero kernel vector of the stack of row vectors, or None.

    Deterministic: full elimination, first free column set to one, first
    nonzero entry made positive.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return None
    F = field(mode or infer_mode(x for v in vectors for x in v), tol)
    n_cols = len(vectors[0])
    rows, pivots = _eliminate(vectors, F, reduce_above=True)
    pivot_cols = {c for (_, c) in pivots}
    free = [c for c in range(n_cols) if c not in pivot_cols]
    if not free:
        return None
    fc = free[0]
    out = [F.zero] * n_cols
    out[fc] = F.one
    for (i, c) in pivots:
        out[c] = -rows[i][fc] / rows[i][c]
    return _leading_positive(out)


def _leading_positive(vector) -> tuple:
    """The vector, negated if its first nonzero entry is negative."""
    lead = next((x for x in vector if x != 0), 0)
    return tuple(-x for x in vector) if lead < 0 else tuple(vector)


def _eliminate(vectors, F, reduce_above):
    """Gaussian elimination with partial pivoting in the field F.

    Returns the reduced rows and the (row, column) pivots. Rows below each
    pivot are cleared; with reduce_above, rows above it too. In float mode a
    pivot must exceed eps times the largest entry (at least 1).
    """
    rows = [[F.coerce(x) for x in v] for v in vectors]
    thresh = F.eps and F.eps * max(
        1.0, max((abs(x) for r in rows for x in r), default=0.0))
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        piv, piv_val = -1, thresh
        for i in range(r, n_rows):
            if abs(rows[i][col]) > piv_val:
                piv, piv_val = i, abs(rows[i][col])
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i in range(0 if reduce_above else r + 1, n_rows):
            if i == r:
                continue
            f = rows[i][col] / prow[col]
            if f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append((r, col))
        r += 1
        if r == n_rows:
            break
    return rows, pivots


@dataclass(frozen=True)
class ConicResult:
    """Conic decomposition of a vector over given rays, or a refutation.

    An inside verdict from `conic_decompose` also carries the final basis
    and B^-1 of the LP whose solution the coefficients are (`LPOutcome`'s
    `basis` and `inverse`, ray indices as columns); neither field is part of
    the repr or equality."""

    verdict: str  # inside | outside
    coefficients: Optional[tuple] = None
    functional: Optional[tuple] = None
    basis: Optional[tuple] = dataclasses.field(default=None, repr=False, compare=False)
    inverse: Optional[object] = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def inside(self) -> bool:
        return self.verdict == INSIDE


def conic_decompose(v: Sequence, rays: Sequence[Sequence],
                    mode: Optional[str] = None,
                    tol: Tolerance = DEFAULT_TOLERANCE) -> ConicResult:
    """Write v as a nonnegative combination of the rays, deterministically.

    One LP with tie-breaks takes the lexicographic maximum of the
    coefficients in ray order, a vertex on at most dim rays. If one is
    unbounded (the ray span holds a line) before the earlier ones write all
    of v, the feasibility solve's vertex, which is not unique, stands in.
    Failure returns a separating functional phi with phi(v) > 0 >= phi(ray).
    """
    v = tuple(v)
    rays = [tuple(r) for r in rays]
    if not rays:
        raise ValueError("conic_decompose: rays must be nonempty")
    F = field(mode or infer_mode(x for r in rays + [v] for x in r), tol)
    for r in rays:
        if len(r) != len(v):
            raise ValueError("conic_decompose: dimension mismatch")
        if all(x == 0 for x in r):
            raise ValueError("conic_decompose: zero ray")
    rows = np.array(list(zip(*rays)), dtype=F.dtype)  # one column per ray
    units = [tuple(F.one if j == k else F.zero for j in range(len(rays)))
             for k in range(len(rays))]
    out = lp_solve(make_program(rows=rows, rhs=v, objective=units[0], tiebreaks=units[1:]), tol=tol)
    if out.verdict == INFEASIBLE:
        return ConicResult(OUTSIDE, functional=out.farkas)
    if out.verdict == UNBOUNDED:
        # coefficient k, the first the ray raises, is unbounded
        k = next((j for j, d in enumerate(out.ray) if d > F.eps), 0)
        if not F.is_zero(out.solution[k:]):
            out = lp_solve(make_program(rows=rows, rhs=v), tol=tol)
    return ConicResult(INSIDE, coefficients=out.solution, basis=out.basis, inverse=out.inverse)


def replay_conic(result: ConicResult, v: Sequence, rays: Sequence[Sequence],
                 tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Check a ConicResult against the definition, on v and the rays alone:
    one coefficient c_k >= -eps per ray with sum_k c_k r_k = v (`replay_inside`),
    or a functional phi as long as v with phi . r_k <= eps for every ray and
    phi . v > eps: the LP refutation test `scalars.refutes` with the rays as
    the columns of A and v as b, all cleared over one scale D
    (`scalars.cleared`), so that it reads D^2 times phi . r_k and phi . v.
    Exact values compare exactly and floats within eps, and an inf or a NaN
    fails. Rays of another length than v raise ValueError, and a float among
    Fractions raises ModeError, as mixed modes do everywhere."""
    if any(len(r) != len(v) for r in rays):
        raise ValueError("replay_conic: dimension mismatch")
    cert = result.coefficients if result.inside else result.functional
    if cert is None or len(cert) != (len(rays) if result.inside else len(v)):
        return False
    if result.inside:
        return replay_inside([cert], [v], [rays], tol)[0]
    F = field(infer_mode(x for part in (*rays, v, cert) for x in part), tol)
    X, R, V, _ = cleared(F, cert, [x for r in rays for x in r], v)
    return refutes(X, R.reshape(len(rays), len(v)).T, V, F.eps)


def replay_inside(coefficients: Sequence, vectors: Sequence, rays: Sequence,
                  tol: Tolerance = DEFAULT_TOLERANCE) -> list:
    """`replay_conic` of inside results, many at once: for each coefficient
    vector c, vector v and list of rays (as many rays as c has entries,
    the same count for all, each as long as v), whether every c_k >= -eps
    and sum_k c_k r_k = v. All parts are cleared over one scale D
    (`scalars.cleared`), so c R and v D are D^2 times sum_k c_k r_k and v:
    exact values compare exactly, floats within eps, and an inf or a NaN
    fails. Each c R is a (1, k) by (k, dim) product, one call of the
    matrix-vector kernel, so every float is the one the item alone gets."""
    if not vectors:
        return []
    F = field(infer_mode(itertools.chain(*coefficients, *vectors, *itertools.chain(*rays))), tol)
    count, k, dim = len(vectors), len(coefficients[0]), len(vectors[0])
    X, R, V, D = cleared(F, [c for cs in coefficients for c in cs],
                         [x for rs in rays for r in rs for x in r], [x for v in vectors for x in v])
    X, R, V = X.reshape(count, k), R.reshape(count, k, dim), V.reshape(count, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        return ((X >= -F.eps).all(axis=1)
                & (abs((X[:, None, :] @ R)[:, 0] - V * D) <= F.eps).all(axis=1)).tolist()


def in_convex_hull(point: Sequence, generators: Sequence[Sequence],
                   mode: Optional[str] = None,
                   tol: Tolerance = DEFAULT_TOLERANCE) -> ConicResult:
    """Decide membership of `point` in the convex hull of `generators`.

    The point is in the hull exactly when (point, 1) is in the cone of the
    lifted generators (g, 1), so this is `conic_decompose` on the lift:
    inside carries the lexicographic-maximum convex weights, outside a
    Farkas vector (phi, phi0) with phi.g + phi0 <= 0 < phi.point + phi0.
    """
    return conic_decompose((*point, 1), [(*g, 1) for g in generators], mode=mode, tol=tol)


def replay_hull(result: ConicResult, point: Sequence, generators: Sequence[Sequence],
                tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Check a hull verdict as the conic verdict of the lifted instance; the
    int 1 of the lift joins either mode."""
    return replay_conic(result, (*point, 1), [(*g, 1) for g in generators], tol)


MAX_RAY_DIM = 4


def extreme_rays(inequalities: Sequence[Sequence],
                 mode: Optional[str] = None,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> list:
    """Extreme rays of the cone {x : a.x >= 0 for every inequality vector a}.

    Facet-intersection enumeration for ambient dimension <= 4: every
    (dim-1)-subset of inequality vectors with rank dim-1 contributes its
    kernel direction when one orientation satisfies all inequalities and the
    tight set has rank exactly dim-1. Rays are canonicalized (last
    coordinate scaled to 1 when nonzero, otherwise unit norm, with a
    rational fallback in exact mode) and deduplicated.
    """
    ineqs = [tuple(a) for a in inequalities]
    if not ineqs:
        raise ValueError("extreme_rays: need at least one inequality")
    dim = len(ineqs[0])
    if dim > MAX_RAY_DIM:
        raise ValueError(f"extreme_rays: ambient dimension {dim} exceeds limit {MAX_RAY_DIM}")
    if any(len(a) != dim for a in ineqs):
        raise ValueError("extreme_rays: dimension mismatch")
    F = field(mode or infer_mode(x for a in ineqs for x in a), tol)
    eps = F.eps
    found = {}
    for subset in itertools.combinations(range(len(ineqs)), dim - 1):
        sub = [ineqs[i] for i in subset]
        if rank(sub, tol=tol, mode=F.mode) != dim - 1:
            continue
        direction = null_space_vector(sub, tol=tol, mode=F.mode)
        if direction is None:
            continue
        for cand in (direction, vscale(-1, direction)):
            vals = [vdot(a, cand) for a in ineqs]
            if all(x >= -eps for x in vals):
                tight = [ineqs[i] for i, x in enumerate(vals) if abs(x) <= eps]
                if rank(tight, tol=tol, mode=F.mode) == dim - 1:
                    ray = canonical_ray(cand, F.mode, tol)
                    found[F.key(ray)] = ray
                break
    return sorted(found.values())


def canonical_ray(ray: Sequence, mode: str, tol: Tolerance = DEFAULT_TOLERANCE):
    """Scale a ray to its canonical representative, in the numbers of the
    mode (an integer ray's entries become Fractions in exact mode)."""
    ray = tuple(ray)
    F = field(mode, tol)
    last = F.coerce(ray[-1])
    if abs(last) > F.eps:
        return tuple(x / last for x in ray)
    root = F.sqrt(sum(x * x for x in ray))
    if root is None:  # irrational norm in exact mode: the largest entry becomes 1
        root = F.coerce(abs(max(ray, key=abs)))
    return _leading_positive([x / root for x in ray])
