"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own computational paths: eigenvalues
come from numpy on explicit 2x2 matrices, polytope noise content from a
direct minimum over extreme states, simulability of dichotomic targets
from a dense grid over mixing weights where that is tractable, exact
LP outcomes from a dense simplex tableau of plain Fractions, the
minimally sufficient form from pairwise rank tests, and simulation
irreducibility from that form built as an `Observable`. `min_value`,
`price`, `is_extremal` and `refine` keep the per-effect cone formulas that
`min_values`, `prices`, `is_extremal` and `refine` answer for many effects
at once.
"""

from fractions import Fraction

import numpy as np

from gptsim.geometry import conic_decompose, rank
from gptsim.postprocessing import Postprocessing, is_postprocessing_clean, minimally_sufficient
from gptsim.qubit import QubitSpace
from gptsim.scalars import (DEFAULT_TOLERANCE, FLOAT, ModeError, field, kind_of, resolve, vdot,
                            vscale)
from gptsim.spaces import Effect, Observable, dual_cone_rays

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, 1]], dtype=complex) * 0 + np.array([[1, 0], [0, -1]], dtype=complex),
)
IDENTITY = np.eye(2, dtype=complex)


def qubit_matrix(coeffs):
    """tau * id + e.sigma / 2 of the linear coordinates (ex, ey, ez, tau)."""
    *e_vec, tau = coeffs
    m = float(tau) * IDENTITY
    for c, s in zip(e_vec, SIGMA):
        m = m + 0.5 * float(c) * s
    return m


def qubit_min_eigenvalue(coeffs) -> float:
    return float(np.linalg.eigvalsh(qubit_matrix(coeffs))[0])


def _qubit_spectrum(coeffs, tol):
    """The field of one qubit effect, tau, its Bloch part and its norm."""
    if len(coeffs) != 4:
        raise ValueError(f"dimension mismatch {len(coeffs)} vs 4")
    *bloch, tau = coeffs
    F = resolve((kind_of(coeffs),), tol)
    norm = F.sqrt(sum(x * x for x in bloch))
    if norm is None:
        raise ModeError("exact qubit effect with an irrational Bloch norm")
    return F, tau, bloch, norm


def min_value(space, coeffs):
    """The least value of one effect on a state, one effect at a time: the
    qubit's tau - ||e|| / 2, or a polytope's least `vdot` over its extreme
    states (a Fraction when neither side holds a float)."""
    if isinstance(space, QubitSpace):
        F, tau, _, norm = _qubit_spectrum(coeffs, DEFAULT_TOLERANCE)
        return F.coerce(tau) - norm / 2
    least = min(vdot(coeffs, s) for s in space.extreme_states)
    return least if space.kind == FLOAT or kind_of(coeffs) == FLOAT else Fraction(least)


def price(space, z, tol=DEFAULT_TOLERANCE) -> tuple:
    """(value, effect) for one functional z: the qubit's 2 ||a|| + b with
    (a / ||a||, 1/2), or a polytope's max over rays r of z.r / r(c), c the
    barycenter of its extreme states, with the first ray attaining it."""
    if isinstance(space, QubitSpace):
        F, b, a, norm = _qubit_spectrum(z, tol)
        d = tuple(x / norm for x in a) if norm else (F.zero, F.zero, F.one)
        return 2 * norm + b, (*d, F.one / 2)
    n = len(space.extreme_states)
    c = [field(space.mode).coerce(sum(x)) / n for x in zip(*space.extreme_states)]
    return max(((vdot(z, r) / vdot(r, c), r) for r in dual_cone_rays(space, tol)),
               key=lambda pair: pair[0])


def is_extremal(space, coeffs, tol=DEFAULT_TOLERANCE) -> bool:
    """Whether one effect spans an extreme ray: the qubit's ||e|| = 2 tau > 0,
    or a polytope's tight-state test, from the `vdot` of the effect with
    each extreme state and a rank of its tight set computed afresh."""
    if isinstance(space, QubitSpace):
        *bloch, tau = coeffs
        F = resolve((kind_of(coeffs),), tol)
        norm = F.sqrt(sum(x * x for x in bloch))
        return 2 * tau > F.eps and norm is not None and abs(norm - 2 * tau) <= F.eps
    F = resolve((space.kind, kind_of(coeffs)), tol)
    values = [vdot(coeffs, s) for s in space.extreme_states]
    if not min(values) >= -F.eps:
        return False
    tight = [s for s, v in zip(space.extreme_states, values) if v <= F.eps]
    return (len(tight) >= space.ambient_dim - 1
            and rank(tight, tol=tol, mode=F.mode) == space.ambient_dim - 1)


def refine(space, coeffs, tol=DEFAULT_TOLERANCE) -> list:
    """The parts of one effect, as coefficient tuples: none for the zero
    effect; for the qubit, its spectral split along the Bloch direction (a
    multiple of the identity along z); for a polytope, the effect itself
    when it is extremal, else the positive terms of one `conic_decompose`
    solve over the dual-cone rays, with ValueError outside the cone."""
    if isinstance(space, QubitSpace):
        F, tau, bloch, norm = _qubit_spectrum(coeffs, tol)
        if 2 * tau <= F.eps and norm <= F.eps:
            return []
        if norm <= F.eps:
            c = F.coerce(tau)
            return [(F.zero, F.zero, c, c / 2), (F.zero, F.zero, -c, c / 2)]
        d = [x / norm for x in bloch]
        plus, minus = (2 * tau + norm) / 2, (2 * tau - norm) / 2
        return [(*(plus * x for x in d), plus / 2)] + (
            [(*(-minus * x for x in d), minus / 2)] if minus > F.eps else [])
    F = resolve((space.kind, kind_of(coeffs)), tol)
    if F.is_zero(coeffs):
        return []
    if is_extremal(space, coeffs, tol):
        return [tuple(coeffs)]
    rays = dual_cone_rays(space, tol)
    res = conic_decompose(coeffs, rays, mode=F.mode, tol=tol)
    if not res.inside:
        raise ValueError("effect lies outside the positive dual cone")
    return [vscale(c, r) for c, r in zip(res.coefficients, rays) if c > F.eps]


def qubit_noise_content_grid(obs, steps: int = 20001) -> float:
    """Dense grid over lambda: feasible iff lambda t_x <= min-eig(A_x) can
    hold with the t summing to one, i.e. iff lambda <= sum of min-eigs."""
    mineigs = [max(qubit_min_eigenvalue(e.coeffs), 0.0) for e in obs.effects]
    best = 0.0
    for k in range(steps):
        lam = k / (steps - 1)
        if lam <= sum(mineigs) + 1e-12:
            best = lam
    return best


def polytope_noise_content_direct(obs) -> float:
    """Per-outcome minimum over extreme states, summed."""
    total = 0.0
    for eff in obs.effects:
        total += max(0.0, min(float(np.dot(np.asarray(eff.coeffs, dtype=float),
                                           np.asarray(s, dtype=float)))
                              for s in obs.space.extreme_states))
    return total


def rank_float(vectors, tol=1e-9) -> int:
    if not vectors:
        return 0
    m = np.asarray(vectors, dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))


def fraction_simplex(program, stall_limit):
    """Two-phase simplex on a dense tableau of Fractions, with the rules of
    `gptsim.lp`, for an exact program.

    Rows with a negative right-hand side are negated, and row i starts on
    the unit column that `program.start` names for it, or else on its
    artificial column n + i. Both phases minimize: phase 1 the sum of the
    artificials that start basic, phase 2 the negated objective, then each
    tie-break
    with the columns of nonzero reduced cost fixed at zero. The entering
    column has the least reduced cost (the first on ties) until the
    objective has stalled for more than `stall_limit` pivots, and from then
    on the first negative one; the leaving row has the least ratio, ties to
    the smallest basic index.
    After phase 1 each basic artificial is pivoted out on its row's first
    nonzero structural column, or its row dropped when there is none.

    Returns (verdict, solution, farkas, ray, objective value, pivots) as
    `lp_solve` reports them; the pivot count leaves out drive-out pivots and
    those of an objective found unbounded.
    """
    zero, one = Fraction(0), Fraction(1)
    m, n = len(program.rows), program.num_vars
    flips = [-1 if b < 0 else 1 for b in program.rhs]
    A = [[f * Fraction(x) for x in r] + [f * Fraction(b)]
         for r, b, f in zip(program.rows, program.rhs, flips)]
    T = [row[:n] + [one if k == i else zero for k in range(m)] + row[n:]
         for i, row in enumerate(A)]
    basis = list(range(n, n + m))
    for i, j in program.start:
        basis[i] = j
    cost = [zero] * n + [one if j >= n else zero for j in basis] + [zero]

    def price(cost):  # the reduced-cost row of `cost`, kept as T's last row
        red = list(cost)
        for i, j in enumerate(basis):
            red = [r - cost[j] * x for r, x in zip(red, T[i])]
        T.append(red)

    def pivot(r, col):
        T[r] = [x / T[r][col] for x in T[r]]
        for i in range(len(T)):
            if i != r and T[i][col]:
                f = T[i][col]
                T[i] = [x - f * y for x, y in zip(T[i], T[r])]

    def optimize(pivots):
        stall, bland, prev = 0, False, T[-1][-1]
        while True:
            neg = [j for j in range(n) if T[-1][j] < 0]
            if not neg:
                return pivots, -1
            col = neg[0] if bland else min(neg, key=lambda j: T[-1][j])
            rows = [i for i in range(len(basis)) if T[i][col] > 0]
            if not rows:
                return pivots, col
            r = min(rows, key=lambda i: (T[i][-1] / T[i][col], basis[i]))
            pivot(r, col)
            basis[r] = col
            pivots += 1
            if T[-1][-1] == prev:
                stall += 1
                bland = bland or stall > stall_limit
            else:
                stall = 0
            prev = T[-1][-1]

    price(cost)
    pivots, _ = optimize(0)
    if T[-1][-1] < 0:  # minus the artificial sum
        # Dual values c_B B^-1 of the negated rows, from the reduced costs
        # of the artificial columns.
        y = [cost[n + i] - T[-1][n + i] for i in range(m)]
        scale = sum(v * abs(Fraction(b)) for v, b in zip(y, program.rhs))
        farkas = tuple(v * f / scale for v, f in zip(y, flips))
        return ("infeasible", None, farkas, None, None, pivots)

    dead = []
    for i, j in enumerate(basis):
        if j >= n:
            col = next((k for k in range(n) if T[i][k]), -1)
            if col < 0:
                dead.append(i)
            else:
                pivot(i, col)
                basis[i] = col
    for i in reversed(dead):
        del T[i], basis[i]

    fixed, ray = set(), None
    for k, objective in enumerate(program.objectives()):
        if k:
            cols = [j for j in range(n) if T[-1][j]]
            for row in T:
                for j in cols:
                    row[j] = zero
            fixed.update(cols)
            if len(fixed) + len(basis) == n:
                break
        T.pop()
        price([zero if j in fixed else -Fraction(c) for j, c in enumerate(objective)]
              + [zero] * (m + 1))
        total, col = optimize(pivots)
        if col >= 0:
            ray = [zero] * n
            ray[col] = one
            for i, j in enumerate(basis):
                ray[j] = -T[i][col]
            ray = tuple(ray)
            break
        pivots = total
    solution = [zero] * n
    for i, j in enumerate(basis):
        solution[j] = T[i][-1]
    value = None
    if ray is None and program.objective is not None:
        value = sum(Fraction(c) * x for c, x in zip(program.objective, solution))
    return ("unbounded" if ray else "feasible", tuple(solution), None, ray, value, pivots)


def minimally_sufficient_pairwise(obs, tol=DEFAULT_TOLERANCE):
    """(merged, forward, backward) of `minimally_sufficient_with_channels`,
    with the nonzero effects grouped pairwise: each joins the first group
    whose first effect has rank one with it (`geometry.rank`), up to n^2 / 2
    eliminations. The one intended difference from the library: in float
    mode it groups by the eps grid cell (`Field.key`) of each effect's
    canonical ray, as `simulation.decompose_to_irreducibles` already does,
    where this takes a pivot above eps times the largest entry as rank two;
    effects proportional up to rounding fall into one group either way."""
    F = field(obs.mode, tol)
    groups = []
    for i, eff in enumerate(obs.effects):
        if F.is_zero(eff.coeffs):
            continue
        for grp in groups:
            if rank([obs.effects[grp[0]].coeffs, eff.coeffs], tol=tol, mode=F.mode) == 1:
                grp.append(i)
                break
        else:
            groups.append([i])
    reps = []
    for grp in groups:
        coeffs = obs.effects[grp[0]].coeffs
        for i in grp[1:]:
            coeffs = tuple(a + b for a, b in zip(coeffs, obs.effects[i].coeffs))
        reps.append((min(obs.labels[i] for i in grp), Effect(coeffs), grp))
    reps.sort(key=lambda t: t[0])
    merged = Observable(tuple((lab, eff) for lab, eff, _ in reps), obs.space)
    target = merged.labels
    fwd_rows = []
    for i in range(obs.n_outcomes):
        dest = next((lab for lab, _, grp in reps if i in grp), target[0])
        fwd_rows.append(tuple(F.one if t == dest else F.zero for t in target))
    back_rows = []
    for _, eff, grp in reps:
        total = eff.coeffs
        j = max(range(len(total)), key=lambda k: abs(total[k]))
        back_rows.append(tuple(obs.effects[i].coeffs[j] / total[j] if i in grp else F.zero
                               for i in range(obs.n_outcomes)))
    return (merged, Postprocessing(obs.labels, target, tuple(fwd_rows)),
            Postprocessing(target, obs.labels, tuple(back_rows)))


def simulation_irreducible_by_definition(obs, tol=DEFAULT_TOLERANCE):
    """The paper's criterion read off the minimally sufficient `Observable`
    itself: postprocessing clean (`is_postprocessing_clean`) and effects of
    full rank, in that observable's own field; more effects than the space
    has dimensions are answered False once the space and the form agree on
    field, with the errors of each step."""
    if obs.space is None:
        raise ValueError("simulation irreducibility needs the state space")
    hat = minimally_sufficient(obs, tol)
    if hat.n_outcomes > obs.space.ambient_dim == hat.dim:
        resolve((obs.space.kind, hat.kind), tol)
        return False
    return (is_postprocessing_clean(hat, tol)
            and rank([e.coeffs for e in hat.effects], tol=tol, mode=hat.mode) == hat.n_outcomes)
