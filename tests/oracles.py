"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own computational paths: eigenvalues
come from numpy on explicit 2x2 matrices, polytope noise content from a
direct minimum over extreme states, and simulability of dichotomic targets
from a dense grid over mixing weights where that is tractable.
"""

import numpy as np

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
