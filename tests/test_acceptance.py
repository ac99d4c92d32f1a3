"""Acceptance gate: every reproduction criterion at its stated tolerance.

Each criterion prints one pass/fail line; the suite fails if any criterion
does. Criterion bodies live in gptsim.reproduce so the command line shares
them (gptsim reproduce all).
"""

import pytest

from gptsim import lp
from gptsim.reproduce import CRITERIA, run_criterion

# The LP work of each criterion, (solves, pivots). `gptsim reproduce all`
# reports only the sum (2788, 27433), which keeps its value when one
# criterion's work moves to another. The counts do not depend on the order
# in which the criteria run.
LP_WORK = {
    "polygon-counts": (0, 0),
    "square-bit-universality": (306, 2343),
    "qubit-ct-threshold": (224, 3446),
    "tetrahedron": (4, 42),
    "hexagon-noise": (6, 83),
    "qubit-triplet-compat": (24, 1859),
    "closure-laws": (505, 9225),
    "structural-cross-validation": (1300, 7077),
    "noise-content": (70, 622),
    "exact-float-agreement": (349, 2736),
}


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    lp.reset_stats()
    result = run_criterion(cid)
    print(f"[{'pass' if result.passed else 'FAIL'}] {cid}: {result.details}")
    assert result.passed, result.details
    assert (lp.stats["solves"], lp.stats["pivots"]) == LP_WORK[cid]
