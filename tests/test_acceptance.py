"""Acceptance gate: every reproduction criterion at its stated tolerance.

Each criterion prints one pass/fail line; the suite fails if any criterion
does. Criterion bodies live in gptsim.reproduce so the command line shares
them (gptsim reproduce all).
"""

import pytest

from gptsim import lp
from gptsim.reproduce import CRITERIA, run_criterion
from gptsim.spaces import dual_cone_rays

# The LP work of each criterion, (solves, pivots). `gptsim reproduce all`
# reports only the sum (1852, 18956), which keeps its value when one
# criterion's work moves to another. Each criterion starts from empty ray
# and basis caches, so the counts do not depend on the order in which the
# criteria or the other test modules run; a refinement decided from a
# stored basis is no solve.
LP_WORK = {
    "polygon-counts": (0, 0),
    "square-bit-universality": (306, 2431),
    "qubit-ct-threshold": (224, 3228),
    "tetrahedron": (4, 35),
    "hexagon-noise": (6, 83),
    "qubit-triplet-compat": (24, 891),
    "closure-laws": (505, 7065),
    "structural-cross-validation": (364, 2668),
    "noise-content": (70, 517),
    "exact-float-agreement": (349, 2038),
}


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    dual_cone_rays.cache_clear()
    lp.reset_stats()
    result = run_criterion(cid)
    print(f"[{'pass' if result.passed else 'FAIL'}] {cid}: {result.details}")
    assert result.passed, result.details
    assert (lp.stats["solves"], lp.stats["pivots"]) == LP_WORK[cid]
