"""Simulability of observables on convex operational state spaces.

A library for computing with finite-outcome observables in general
probabilistic theories: validity and structure checks, postprocessing
relations, simulability with replayable certificates, irreducible
decompositions, noise content, minimal simulation numbers, and complete
catalogs of simulation-irreducible observables on polygon state spaces.
"""

from .scalars import EXACT, FLOAT, DEFAULT_TOLERANCE, Tolerance, ModeError
from .lp import (
    CertificateError,
    LinearProgram,
    LPOutcome,
    SolverLimitError,
    lp_solve,
    make_program,
    verify_farkas,
    verify_solution,
)
from .geometry import (
    ConicResult,
    conic_decompose,
    extreme_rays,
    in_convex_hull,
    rank,
)
from .spaces import (
    Effect,
    Observable,
    StateSpace,
    decompose_into_indecomposables,
    dual_cone_rays,
    is_indecomposable,
    is_informationally_complete,
    is_valid_effect,
    is_valid_observable,
    mix_observables,
    observable,
    trivial_observable,
    validate_state_space,
)
from .postprocessing import (
    Postprocessing,
    apply,
    are_equivalent,
    binarization,
    is_postprocessing_clean,
    is_postprocessing_of,
    minimally_sufficient,
)
from .simulation import (
    IrreducibleDecomposition,
    NoiseContentResult,
    SimulationCertificate,
    check_closure_laws,
    decompose_to_irreducibles,
    dichotomic_hull_necessary,
    is_compatible,
    is_simulable,
    is_simulation_irreducible,
    noise_content,
    noise_monotonicity_check,
    replay_compatibility,
    replay_simulation,
    smin,
)
from .qubit import QubitEffect, QubitSpace
from .catalog import (
    IrreducibleCatalog,
    PolygonTheory,
    QubitSuite,
    classical,
    hexagon_noise_example,
    irreducible_count_formula,
    octahedron_test,
    polygon,
    polygon_irreducibles,
    qubit_compatibility_bracket,
    qubit_suite,
    random_observable,
    square_bit,
    xyz_threshold_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT", "FLOAT", "DEFAULT_TOLERANCE", "Tolerance", "ModeError",
    "CertificateError", "LinearProgram", "LPOutcome", "SolverLimitError", "lp_solve",
    "make_program", "verify_farkas", "verify_solution",
    "ConicResult", "conic_decompose", "extreme_rays", "in_convex_hull", "rank",
    "Effect", "Observable", "StateSpace", "decompose_into_indecomposables",
    "dual_cone_rays", "is_indecomposable", "is_informationally_complete",
    "is_valid_effect", "is_valid_observable", "mix_observables", "observable",
    "trivial_observable", "validate_state_space",
    "Postprocessing", "apply", "are_equivalent", "binarization",
    "is_postprocessing_clean", "is_postprocessing_of", "minimally_sufficient",
    "IrreducibleDecomposition", "NoiseContentResult", "SimulationCertificate",
    "check_closure_laws", "decompose_to_irreducibles", "dichotomic_hull_necessary",
    "is_compatible", "is_simulable", "is_simulation_irreducible", "noise_content",
    "noise_monotonicity_check", "replay_compatibility", "replay_simulation", "smin",
    "QubitEffect", "QubitSpace",
    "IrreducibleCatalog", "PolygonTheory", "QubitSuite", "classical",
    "hexagon_noise_example", "irreducible_count_formula", "octahedron_test",
    "polygon", "polygon_irreducibles", "qubit_compatibility_bracket",
    "qubit_suite", "random_observable", "square_bit", "xyz_threshold_bracket",
]
