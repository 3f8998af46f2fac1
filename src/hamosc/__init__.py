"""Oscillation analysis of 4-dimensional linear Hamiltonian systems.

The package decides oscillation or non-oscillation of the matrix system
Phi' = A Phi + B Psi, Psi' = C Phi - A* Psi (2x2 complex blocks,
Hermitian B and C) two independent ways: scalar Riccati criteria with
numerically certified hypotheses, and direct integration of conjoined
solutions with determinant zero detection. The two routes cross-check
each other; see the ``criteria`` module and the ``hamosc`` CLI.
"""

__version__ = "0.1.0"

from .coefsys import (  # noqa: F401
    Scenario,
    make_family,
    from_table,
    load_table_csv,
    validate_scenario,
)
from .criteria import (  # noqa: F401
    AnalysisOptions,
    AnalysisResult,
    CriteriaConflict,
    CriterionReport,
    CrossValidation,
    Verdict,
    analyze,
    cross_validate,
    scalar_osc_test,
)
from .odeint import (  # noqa: F401
    Trajectory,
    adaptive_solve,
    detect_det_zeros,
    solve_hamiltonian_frame,
)

__all__ = [
    "__version__",
    "Scenario",
    "make_family",
    "from_table",
    "load_table_csv",
    "validate_scenario",
    "AnalysisOptions",
    "AnalysisResult",
    "CriteriaConflict",
    "CriterionReport",
    "CrossValidation",
    "Verdict",
    "analyze",
    "cross_validate",
    "scalar_osc_test",
    "Trajectory",
    "adaptive_solve",
    "detect_det_zeros",
    "solve_hamiltonian_frame",
]
