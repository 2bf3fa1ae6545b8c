"""Summation-by-parts operators exact on general function spaces.

Build positive quadrature rules tied to a function space, derive the
matching derivative operator D = P^{-1} Q with the summation-by-parts
structure Q + Q^T = B, and integrate model conservation laws on
multi-block grids with provably bounded energy.

Operator searches log each rejected rung at DEBUG on the ``sbpkit``
logger, which is silent unless the application configures logging.
"""

import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .spaces import (
    FunctionSpace,
    Interval,
    UNIT_INTERVAL,
    affine_map,
    exponential_space,
    make_space,
    polynomial_space,
    rbf_cubic_space,
    trigonometric_space,
    vandermonde,
    vandermonde_derivative,
)
from .quadrature import (
    ExactnessReport,
    QuadratureError,
    QuadratureRule,
    find_positive_rule,
    gauss_lobatto_rule,
    least_squares_rule,
    trapezoid_rule,
    verify_exactness,
)
from .operators import (
    FsbpOperator,
    OperatorError,
    SbpReport,
    build_operator,
    find_operator,
    read_operator,
    verify_sbp,
    write_operator,
)
from .solver import (
    BlockState,
    InstabilityError,
    ProblemSpec,
    RunResult,
    rhs_advection,
    rhs_burgers,
    run,
    ssprk33_step,
)
from .diagnostics import (
    ConvergenceRow,
    DiagnosticsRecord,
    ErrorReport,
    burgers_reference,
    convergence_table,
    energy,
    error_report,
    mass,
    reference_solution,
)

__version__ = "0.1.0"
