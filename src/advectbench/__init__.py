"""Workbench for nine-point finite-difference schemes applied to the 1-D
linear transport equation: matricial assembly, error-equation solvers and
parameter sweeps."""

from .advect import (ErrorSummary, FieldMatrix, error_matrix, error_summary,
                     exact_solution, sample_exact, sample_nodes,
                     time_step_simulate)
from .assembly import (VARIANTS, AssembledProblem, apply_l, apply_operator,
                       assemble, build_m0, build_m1, build_m2,
                       global_operator, residual)
from .errors import (AdvectBenchError, InvalidSchemeError,
                     NumericalFailureError, SingularSystemError, UsageError)
from .linalg import (SchurForm, cod_factor, eigenvalues, frobenius_norm,
                     kron_vec_operator, schur_decompose,
                     smallest_singular_value, unvec, vec)
from .schemes import (BUILTIN_SCHEMES, Discretization, SchemeCoefficients,
                      SignalSpec, builtin_scheme, custom_scheme,
                      stencil_residual_at)
from .sylvester import (METHODS, ErrorEquationSolver, SolvabilityReport,
                        SylvesterProblem, diagnose, solve_bartels_stewart,
                        solve_error_equation, solve_kron_oracle,
                        solve_min_norm)

__all__ = [
    "AdvectBenchError", "InvalidSchemeError",
    "NumericalFailureError", "SingularSystemError", "UsageError",
    "SchurForm", "cod_factor", "eigenvalues", "frobenius_norm",
    "kron_vec_operator", "schur_decompose",
    "smallest_singular_value", "unvec", "vec",
    "BUILTIN_SCHEMES", "Discretization", "SchemeCoefficients", "SignalSpec",
    "builtin_scheme", "custom_scheme", "stencil_residual_at",
    "VARIANTS", "AssembledProblem", "apply_l", "apply_operator", "assemble",
    "build_m0", "build_m1", "build_m2", "global_operator", "residual",
    "ErrorSummary", "FieldMatrix", "error_matrix",
    "error_summary", "exact_solution", "sample_exact", "sample_nodes",
    "time_step_simulate",
    "METHODS", "ErrorEquationSolver", "SolvabilityReport", "SylvesterProblem",
    "diagnose", "solve_bartels_stewart", "solve_error_equation",
    "solve_kron_oracle", "solve_min_norm",
]

__version__ = "0.1.0"
