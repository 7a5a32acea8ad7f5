"""Workbench for nine-point finite-difference schemes applied to the 1-D
linear transport equation: matricial assembly, error-equation solvers and
parameter sweeps."""

from .advect import (ErrorSummary, FieldMatrix, error_matrix, error_summary,
                     sample_exact, sample_nodes, time_step_simulate)
from .assembly import (VARIANTS, apply_operator, build_m0, build_m1,
                       build_m2, global_operator, residual)
from .errors import (AdvectBenchError, InvalidSchemeError,
                     NumericalFailureError, SingularSystemError, UsageError)
from .linalg import (SchurForm, cod_factor, eigenvalues, frobenius_norm,
                     kron_vec_operator, schur_decompose, unvec, vec)
from .schemes import (BUILTIN_SCHEMES, Discretization, SchemeCoefficients,
                      SignalSpec, builtin_scheme, custom_scheme,
                      stencil_residual_at)
from .sylvester import (METHODS, ErrorEquationSolver, SolvabilityReport,
                        SylvesterProblem, diagnose, solve_bartels_stewart,
                        solve_error_equation, solve_kron_oracle)

__all__ = [
    "AdvectBenchError", "InvalidSchemeError",
    "NumericalFailureError", "SingularSystemError", "UsageError",
    "SchurForm", "cod_factor", "eigenvalues", "frobenius_norm",
    "kron_vec_operator", "schur_decompose", "unvec", "vec",
    "BUILTIN_SCHEMES", "Discretization", "SchemeCoefficients", "SignalSpec",
    "builtin_scheme", "custom_scheme", "stencil_residual_at",
    "VARIANTS", "apply_operator", "build_m0", "build_m1", "build_m2",
    "global_operator", "residual",
    "ErrorSummary", "FieldMatrix", "error_matrix",
    "error_summary", "sample_exact", "sample_nodes",
    "time_step_simulate",
    "METHODS", "ErrorEquationSolver", "SolvabilityReport", "SylvesterProblem",
    "diagnose", "solve_bartels_stewart", "solve_error_equation",
    "solve_kron_oracle",
]

__version__ = "0.1.0"
