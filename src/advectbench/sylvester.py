"""Solvers for the matrix equation A X + X B = C and the scheme error
equation built on it.

Three methods are provided, each a private object that factors once and
solves many right-hand sides: Bartels-Stewart in its Hessenberg-Schur
form (A reduced to Hessenberg form, one real Schur form of B), Gaussian
elimination on the vectorized operator in band storage (the
oracle), and minimum-norm least squares through a complete orthogonal
decomposition for singular or inconsistent systems.  The error-equation
solver vectorizes every closure variant with the global operator (kron
takes it in band storage, built straight from the stencil table); the
one-shot solvers for A X + X B = C use the Kronecker operator.  Unique
solvability is diagnosed from the spectra of A and -B: the equation has one
solution iff they are disjoint, to the relative distance SEP_TOL.  Like the
linalg thresholds, SEP_TOL is a module constant, not an argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import advect, assembly, linalg
from .errors import NumericalFailureError, SingularSystemError, UsageError

METHODS = ("bartels-stewart", "kron", "min-norm")
SEP_TOL = 1e-10  # diagnose: least spectral distance of a unique solution


@dataclass(frozen=True)
class SylvesterProblem:
    """A X + X B = C with A m x m, B n x n, C m x n."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = linalg.as_matrix(self.a, "a", square=True)
        b = linalg.as_matrix(self.b, "b", square=True)
        c = linalg.as_matrix(self.c, "c")
        if c.shape != (a.shape[0], b.shape[0]):
            raise UsageError(
                f"c shape {c.shape} does not match ({a.shape[0]}, {b.shape[0]})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class SolvabilityReport:
    """Spectral uniqueness verdict for A X + X B = C."""

    spectrum_a: list
    spectrum_neg_b: list
    min_separation: float
    unique: bool
    sep_tol: float
    notes: str = ""


def diagnose(p):
    """Unique-solvability verdict from the spectra of A and -B.

    unique iff the smallest pairwise distance between the two spectra
    exceeds SEP_TOL * max(1, |A|_F + |B|_F).
    """
    spec_a = linalg.eigenvalues(p.a)
    spec_nb = [-z for z in linalg.eigenvalues(p.b)]
    min_sep = min(abs(la - mu) for la in spec_a for mu in spec_nb)
    scale = max(1.0, linalg.frobenius_norm(p.a) + linalg.frobenius_norm(p.b))
    return SolvabilityReport(
        spectrum_a=spec_a,
        spectrum_neg_b=spec_nb,
        min_separation=min_sep,
        unique=min_sep > SEP_TOL * scale,
        sep_tol=SEP_TOL,
    )


class _BartelsStewart:
    """Hessenberg-Schur factorization of A X + X B = C: A = QA H QA^T with H
    upper Hessenberg (a tridiagonal A is kept as it is, QA = I) and one real
    Schur form B = QB T QB^T.  For each 1x1/2x2 diagonal block S of T the
    system H Y + Y S = R is factored once by band LU, in the row-interleaved
    order S^T Y^T + Y^T H^T = R^T, which has at most 3 subdiagonals.  A solve
    transforms C, takes one band solve per column block of T, left to right,
    and transforms back.  Requires unique solvability."""

    def __init__(self, a, b, report):
        if not report.unique:
            raise SingularSystemError(
                "A and -B share eigenvalues (min separation "
                f"{report.min_separation:.3e}); use min-norm")
        self._qa, h = linalg.hessenberg(a)
        fb = linalg.schur_decompose(b)
        self._qb, self._t = fb.q, fb.t
        self._blocks = []
        for j0, jw in linalg.schur_blocks(fb.t):
            js = slice(j0, j0 + jw)
            k = linalg.kron_vec_operator(fb.t[js, js].T, h.T)
            try:
                self._blocks.append((js, _KronLU(*linalg.to_band(k))))
            except SingularSystemError as exc:
                raise NumericalFailureError(
                    f"pivot failure in the block system of column {j0}: {exc}"
                ) from exc

    def solve(self, c):
        t = self._t
        d = self._qa.T @ c @ self._qb
        y = np.zeros_like(d)
        for js, block in self._blocks:
            r = d[:, js] - y[:, :js.start] @ t[:js.start, js]
            y[:, js] = block.solve(r.T).T
        return self._qa @ y @ self._qb.T


class _KronLU:
    """Band LU with partial pivoting of a vectorized operator K given in band
    storage (ab, kl); solve(C) is the X with K vec(X) = vec(C)."""

    def __init__(self, ab, kl):
        self._lu = linalg._lu_factor(ab, kl)

    def solve(self, c):
        x = linalg._lu_solve(*self._lu, linalg.vec(c))
        return linalg.unvec(x, *c.shape)


class _MinNormCOD:
    """Complete orthogonal decomposition of a vectorized operator K; solve(C)
    is the minimum-norm least-squares X of K vec(X) ~ vec(C).  rank is the
    numerical rank of K, size its number of rows."""

    def __init__(self, op):
        self._cod = linalg.cod_factor(op)
        self.rank = self._cod.rank
        self.size = self._cod.shape[0]

    def solve(self, c):
        x = self._cod.solve_min_norm(linalg.vec(c))
        return linalg.unvec(x, *c.shape)


def solve_bartels_stewart(p):
    """Bartels-Stewart in Hessenberg-Schur form (see _BartelsStewart).
    Requires unique solvability."""
    return _BartelsStewart(p.a, p.b, diagnose(p)).solve(p.c)


def solve_kron_oracle(p):
    """Independent oracle: Gaussian elimination on the vectorized operator
    (I (x) A + B^T (x) I) vec(X) = vec(C), factored in band storage."""
    k = linalg.kron_vec_operator(p.a, p.b)
    return _KronLU(*linalg.to_band(k)).solve(p.c)


def solve_min_norm(p):
    """Minimum-norm least-squares solution over the vectorized operator.

    Returns (x, residual_norm, rank); reduces to the unique solution when
    the problem is uniquely solvable.
    """
    k = linalg.kron_vec_operator(p.a, p.b)
    fac = _MinNormCOD(k)
    x = fac.solve(p.c)
    residual = float(np.linalg.norm(k @ linalg.vec(x) - linalg.vec(p.c)))
    return x, residual, fac.rank


class ErrorEquationSolver:
    """Reusable solver for the scheme error equation on a fixed scheme, grid
    and closure variant.

    The factorization is computed once, so sweeping many signals is cheap.
    Bartels-Stewart is only legal for the paper variant with L = 0 (no
    corner coefficients); M1 is tridiagonal, hence already Hessenberg, so it
    computes one real Schur form, of M2, and factors one band system of
    nx-1 or 2(nx-1) unknowns per 1x1/2x2 diagonal block of it, with at most
    3 diagonals below and above.  kron factors the variant's vectorized
    global operator by band LU (in the paper closure at most nx diagonals
    below and nx-1 above; the causal operator is lower triangular with at
    most 2*nx-1 below), and min-norm factors the dense operator by complete
    orthogonal decomposition (``factorization.rank`` is then the numerical
    rank).
    """

    def __init__(self, scheme, disc, variant="paper", method="min-norm"):
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}; expected one of {METHODS}")
        assembly._check_variant(variant)
        self.sylvester_form = (variant == "paper") and not scheme.has_corner_terms
        if method == "bartels-stewart" and not self.sylvester_form:
            raise UsageError(
                "bartels-stewart applies only to the paper variant with "
                "L = 0 (the pure Sylvester form); use kron or min-norm")
        self.scheme = scheme
        self.disc = disc
        self.variant = variant
        self.method = method
        self.m1 = assembly.build_m1(scheme, disc)
        self.m2 = assembly.build_m2(scheme, disc)

        notes = []
        if not self.sylvester_form:
            if variant != "paper":
                notes.append("causal variant: operator is the time-marching "
                             "recurrence, not of Sylvester form")
            else:
                notes.append("L != 0 (corner coefficients present): solve is "
                             "routed through the vectorized global operator")
        probe = SylvesterProblem(self.m1, self.m2, np.zeros((disc.nx - 1, disc.nt)))
        self.report = replace(diagnose(probe), notes="; ".join(notes))

        if method == "bartels-stewart":
            self.factorization = _BartelsStewart(self.m1, self.m2, self.report)
        elif method == "kron":
            self.factorization = _KronLU(
                *assembly.band_operator(scheme, disc, variant))
        else:
            self.factorization = _MinNormCOD(
                assembly.global_operator(scheme, disc, variant))

    def solve(self, signal):
        """Solve for the error field of one signal.

        Returns (e, report, residual_norm) with e = U - U_exact as a
        FieldMatrix and residual_norm the achieved operator residual.
        """
        known = advect.sample_nodes(self.disc, signal)
        m0 = assembly.build_m0(self.scheme, self.disc, known, self.variant)
        prob = assembly.AssembledProblem(m1=self.m1, m2=self.m2, m0=m0,
                                         scheme=self.scheme, disc=self.disc,
                                         variant=self.variant)
        # U_exact is the interior of the node array; the truncation residual
        # F = operator(U_exact) - M0, so operator(U - U_exact) = -F
        rhs = -assembly.residual(prob, known[1:-1, 1:])
        e = self.factorization.solve(rhs)
        op_e = assembly.apply_operator(prob, e)
        residual_norm = linalg.frobenius_norm(op_e - rhs)
        return advect.FieldMatrix(values=e, disc=self.disc), self.report, residual_norm


def solve_error_equation(scheme, disc, signal, variant="paper",
                         method="min-norm"):
    """One-shot error-equation solve; see ErrorEquationSolver.

    Returns (e, report) with e = U - U_exact (so the scheme's computed field
    is U_exact + e).
    """
    solver = ErrorEquationSolver(scheme, disc, variant=variant, method=method)
    e, report, _ = solver.solve(signal)
    return e, report
