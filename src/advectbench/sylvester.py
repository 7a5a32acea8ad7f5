"""Solvers for the matrix equation A X + X B = C and the scheme error
equation built on it.

Three methods are provided, each a private object that factors once and
solves many right-hand sides: Bartels-Stewart (when A and B are both
normal tridiagonal Toeplitz matrices, as leapfrog's M1 and M2 are, by their
closed-form unitary diagonalizations, a division per entry; otherwise in
Hessenberg-Schur form, one real Schur form of B, with A its own Hessenberg
factor as the tridiagonal M1 is, or reduced by solve_bartels_stewart),
Gaussian elimination on the vectorized operator (the oracle), and
minimum-norm least squares, by one of three routes.  Where the closed form
applies and the equation is uniquely solvable, min-norm takes it: K is
then normal and of full rank, so its one solution is the minimum-norm one.
Elsewhere, where kron's elimination passes the pivot rule (and diagnose
says unique, on the Sylvester form), min-norm forms K^-1 from it once: K
is nonsingular to PIVOT_RTOL, so again its one solution is the minimum-norm
one.  Only where that elimination refuses K, or diagnose says not unique,
does min-norm factor the dense global operator by a complete orthogonal
decomposition, for singular or inconsistent systems; on an ill-conditioned
K the answer of its rank cut can be unrelated to the solution.  Only the
COD builds the global operator, and only band LU (on a three-level paper
closure) its band storage.  The causal closure and the paper closure of a
two-level stencil are block triangular in time, and kron and
Bartels-Stewart alike solve them by assembly.March, the march the
simulator also runs: one factored tridiagonal level matrix per time
column, the other stencil terms subtracted as shifted slices, no entries of
the operator built.  That is
Bartels-Stewart exactly: a two-level M2 is strictly lower triangular, its
Schur form T = J M2 J (J the reversal), and the block systems
M1 y_j = r_j - sum_i t_ij y_i, last column first, are the backward march.
The other closures take band LU on the operator in band storage, read from
the stencil table.  The one-shot oracle for A X + X B = C eliminates on
the Kronecker operator, and it and the one-shot Bartels-Stewart solve on C
scaled to unit magnitude; its minimum-norm solution is linalg.cod_factor
of that operator.  Unique solvability is diagnosed from the spectra of A
and -B: the equation has one solution iff they are disjoint, to the
relative distance SEP_TOL.  Like the linalg thresholds, SEP_TOL is a
module constant, not an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import advect, assembly, linalg
from .errors import NumericalFailureError, SingularSystemError, UsageError

METHODS = ("bartels-stewart", "kron", "min-norm")
SEP_TOL = 1e-10  # diagnose: least spectral distance of a unique solution
_INVERSE_PANEL = 192  # identity columns per stacked solve that forms K^-1 (_Inverse)


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
    """Uniqueness verdict for A X + X B = C by diagnose ("spectral"), which
    alone carries spectra, min_separation and sep_tol; or by the kernel of
    an error equation off that form: "march" or "band-lu" (unique: on a
    pivot below the rule kron's set-up refuses and min-norm takes the COD),
    or "cod" (iff K has full rank)."""

    unique: bool
    verdict: str = "spectral"
    spectrum_a: list = None
    spectrum_neg_b: list = None
    min_separation: float = None
    sep_tol: float = None


def diagnose(p):
    """Unique-solvability verdict from the spectra of A and -B.

    unique iff the smallest pairwise distance between the two spectra
    exceeds SEP_TOL * (|A|_F + |B|_F), a bound relative to the input, so the
    verdict does not depend on its units.  The distances and norms are taken
    in units 2**e in which the largest entry of A or B lies in [0.5, 1), so
    they neither overflow nor underflow (scaling by a power of two is exact);
    a least distance beyond the float range raises NumericalFailureError.
    """
    spec_a = linalg.eigenvalues(p.a)
    spec_nb = [-z for z in linalg.eigenvalues(p.b)]
    a, b, e = linalg._unit_scaled(p.a, p.b)
    sa, snb = (np.ldexp(np.array(z, dtype=complex).view(float), -e).view(complex)
               for z in (spec_a, spec_nb))
    # hypot is what abs(la - mu) computes; np.abs may differ in the last bit
    d = np.subtract.outer(sa, snb)
    min_sep = float(np.min(np.hypot(d.real, d.imag)))
    norms = linalg.frobenius_norm(a) + linalg.frobenius_norm(b)
    return SolvabilityReport(
        spectrum_a=spec_a,
        spectrum_neg_b=spec_nb,
        min_separation=float(linalg._scaled_back(
            np.array([min_sep]), e,
            "the spectral separation exceeds the floating-point range")[0]),
        unique=min_sep > SEP_TOL * norms,
        sep_tol=SEP_TOL,
    )


class _ClosedForm:
    """Fast diagonalization (Lynch, Rice and Thomas) of A X + X B = C for
    A and B both normal tridiagonal Toeplitz matrices (|sub| = |super|; a
    diagonal or 1x1 matrix is one), built only on a pair its callers found
    uniquely solvable; _closed_form builds it where it applies.

    Their Schur forms are diagonal and known in closed form: A = V1
    diag(lam) V1^H and B = V2 diag(mu) V2^H, V = diag(phase) U with U the
    orthogonal DST-I matrix (linalg.tridiagonal_toeplitz_eig).  The
    factorization is V1, V2 and the divisors lam_i + mu_j, the eigenvalues
    of the vectorized operator K, on A and B scaled by one power of two to
    unit magnitude; a solve is X = Re(V1 ((V1^H C V2) / (lam_i + mu_j))
    V2^H), scaled back.  The callers' verdict bounds every divisor below by
    SEP_TOL (|A|_F + |B|_F), over PIVOT_RTOL times their Frobenius norm for
    normal factors below order 5e5, so the closed form divides without a
    test.  K is normal, so that bound is its least singular value, and its
    condition number is below 1/SEP_TOL: K has full rank, ``rank`` = ``size``
    = its order, and the solution is also its minimum-norm one."""

    def __init__(self, fa, fb, e):
        (lam, self._phase_a, self._ua), (mu, self._phase_b, self._ub) = fa, fb
        self._divisors, self._e = np.add.outer(lam, mu), e
        self.rank = self.size = self._divisors.size

    def solve(self, c):
        ua, phase_a, ub, phase_b = self._ua, self._phase_a, self._ub, self._phase_b
        # an overflow is caught by _scaled_back's check of the result
        with np.errstate(over="ignore", invalid="ignore"):
            f = _dst_both_sides(ua, phase_a.conj()[:, None] * c * phase_b, ub) / self._divisors
            y = (phase_a[:, None] * _dst_both_sides(ua, f, ub) * phase_b.conj()).real
        return linalg._scaled_back(np.ascontiguousarray(y), -self._e,
                                   "the solution exceeds the floating-point range")


def _closed_form(a, b):
    """The _ClosedForm of A X + X B = C, or None unless A and B are both
    normal tridiagonal Toeplitz matrices: the one normality test."""
    a_unit, b_unit, e = linalg._unit_scaled(a, b)
    fa, fb = (linalg.tridiagonal_toeplitz_eig(m, vectors=True) for m in (a_unit, b_unit))
    return None if fa is None or fb is None else _ClosedForm(fa, fb, e)


class _BartelsStewart:
    """Hessenberg-Schur factorization of A X + X B = C for an upper
    Hessenberg A, built only on a pair its callers found uniquely solvable
    and _closed_form does not diagonalize: one real Schur form
    B = QB T QB^T.  For each 1x1/2x2 diagonal block S of T the system
    A Y + Y S = R is factored once by band LU, in the row-interleaved order
    S^T Y^T + Y^T A^T = R^T, which has at most 3 subdiagonals.  A solve
    transforms C by QB, takes one band solve per column block of T, left to
    right, and transforms back."""

    def __init__(self, a, b):
        fb = linalg.schur_decompose(b)
        self._qb, self._t = fb.q, fb.t
        self._blocks = []
        for j0, jw in linalg.schur_blocks(fb.t):
            js = slice(j0, j0 + jw)
            k = linalg.kron_vec_operator(fb.t[js, js].T, a.T)
            try:
                self._blocks.append((js, _KronLU(*linalg.to_band(k))))
            except SingularSystemError as exc:
                raise NumericalFailureError(
                    f"pivot failure in the block system of column {j0}: {exc}"
                ) from exc

    def solve(self, c):
        d = c @ self._qb
        y = np.zeros_like(d)
        for js, block in self._blocks:
            r = d[:, js] - y[:, :js.start] @ self._t[:js.start, js]
            y[:, js] = block.solve(r.T).T
        return y @ self._qb.T


def _require_unique(report):
    """Bartels-Stewart's refusal: SingularSystemError unless report.unique."""
    if not report.unique:
        raise SingularSystemError("A and -B share eigenvalues (min separation "
                                  f"{report.min_separation:.3e}); use min-norm")


def _dst_both_sides(ua, x, ub):
    """ua @ x @ ub for complex x and real symmetric ua, ub, as two real
    products on the interleaved real and imaginary parts of x."""
    y = (ua @ np.ascontiguousarray(x).view(float)).view(complex)
    return (ub @ np.ascontiguousarray(y.T).view(float)).view(complex).T


class _KronLU:
    """Band LU with partial pivoting of a vectorized operator K given in band
    storage (ab, kl); solve(C) is the X with K vec(X) = vec(C)."""

    verdict = "band-lu"

    def __init__(self, ab, kl):
        self._lu = linalg._lu_factor(ab, kl)

    def solve(self, c):
        """X for one m x n C, or the stack of the k solutions of a k x m x n
        stack of them, solved as the k columns of one right-hand side
        (linalg._lu_solve), each layer bit-identical to its own solve."""
        if c.ndim == 2:
            return linalg._unvec(linalg._lu_solve(*self._lu, linalg._vec(c)), *c.shape)
        k, m, n = c.shape
        # column j of the right-hand side is vec(C_j), and column j of x vec(X_j)
        x = linalg._lu_solve(*self._lu, c.transpose(2, 1, 0).reshape(m * n, k))
        return x.reshape(n, m, k).transpose(2, 1, 0)


class _Inverse:
    """K^-1 of an elimination of K that passed the pivot rule, kron's
    (assembly.March or _KronLU), formed once; solve(C), one product with
    it, is the X with K vec(X) = vec(C).  Every pivot of the elimination is
    above PIVOT_RTOL * |K|_F, so K is nonsingular to that rule and its one
    solution is its minimum-norm one: rank = size = N.  The array is
    2**e K^-1, the caller's e <= 0, and a solve scales C by 2**-e before the
    product; both scalings are exact.  For a stencil whose coefficients are
    all below 1, 2**e is at most the largest, so the array's entries do not
    overflow as those of a tiny K's inverse would; a larger one keeps
    e = 0, as the elimination's products, K times the array, would overflow
    first.  The array is filled in panels of _INVERSE_PANEL columns of
    2**e I, each one stacked solve of the elimination, so no other array of
    its size is made.  verdict is the elimination's."""

    def __init__(self, elimination, rows, cols, e):
        n = rows * cols
        self.verdict = getattr(elimination, "verdict", "march")
        self.rank = self.size = n
        self._e = e
        self._inv = np.empty((n, n))
        # fields[m, i, k] = 2**e K^-1[i + m rows, k]: column k as a field
        fields = self._inv.reshape(cols, rows, n)
        for k0 in range(0, n, _INVERSE_PANEL):
            b = min(_INVERSE_PANEL, n - k0)
            unit = np.zeros((n, b))
            unit[np.arange(k0, k0 + b), np.arange(b)] = math.ldexp(1.0, e)
            # layer j of the stack is the field of column k0 + j of 2**e I
            x = elimination.solve(unit.reshape(cols, rows, b).transpose(2, 1, 0))
            fields[:, :, k0:k0 + b] = x.transpose(2, 1, 0)

    def solve(self, c):
        # an overflow is caught by the check of x below
        with np.errstate(over="ignore", invalid="ignore"):
            x = self._inv @ np.ldexp(linalg._vec(c), -self._e)
        if not np.isfinite(x).all():
            raise NumericalFailureError("the solution exceeds the floating-point range")
        return linalg._unvec(x, *c.shape)


class _MinNormCOD:
    """Complete orthogonal decomposition of a vectorized operator K, which
    forms K's minimum-norm solution operator; solve(C), one product with
    it, is the minimum-norm least-squares X of K vec(X) ~ vec(C).  rank is
    the numerical rank of K, size its number of rows."""

    verdict = "cod"

    def __init__(self, op):
        self._cod = linalg.cod_factor(op)
        self.rank = self._cod.rank
        self.size = self._cod.shape[0]

    def solve(self, c):
        x = self._cod._solve(linalg._vec(c))
        return linalg._unvec(x, *c.shape)


def _elimination(scheme, disc, variant):
    """kron's elimination of K: assembly.March for the causal closure and a
    two-level stencil's paper closure, else band LU on K's band storage.
    Raises SingularSystemError when a pivot is at most the rule's."""
    if variant == "causal" or not scheme.is_three_level:
        return assembly.March(scheme, disc, variant)
    return _KronLU(*linalg.band_from_entries(*assembly.operator_entries(scheme, disc, variant)))


def _min_norm(scheme, disc, variant, unique):
    """min-norm's kernel off the closed form: K^-1 of kron's elimination
    (_Inverse) when the caller's verdict is unique and the elimination
    passes the pivot rule, else the COD of the dense K.  Either is an N x N
    array, so MAX_VEC_SIZE refuses both first, with the one message."""
    rows, cols = disc.nx - 1, disc.nt
    linalg.check_vec_size(rows * cols)
    # 2**e: 1, or the largest coefficient rounded down to a power of two
    # where that is below 1
    e = min(0, math.frexp(max(abs(c) for c in scheme.as_tuple()))[1] - 1)
    try:
        if unique:
            return _Inverse(_elimination(scheme, disc, variant), rows, cols, e)
    except SingularSystemError:  # K is singular to the pivot rule
        pass
    return _MinNormCOD(assembly.global_operator(scheme, disc, variant))


def solve_bartels_stewart(p):
    """Bartels-Stewart (see _BartelsStewart) on the Hessenberg form
    H = Q^T A Q, once the problem is found uniquely solvable.  It solves on
    C scaled to unit magnitude (the equation is linear, and scaling by a
    power of two is exact), so only a solution beyond the floating-point
    range, or an overflow of the transforms or the block solves, is a
    NumericalFailureError."""
    _require_unique(diagnose(p))
    q, h = linalg.hessenberg(p.a)
    factorization = _closed_form(h, p.b) or _BartelsStewart(h, p.b)
    c, e = linalg._unit_scaled(p.c)
    try:
        with np.errstate(over="raise", invalid="raise"):
            x = q @ factorization.solve(q.T @ c)
    except FloatingPointError as exc:
        raise NumericalFailureError(
            f"the solution exceeds the floating-point range ({exc})") from exc
    return linalg._scaled_back(x, e, "the solution exceeds the floating-point range")


def solve_kron_oracle(p):
    """Independent oracle: Gaussian elimination on the vectorized operator
    (I (x) A + B^T (x) I) vec(X) = vec(C), factored in band storage, on C
    scaled to unit magnitude and X scaled back, as solve_bartels_stewart."""
    k = linalg.kron_vec_operator(p.a, p.b)
    c, e = linalg._unit_scaled(p.c)
    x = _KronLU(*linalg.to_band(k)).solve(c)
    return linalg._scaled_back(x, e, "the solution exceeds the floating-point range")


class ErrorEquationSolver:
    """Reusable solver for the scheme error equation on a fixed scheme, grid
    and closure variant.

    Set-up factors K once and lays out the closure's assembly.StencilSums,
    which sum each solve's right-hand side and residual check, so sweeping
    many signals is cheap.  Only the paper variant with L = 0 (no corner
    coefficients) is of Sylvester form, so only it builds ``m1`` and ``m2``
    (else None) for diagnose's ``report``; the others report their kernel's.
    Bartels-Stewart is only legal for that form, and only when diagnose
    finds A and -B disjoint: set-up refuses any other request before it
    builds a factorization.  The kernel is then read from the method and
    K's structure, in one flat chain.  min-norm has three routes.  On that
    form, when diagnose finds it unique and M1 and M2 are both normal
    (leapfrog's are), it takes Bartels-Stewart's closed form below: K is
    then normal, its singular values |lam_i + mu_j|, so the verdict bounds
    its condition number below 1/SEP_TOL, the COD's rank cut RANK_RTOL
    would find full rank, and the minimum-norm solution is K's one
    solution.  Otherwise, unless diagnose says not unique, it takes kron's
    elimination (the march or band LU, below) and, when that passes the
    pivot rule, forms K^-1 from it once (_Inverse): K is nonsingular to
    PIVOT_RTOL, so K^-1 r is the minimum-norm solution, and a solve is one
    dense product.  Both report ``factorization.rank`` = ``size`` = N.  Only
    where the elimination refuses K, or diagnose says not unique, does it
    factor the dense operator by complete orthogonal decomposition
    (``factorization.rank`` is then the numerical rank), which forms its
    minimum-norm solution operator once; on an ill-conditioned K the COD's
    rank cut can return an answer unrelated to the solution.  K^-1 and the
    COD are N x N arrays, so MAX_VEC_SIZE refuses both with one message.
    The causal operator is block lower triangular in time, and the
    paper operator of a two-level stencil block upper bidiagonal, so kron and
    Bartels-Stewart solve them by the march (assembly.March), which factors
    one level matrix (tridiag(theta, alpha, zeta) or M1) and builds neither
    the stencil table, nor band storage, nor a Schur form.  On the other
    (three-level) paper operators kron takes band LU (at most nx diagonals
    below and nx-1 above), and Bartels-Stewart, when |alpha| = |gamma| and
    |delta| = |epsilon| as for leapfrog, diagonalizes the normal tridiagonal
    Toeplitz M1 and M2 in closed form: set-up forms two DST-I matrices and
    the divisors lam_i + mu_j, and a solve is four dense products and one
    division per entry.  Otherwise M1, tridiagonal and hence already
    Hessenberg, is kept, and it computes one real Schur form, of M2, and
    factors one band system of nx-1 or 2(nx-1) unknowns per 1x1/2x2 diagonal
    block of it, with at most 3 diagonals below and above.
    """

    def __init__(self, scheme, disc, variant="paper", method="min-norm"):
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}; expected one of {METHODS}")
        self._sums = assembly.StencilSums(scheme, disc, variant)  # checks the variant
        self.sylvester_form = (variant == "paper") and not scheme.has_corner_terms
        if method == "bartels-stewart" and not self.sylvester_form:
            raise UsageError(
                "bartels-stewart applies only to the paper variant with "
                "L = 0 (the pure Sylvester form); use kron or min-norm")
        self.scheme = scheme
        self.disc = disc
        self.variant = variant
        self.method = method
        self.m1 = self.m2 = None
        if self.sylvester_form:  # the only K whose verdict is the spectral one
            self.m1, self.m2 = assembly.build_m1(scheme, disc), assembly.build_m2(scheme, disc)
            self.report = diagnose(SylvesterProblem(
                self.m1, self.m2, np.zeros((disc.nx - 1, disc.nt))))
            if method == "bartels-stewart":
                _require_unique(self.report)
        closed = None
        if (method == "min-norm" and self.sylvester_form and self.report.unique
                or method == "bartels-stewart" and scheme.is_three_level):
            closed = _closed_form(self.m1, self.m2)
        if closed is not None:
            self.factorization = closed
        elif method == "min-norm":
            self.factorization = _min_norm(scheme, disc, variant,
                                           not self.sylvester_form or self.report.unique)
        elif method == "bartels-stewart" and scheme.is_three_level:
            self.factorization = _BartelsStewart(self.m1, self.m2)
        else:
            self.factorization = _elimination(scheme, disc, variant)
        if not self.sylvester_form:  # the kernel's verdict: see SolvabilityReport
            fac = self.factorization
            kernel = getattr(fac, "verdict", "march")
            self.report = SolvabilityReport(kernel != "cod" or fac.rank == fac.size, kernel)

    def solve(self, signal):
        """Solve for the error field of one signal.

        Returns (e, report, residual_norm) with e = U - U_exact as a
        FieldMatrix and residual_norm the achieved operator residual.  Only the
        signal's data is checked: its phase (sample_nodes) and right-hand side;
        the sums, kernel and norm take the solve's own arrays unchecked.  Raises
        NumericalFailureError when the right-hand side, the arithmetic or the
        residual leaves the floating-point range.
        """
        known = advect.sample_nodes(self.disc, signal)
        # U_exact is the interior of the node array; the truncation residual
        # F = operator(U_exact) - M0, so operator(U - U_exact) = -F
        try:
            with np.errstate(over="raise", invalid="raise"):
                rhs = -(self._sums._action(known[1:-1, 1:]) - self._sums._m0(known))
                if not np.isfinite(rhs).all():  # a sum that overflows
                    raise NumericalFailureError(
                        "the right-hand side exceeds the floating-point range")
                e = self.factorization.solve(rhs)
                residual_norm = linalg._frobenius(self._sums._action(e) - rhs)
        except FloatingPointError as exc:
            raise NumericalFailureError(
                f"the solve leaves the floating-point range ({exc})") from exc
        if not math.isfinite(residual_norm):
            raise NumericalFailureError(
                f"the operator residual of the solution is {residual_norm}")
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
