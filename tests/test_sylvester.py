"""Sylvester-equation solver and error-equation tests."""

import decimal
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advectbench import advect, assembly, cli, linalg, schemes, sylvester
from advectbench.errors import (NumericalFailureError, SingularSystemError,
                                UsageError)
from advectbench.schemes import (Discretization, SchemeCoefficients,
                                 SignalSpec, builtin_scheme)

ALL_SCHEMES = ("leapfrog", "lax", "lax-wendroff", "crank-nicolson")


def disc(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0):
    return Discretization.from_cfl(nx=nx, nt=nt, h=h, sigma=sigma, c=c)


def rng(seed=0):
    return np.random.default_rng(seed)


def unique_instance(seed, m=6, n=5):
    """Random instance with spectra forced apart by a diagonal shift."""
    g = rng(seed)
    a = g.uniform(-1, 1, (m, m)) + 5.0 * np.eye(m)
    b = g.uniform(-1, 1, (n, n))
    c = g.uniform(-1, 1, (m, n))
    return sylvester.SylvesterProblem(a, b, c)


# ----------------------------------------------------------------- diagnose


def test_diagnose_separated_identity_multiples():
    p = sylvester.SylvesterProblem(2.0 * np.eye(2), 3.0 * np.eye(2),
                                   np.zeros((2, 2)))
    r = sylvester.diagnose(p)
    assert r.min_separation == pytest.approx(5.0)
    assert r.unique


def test_diagnose_shared_spectrum():
    p = sylvester.SylvesterProblem(np.eye(2), -np.eye(2), np.zeros((2, 2)))
    r = sylvester.diagnose(p)
    assert r.min_separation == 0.0
    assert not r.unique


@pytest.mark.parametrize("name", ["lax", "lax-wendroff", "crank-nicolson"])
def test_closed_form_spectra_of_triangular_operators_are_their_diagonals(name):
    """M2 of a stencil without gamma is lower bidiagonal, and at sigma = 1
    Lax's and Lax-Wendroff's M1 is too: eigenvalues' closed form gives
    exactly the diagonal, bit for bit, unscaled and scaled by tau as
    diagnose prints it."""
    triangular = set()
    for n in (3, 6, 20):
        for sigma in (0.5, 0.8, 1.0):
            d = disc(nx=n, nt=n, sigma=sigma)
            s = builtin_scheme(name, d)
            for label, m in (("M1", assembly.build_m1(s, d)), ("M2", assembly.build_m2(s, d))):
                for a in (m, d.tau * m):
                    if np.any(np.tril(a, -1)) and np.any(np.triu(a, 1)):
                        continue
                    triangular.add(label)
                    got = np.array(linalg.eigenvalues(a), dtype=complex)
                    want = np.array([complex(x) for x in np.diag(a)])
                    assert got.tobytes() == want.tobytes(), (label, n, sigma)
    assert triangular == ({"M2"} if name == "crank-nicolson" else {"M1", "M2"})


def test_diagnose_lax_even_nx_shares_zero_eigenvalue():
    d = disc(nx=20, nt=20)
    s = builtin_scheme("lax", d)
    p = sylvester.SylvesterProblem(assembly.build_m1(s, d),
                                   assembly.build_m2(s, d),
                                   np.zeros((d.nx - 1, d.nt)))
    r = sylvester.diagnose(p)
    scale = max(1.0, linalg.frobenius_norm(p.a) + linalg.frobenius_norm(p.b))
    assert not r.unique
    # M2 is nilpotent (all eigenvalues 0) and M1's Toeplitz spectrum hits 0
    assert all(abs(z) <= 1e-10 * scale for z in r.spectrum_neg_b)
    assert min(abs(z) for z in r.spectrum_a) <= 1e-10 * scale


def scheme_problem(s, d):
    return sylvester.SylvesterProblem(assembly.build_m1(s, d),
                                      assembly.build_m2(s, d),
                                      np.zeros((d.nx - 1, d.nt)))


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_diagnose_of_scheme_operators_runs_no_schur(monkeypatch, name):
    """M1 and M2 are tridiagonal Toeplitz (or triangular), so their spectra
    come in closed form."""
    def no_schur(a):
        raise AssertionError("schur_decompose called")

    monkeypatch.setattr(linalg, "schur_decompose", no_schur)
    for n in (6, 11, 30):
        d = disc(nx=n, nt=n)
        r = sylvester.diagnose(scheme_problem(builtin_scheme(name, d), d))
        assert (len(r.spectrum_a), len(r.spectrum_neg_b)) == (n - 1, n)


def test_diagnose_lax_wendroff_separation_is_exactly_beta():
    """Lax-Wendroff's M2 is nilpotent and M1's spectrum is beta plus a row of
    imaginary values through 0 (odd order), so the separation is |beta|; the
    Schur form of the non-normal M1 gave 0.4500534379331324 at 30^2."""
    d = disc(nx=30, nt=30)
    s = builtin_scheme("lax-wendroff", d)
    assert sylvester.diagnose(scheme_problem(s, d)).min_separation == abs(s.beta)


@pytest.mark.parametrize("name", (*ALL_SCHEMES, "corner"))
def test_diagnose_separation_is_the_pairwise_minimum_bit_for_bit(name):
    """np.hypot over the outer difference of the spectra is abs(la - mu) to
    the last bit; np.abs is not (Lax-Wendroff 11^2 would end in ...38)."""
    for n in (6, 11, 20, 30, 60, 101):
        d = disc(nx=n, nt=n)
        s = (schemes.custom_scheme(CORNER) if name == "corner"
             else builtin_scheme(name, d))
        report = sylvester.diagnose(scheme_problem(s, d))
        want = min(abs(la - mu) for la in report.spectrum_a
                   for mu in report.spectrum_neg_b)
        assert report.min_separation == want, (name, n)
    d = disc(nx=11, nt=11)
    report = sylvester.diagnose(scheme_problem(builtin_scheme("lax-wendroff", d), d))
    assert report.min_separation == 0.45802976404311374


def test_diagnose_non_normal_m2_separation_is_exact():
    """M2 = tridiag(1, 0, -0.3) of order 100 is far from normal: its Schur
    spectrum put the separation at 8.0e-4, the closed form at 0.21796."""
    d = disc(nx=100, nt=100, sigma=1.2)
    s = schemes.custom_scheme([1, 0.5, -0.3, 0.2, 0.1, 0, 0, 0, 0])
    r = sylvester.diagnose(scheme_problem(s, d))
    spec_a = np.linalg.eigvalsh(0.5 * np.eye(99) + math.sqrt(0.02) * (
        np.eye(99, k=1) + np.eye(99, k=-1)))
    spec_nb = 2j * math.sqrt(0.3) * np.cos(np.arange(1, 101) * np.pi / 101)
    want = np.min(np.abs(np.subtract.outer(spec_a, spec_nb)))
    assert abs(r.min_separation - want) <= 1e-13
    assert abs(want - 0.21796365085013) <= 1e-13
    assert r.unique


def test_diagnose_bound_does_not_overflow():
    """|A|_F + |B|_F overflows, but the bound is taken in units in which it
    does not: a separation of 1.7e308 is unique."""
    p = sylvester.SylvesterProblem(np.diag(np.full(5, 1.7e308)),
                                   np.diag(np.ones(5), -1), np.zeros((5, 6)))
    r = sylvester.diagnose(p)
    assert r.min_separation == 1.7e308 and r.unique


def test_diagnose_separation_beyond_float_range_is_numerical_failure():
    """The spectra 1.7e308 and -1.7e308 lie 3.4e308 apart: the distance is
    taken in units in which it is finite, and its overflow back in user
    units is reported, not returned as inf."""
    p = sylvester.SylvesterProblem([[1.7e308]], [[1.7e308]], [[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="^the spectral separation "
                           "exceeds the floating-point range$"):
            sylvester.diagnose(p)


TINY_CRANK_NICOLSON = [2.25e-150, -0.25e-150, 0, -1e-150, -1e-150, 0,
                       -1e-150, -1e-150, 0]


@pytest.mark.parametrize("name", ALL_SCHEMES + ("tiny",))
def test_diagnose_verdict_does_not_depend_on_units(name):
    """The bound is relative to |A|_F + |B|_F, so 2**k (A, B) gets the
    verdict of (A, B); with a floor of 1 in the input's units, Crank-Nicolson
    in units 1e-150 ("tiny") was not unique while the usual one was."""
    d = disc(nx=6, nt=6)
    s = (schemes.custom_scheme(TINY_CRANK_NICOLSON) if name == "tiny"
         else builtin_scheme(name, d))
    p = scheme_problem(s, d)
    verdicts = [sylvester.diagnose(sylvester.SylvesterProblem(
        np.ldexp(p.a, k), np.ldexp(p.b, k), p.c)).unique for k in (-500, 0, 500)]
    assert len(set(verdicts)) == 1, verdicts
    if name in ("tiny", "crank-nicolson"):
        assert verdicts[0]
    zero = sylvester.SylvesterProblem(np.zeros((3, 3)), np.zeros((2, 2)),
                                      np.zeros((3, 2)))
    assert not sylvester.diagnose(zero).unique


@pytest.mark.parametrize("a", [[[1.0, "x"]], [[1.0], [1.0, 2.0]]])
def test_problem_rejects_non_numeric_input(a):
    with pytest.raises(UsageError, match="a must be a numeric array"):
        sylvester.SylvesterProblem(a, [[1.0]], [[0.0]])


def test_no_function_takes_a_tolerance_argument():
    """Thresholds and iteration caps are module constants.
    SolvabilityReport only records the threshold its verdict used."""
    knobs = ("tol", "rtol", "sep_tol", "pivot_rtol", "iterations", "seed",
             "max_sweeps")
    found = []
    for mod in (advect, assembly, cli, linalg, schemes, sylvester):
        for name, obj in vars(mod).items():
            if (getattr(obj, "__module__", None) != mod.__name__
                    or obj is sylvester.SolvabilityReport):
                continue
            for f in vars(obj).values() if inspect.isclass(obj) else [obj]:
                if inspect.isfunction(f):
                    found += [f"{name}({arg})" for arg in
                              inspect.signature(f).parameters if arg in knobs]
    assert found == []
    assert sylvester.diagnose(unique_instance(0)).sep_tol == sylvester.SEP_TOL


# ----------------------------------------------------------- bartels-stewart


def test_bartels_stewart_scalar():
    p = sylvester.SylvesterProblem(np.array([[2.0]]), np.array([[3.0]]),
                                   np.array([[10.0]]))
    assert sylvester.solve_bartels_stewart(p)[0, 0] == pytest.approx(2.0)


def test_bartels_stewart_identity_pair():
    p = sylvester.SylvesterProblem(np.eye(2), np.eye(2), 2.0 * np.eye(2))
    assert np.allclose(sylvester.solve_bartels_stewart(p), np.eye(2), atol=1e-13)


def test_bartels_stewart_vs_kron_8x6():
    """Also at 40x35, where the Hessenberg reduction of the dense A takes two
    panels of reflectors (linalg._PANEL); there the oracle is LAPACK's dense
    LU of the vectorized operator, as band LU on its full bandwidth would
    take seconds."""
    p = unique_instance(1, m=8, n=6)
    x1 = sylvester.solve_bartels_stewart(p)
    x2 = sylvester.solve_kron_oracle(p)
    assert np.linalg.norm(x1 - x2) <= 1e-10 * max(1.0, np.linalg.norm(x2))
    p = unique_instance(1, m=40, n=35)
    x1 = sylvester.solve_bartels_stewart(p)
    x2 = linalg.unvec(np.linalg.solve(linalg.kron_vec_operator(p.a, p.b), linalg.vec(p.c)),
                      *p.c.shape)
    assert np.linalg.norm(x1 - x2) <= 1e-10 * max(1.0, np.linalg.norm(x2))


def test_bartels_stewart_refuses_singular():
    p = sylvester.SylvesterProblem(np.eye(2), -np.eye(2), np.ones((2, 2)))
    with pytest.raises(SingularSystemError, match="min-norm|min_norm"):
        sylvester.solve_bartels_stewart(p)


def test_bartels_stewart_block_pivot_failure_is_numerical_failure():
    """Built on a pair its callers would refuse, the Hessenberg-Schur block
    factorization (A is not normal, so no closed form) meets the zero pivot
    of 1 + (-1); that is a numerical failure (exit 2)."""
    a, b = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[-1.0]])
    with pytest.raises(NumericalFailureError,
                       match=r"^pivot failure in the block system of column 0: "
                             r"pivot 0\.000e\+00 below 2\.000e-13 at column 0$"):
        sylvester._BartelsStewart(a, b)


def test_bartels_stewart_block_systems_have_three_subdiagonals():
    """In the row-interleaved order S^T Y^T + Y^T H^T the block system of a
    Hessenberg H has at most 3 subdiagonals; in the plain order it has m."""
    r = rng(3)
    m = 7
    h = np.triu(r.standard_normal((m, m)), -1)
    s = r.standard_normal((2, 2))
    assert linalg.to_band(linalg.kron_vec_operator(s.T, h.T))[1] <= 3
    assert linalg.to_band(linalg.kron_vec_operator(h, s))[1] == m


# ------------------------------------------------------------- kron oracle


def test_kron_oracle_scalar():
    p = sylvester.SylvesterProblem(np.array([[2.0]]), np.array([[3.0]]),
                                   np.array([[10.0]]))
    assert sylvester.solve_kron_oracle(p)[0, 0] == pytest.approx(2.0)


def test_kron_oracle_construct_then_recover():
    g = rng(2)
    a = g.uniform(-1, 1, (5, 5)) + 5.0 * np.eye(5)
    b = g.uniform(-1, 1, (7, 7))
    x = g.uniform(-1, 1, (5, 7))
    p = sylvester.SylvesterProblem(a, b, a @ x + x @ b)
    got = sylvester.solve_kron_oracle(p)
    assert np.linalg.norm(got - x) <= 1e-11 * max(1.0, np.linalg.norm(x))


def test_overflowing_one_shot_solves_are_numerical_failures():
    """The band solve divides 1e300 by 1e-10: the overflow is reported as a
    numerical failure, not leaked as warnings, a non-finite solution or a
    usage error."""
    p = sylvester.SylvesterProblem(1e-10 * np.eye(3), np.zeros((2, 2)),
                                   np.full((3, 2), 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (sylvester.solve_kron_oracle,
                      sylvester.solve_bartels_stewart):
            with pytest.raises(NumericalFailureError,
                               match="floating-point range"):
                solve(p)


def test_one_shot_solves_of_a_representable_solution_near_the_range():
    """At C = 1e308 a dense pair's solution is representable (max|X| about
    6.6e307) although sums of C's entries are not: both one-shot solves
    work on C scaled to unit magnitude, so X is finite and is exactly 2**k
    times the solution for C * 2**-k."""
    g = rng(0)
    a = g.uniform(-1, 1, (4, 4)) + 3.0 * np.eye(4)
    b = g.uniform(-1, 1, (3, 3))
    c, k = np.full((4, 3), 1e308), 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (sylvester.solve_kron_oracle,
                      sylvester.solve_bartels_stewart):
            x = solve(sylvester.SylvesterProblem(a, b, c))
            assert np.isfinite(x).all()
            small = solve(sylvester.SylvesterProblem(a, b, np.ldexp(c, -k)))
            assert np.array_equal(x, np.ldexp(small, k))


# ----------------------------------------------------------------- min-norm


def min_norm(p):
    """(X, |K vec(X) - vec(C)|, rank) for the minimum-norm least-squares
    solution X of K vec(X) ~ vec(C), K the vectorized operator of A and B."""
    k = linalg.kron_vec_operator(p.a, p.b)
    fac = linalg.cod_factor(k)
    x = linalg.unvec(fac.solve_min_norm(linalg.vec(p.c)), *p.c.shape)
    return x, float(np.linalg.norm(k @ linalg.vec(x) - linalg.vec(p.c))), fac.rank


def test_min_norm_zero_problem():
    p = sylvester.SylvesterProblem(np.zeros((1, 1)), np.zeros((1, 1)),
                                   np.zeros((1, 1)))
    x, residual, rank = min_norm(p)
    assert x[0, 0] == 0.0 and residual == 0.0 and rank == 0


def test_min_norm_matches_bartels_stewart_when_unique():
    p = unique_instance(3)
    x1, residual, rank = min_norm(p)
    x2 = sylvester.solve_bartels_stewart(p)
    assert np.linalg.norm(x1 - x2) <= 1e-9 * max(1.0, np.linalg.norm(x2))
    assert rank == x1.size
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(p.c))


@pytest.mark.parametrize("name, rank", [("leapfrog", 380), ("lax", 373),
                                        ("lax-wendroff", 375), ("crank-nicolson", 380)])
def test_min_norm_ranks_of_the_paper_closures_at_20(name, rank):
    """The numerical ranks the COD reveals on the paper operators, pinned,
    so a change to the factor that moves a pivot or the rank cut shows.
    Lax's K (even nx) is the one of the four that min-norm's COD still
    factors; see the test below."""
    d = disc()
    fac = sylvester._MinNormCOD(assembly.global_operator(builtin_scheme(name, d), d))
    assert (fac.rank, fac.size) == (rank, 380)


@pytest.mark.parametrize("name, route, rank", [
    ("leapfrog", sylvester._ClosedForm, 380), ("lax", sylvester._MinNormCOD, 373),
    ("lax-wendroff", sylvester._Inverse, 380), ("crank-nicolson", sylvester._Inverse, 380)])
def test_min_norm_routes_of_the_paper_closures_at_20(name, route, rank):
    """min-norm's route and printed rank on the sweep's four operators: the
    closed form (normal and unique), K^-1 of kron's elimination (the march
    for Lax-Wendroff, band LU for Crank-Nicolson, both passing the pivot
    rule) and the COD for Lax, whose M1 and -M2 share the eigenvalue 0."""
    d = disc()
    solver = sylvester.ErrorEquationSolver(builtin_scheme(name, d), d, method="min-norm")
    fac = solver.factorization
    assert type(fac) is route
    assert (fac.rank, fac.size) == (rank, 380)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_min_norm_fields_of_the_sweep_operators_are_least_squares_optimal(name):
    """The sweep's four operators (paper closure, 20^2, whose ranks the test
    above pins): the normwise optimality |K^T (K x - r)| / (|K|_F^2 |x| +
    |K|_F |r|) of the min-norm field, the benchmark oracle's measure,
    recomputed here.  Leapfrog's K is nonsingular, so its field is kron's."""
    d = disc()
    s = builtin_scheme(name, d)
    signal = SignalSpec.from_cells_per_wavelength(9.8, d)
    e, _, _ = sylvester.ErrorEquationSolver(s, d, method="min-norm").solve(signal)
    known = advect.sample_nodes(d, signal)
    r = linalg.vec(-assembly.residual(s, d, known, known[1:-1, 1:], "paper"))
    k = assembly.global_operator(s, d)
    x = linalg.vec(e.values)
    k_norm = np.linalg.norm(k)
    scale = k_norm * k_norm * np.linalg.norm(x) + k_norm * np.linalg.norm(r)
    assert np.linalg.norm(k.T @ (k @ x - r)) <= 1e-10 * scale
    if name == "leapfrog":
        want, _, _ = sylvester.ErrorEquationSolver(s, d, method="kron").solve(signal)
        assert np.linalg.norm(e.values - want.values) <= 1e-12 * np.linalg.norm(want.values)


def test_min_norm_singular_consistent_null_perturbations():
    d = disc(nx=4, nt=4)
    s = builtin_scheme("lax", d)
    m1, m2 = assembly.build_m1(s, d), assembly.build_m2(s, d)
    # consistent right-hand side by construction
    x0 = rng(4).uniform(-1, 1, (d.nx - 1, d.nt))
    p = sylvester.SylvesterProblem(m1, m2, m1 @ x0 + x0 @ m2)
    assert not sylvester.diagnose(p).unique
    x, residual, rank = min_norm(p)
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(p.c))
    k = linalg.kron_vec_operator(m1, m2)
    z = linalg.cod_factor(k).null_space()
    assert rank + z.shape[1] == k.shape[0]
    xv = linalg.vec(x)
    for i in range(100):
        pert = z @ rng(500 + i).uniform(-1, 1, z.shape[1])
        assert np.linalg.norm(xv) <= np.linalg.norm(xv + pert) + 1e-12


def test_min_norm_solution_orthogonal_to_null_space():
    d = disc(nx=4, nt=4)
    s = builtin_scheme("lax", d)
    m1, m2 = assembly.build_m1(s, d), assembly.build_m2(s, d)
    p = sylvester.SylvesterProblem(m1, m2, rng(6).uniform(-1, 1, (3, 4)))
    x, _, _ = min_norm(p)
    z = linalg.cod_factor(linalg.kron_vec_operator(m1, m2)).null_space()
    assert np.linalg.norm(z.T @ linalg.vec(x)) <= 1e-9 * max(
        1.0, np.linalg.norm(x))


def test_residual_guarantee():
    for seed in range(5):
        p = unique_instance(seed)
        for x, reported in (
                (sylvester.solve_bartels_stewart(p), 0.0),
                (sylvester.solve_kron_oracle(p), 0.0)):
            achieved = np.linalg.norm(p.a @ x + x @ p.b - p.c)
            scale = max(1.0, np.linalg.norm(p.c))
            assert achieved <= 1e-10 * scale
        x, residual, _ = min_norm(p)
        achieved = np.linalg.norm(p.a @ x + x @ p.b - p.c)
        assert achieved <= residual + 1e-12 * max(1.0, np.linalg.norm(p.c))


# ---------------------------------------------------------- error equation


def test_error_equation_lax_sigma_1_causal_zero_error():
    d = disc(sigma=1.0)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    e, report = sylvester.solve_error_equation(
        builtin_scheme("lax", d), d, signal, variant="causal", method="kron")
    assert np.max(np.abs(e.values)) <= 1e-11


def test_error_equation_causal_matches_simulator_all_schemes():
    d = disc(sigma=0.8)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    for name in ALL_SCHEMES:
        s = builtin_scheme(name, d)
        e, report = sylvester.solve_error_equation(s, d, signal,
                                                   variant="causal",
                                                   method="kron")
        u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
        want = u.values - advect.sample_exact(d, signal).values
        scale = max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(e.values - want) <= 1e-11 * scale, name


def test_error_equation_paper_lax_degenerate_min_norm():
    d = disc()
    signal = SignalSpec.from_cells_per_wavelength(9.0, d)
    solver = sylvester.ErrorEquationSolver(builtin_scheme("lax", d), d,
                                           variant="paper", method="min-norm")
    e, report, residual = solver.solve(signal)
    assert not report.unique
    # the paper-variant system is inconsistent (truncated final column), so
    # the least-squares residual is genuinely nonzero; it must match the
    # achieved operator residual of the returned field
    s = builtin_scheme("lax", d)
    f = assembly.residual(s, d, advect.sample_nodes(d, signal),
                          advect.sample_exact(d, signal).values, "paper")
    achieved = np.linalg.norm(assembly.apply_operator(s, d, e.values, "paper") + f)
    assert achieved <= residual + 1e-12 * max(1.0, np.linalg.norm(f))
    assert residual > 0.0


def test_error_equation_bartels_stewart_rejects_corner_terms():
    d = disc()
    with pytest.raises(UsageError):
        sylvester.ErrorEquationSolver(builtin_scheme("crank-nicolson", d), d,
                                      variant="paper", method="bartels-stewart")


@pytest.mark.parametrize("scheme, variant", [("crank-nicolson", "paper"),
                                             ("leapfrog", "causal")])
def test_bartels_stewart_usage_error_comes_before_the_spectra(
        monkeypatch, scheme, variant):
    def no_spectra(p):
        raise AssertionError("diagnose must not run")
    monkeypatch.setattr(sylvester, "diagnose", no_spectra)
    d = disc()
    with pytest.raises(UsageError, match="bartels-stewart applies only"):
        sylvester.ErrorEquationSolver(builtin_scheme(scheme, d), d,
                                      variant=variant, method="bartels-stewart")


def test_error_equation_bartels_stewart_rejects_non_unique():
    d = disc()
    with pytest.raises(SingularSystemError):
        sylvester.ErrorEquationSolver(builtin_scheme("lax", d), d,
                                      variant="paper", method="bartels-stewart")


@pytest.mark.parametrize("name, nx, nt", [("lax", 6, 6), ("leapfrog", 4, 3)])
def test_bartels_stewart_refuses_before_it_builds_anything(monkeypatch, name, nx, nt):
    """A pair that is not uniquely solvable is refused on the verdict alone,
    before the closed form or _BartelsStewart is built: the paper closures
    of a two-level stencil (Lax) and of a three-level one (leapfrog, both
    spectra holding 0), and a one-shot problem."""
    def unbuilt(*args):
        raise AssertionError("no factorization may be built")
    monkeypatch.setattr(sylvester, "_BartelsStewart", unbuilt)
    monkeypatch.setattr(sylvester, "_closed_form", unbuilt)
    refusal = r"^A and -B share eigenvalues \(min separation 0\.000e\+00\); use min-norm$"
    d = disc(nx=nx, nt=nt)
    with pytest.raises(SingularSystemError, match=refusal):
        sylvester.ErrorEquationSolver(builtin_scheme(name, d), d,
                                      variant="paper", method="bartels-stewart")
    p = sylvester.SylvesterProblem(np.eye(2), -np.eye(2), np.ones((2, 2)))
    with pytest.raises(SingularSystemError, match=refusal):
        sylvester.solve_bartels_stewart(p)


@pytest.mark.parametrize("k", [0, 1000, 1060, 1070])
def test_pivot_message_scales_with_the_stencil_below_the_normal_floats(k):
    """The singular-pivot verdict does not depend on the stencil's scale,
    and neither does its message: the threshold of alpha = 2**-k prints as
    the one of alpha = 1 times 2**-k, to its 4 digits, also where that
    product is subnormal or below every float."""
    def threshold(alpha):
        d = disc(nx=5, nt=4)
        with pytest.raises(SingularSystemError) as info:
            sylvester.ErrorEquationSolver(schemes.custom_scheme([alpha, 0, 0, 0, 0, 0, 0, 0, 0]),
                                          d, variant="paper", method="kron")
        return decimal.Decimal(re.search(r"below (\S+) at column 0$", str(info.value))[1])
    scaled = threshold(2.0 ** -k)
    assert scaled != 0
    assert abs(scaled / (threshold(1.0) * decimal.Decimal(2) ** -k) - 1) < 1e-3


def test_error_equation_three_methods_agree_when_unique():
    d = disc()
    signal = SignalSpec.from_cells_per_wavelength(9.8, d)
    s = builtin_scheme("leapfrog", d)
    results = {}
    for method in sylvester.METHODS:
        e, report, _ = sylvester.ErrorEquationSolver(
            s, d, variant="paper", method=method).solve(signal)
        assert report.unique
        results[method] = e.values
    base = results["kron"]
    scale = max(1.0, np.linalg.norm(base))
    for method in ("bartels-stewart", "min-norm"):
        assert np.linalg.norm(results[method] - base) <= 1e-9 * scale, method


def test_error_equation_normalization_invariance():
    """Scaling both sides by tau leaves the unique solution unchanged."""
    d = disc()
    signal = SignalSpec.from_cells_per_wavelength(9.0, d)
    s = builtin_scheme("leapfrog", d)
    e, _, _ = sylvester.ErrorEquationSolver(
        s, d, variant="paper", method="bartels-stewart").solve(signal)
    s_norm = SchemeCoefficients(*(d.tau * v for v in s.as_tuple()))
    e_norm, _, _ = sylvester.ErrorEquationSolver(
        s_norm, d, variant="paper", method="bartels-stewart").solve(signal)
    scale = max(1.0, np.linalg.norm(e.values))
    assert np.linalg.norm(e.values - e_norm.values) <= 1e-10 * scale


def test_shape_validation():
    with pytest.raises(UsageError):
        sylvester.SylvesterProblem(np.eye(2), np.eye(3), np.zeros((3, 2)))
    with pytest.raises(UsageError):
        sylvester.ErrorEquationSolver(builtin_scheme("lax", disc()), disc(),
                                      method="bogus")


@pytest.mark.parametrize("name", ["leapfrog", "lax"])
def test_error_equation_causal_kron_at_60_matches_simulator(name):
    """N = 3540: the march makes kron on the causal closure a
    routine solve at refinement-study sizes; criterion 5's tolerance holds
    there."""
    d = disc(nx=60, nt=60, sigma=0.8)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = builtin_scheme(name, d)
    e, _ = sylvester.solve_error_equation(s, d, signal, variant="causal",
                                          method="kron")
    u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
    want = u.values - advect.sample_exact(d, signal).values
    assert (np.linalg.norm(e.values - want)
            <= 1e-11 * max(1.0, np.linalg.norm(want))), name


CORNER = (1, 0.5, -0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02)
# custom stencils by name; "two-level" has gamma = 0 and L = 0 (Sylvester form)
CUSTOM = {"corner": CORNER, "two-level": (1, 0.6, 0, 0.2, -0.3, 0, 0, 0, 0)}


@pytest.mark.parametrize("variant, name, n, rtol", [
    *[("causal", name, n, 1e-13) for name in (*ALL_SCHEMES, "corner") for n in (20, 30)],
    ("paper", "lax", 9, 1e-12), ("paper", "lax", 11, 1e-12),
    ("paper", "lax-wendroff", 10, 1e-12)])
def test_block_substitution_matches_band_lu(variant, name, n, rtol):
    """The causal closure is block lower triangular in time and a two-level
    paper closure block upper bidiagonal: kron solves both by block
    substitution, the march, which agrees with band LU on the same
    right-hand side."""
    d = disc(nx=n, nt=n)
    s = (schemes.custom_scheme(CORNER) if name == "corner"
         else builtin_scheme(name, d))
    fac = sylvester.ErrorEquationSolver(s, d, variant=variant,
                                        method="kron").factorization
    assert isinstance(fac, assembly.March)
    c = rng(n).uniform(-1, 1, (n - 1, n))
    want = sylvester._KronLU(*linalg.band_from_entries(
        *assembly.operator_entries(s, d, variant))).solve(c)
    assert np.linalg.norm(fac.solve(c) - want) <= rtol * np.linalg.norm(want)


def test_block_substitution_rejects_singular_diagonal_block():
    """Lax at even nx: M1, the diagonal block (the march's level matrix) of
    the paper closure, has odd order and a zero diagonal, so the verdict is
    band LU's."""
    d = disc(nx=10, nt=10)
    with pytest.raises(SingularSystemError, match=r"^pivot .* below .* at column \d+$"):
        sylvester.ErrorEquationSolver(builtin_scheme("lax", d), d,
                                      variant="paper", method="kron")


@pytest.mark.parametrize("variant, name", [
    ("causal", "leapfrog"), ("causal", "crank-nicolson"), ("paper", "lax-wendroff")])
def test_march_reuses_its_array_without_aliasing(variant, name):
    """A March keeps its padded array for the last right-hand-side shape:
    a returned X stays the caller's through the next solve of that shape,
    and solves of one R and of a stack, in turn, each equal a fresh
    March's."""
    d = disc(nx=9, nt=8)
    s = builtin_scheme(name, d)
    march = assembly.March(s, d, variant)
    cs = rng(3).uniform(-1, 1, (3, 8, 8))
    first = march.solve(cs[0])
    kept = first.copy()
    second = march.solve(cs[1])
    stacked = march.solve(cs)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, stacked[1])
    assert np.array_equal(march.solve(cs[2]), stacked[2])
    for c, x in zip(cs, stacked):
        assert np.array_equal(x, assembly.March(s, d, variant).solve(c))


@pytest.mark.parametrize("nx, nt", [(7, 5), (12, 12)])
@pytest.mark.parametrize("variant", assembly.VARIANTS)
@pytest.mark.parametrize("name", [*ALL_SCHEMES, *CUSTOM])
def test_kron_factorization_matches_a_dense_solve(name, variant, nx, nt):
    """An oracle that shares no code with the march or band LU: LAPACK's
    dense solve of the global operator.  Where Lax's paper K is singular
    (even nx), kron raises band LU's verdict on K, message for message.
    On a two-level paper closure of Sylvester form Bartels-Stewart is the
    march, so its field is kron's, bit for bit."""
    d = disc(nx=nx, nt=nt)
    s = (schemes.custom_scheme(CUSTOM[name]) if name in CUSTOM
         else builtin_scheme(name, d))
    c = rng(nx).uniform(-1, 1, (nx - 1, nt))
    if name == "lax" and variant == "paper" and nx % 2 == 0:
        with pytest.raises(SingularSystemError) as band_lu:
            sylvester._KronLU(*linalg.band_from_entries(
                *assembly.operator_entries(s, d, variant)))
        with pytest.raises(SingularSystemError) as kron:
            sylvester.ErrorEquationSolver(s, d, variant=variant, method="kron")
        assert str(kron.value) == str(band_lu.value)
        return
    want = np.linalg.solve(assembly.global_operator(s, d, variant), c.reshape(-1, order="F"))
    methods = ["kron"]
    if variant == "paper" and not (s.is_three_level or s.has_corner_terms):
        methods.append("bartels-stewart")
    got, *others = (sylvester.ErrorEquationSolver(s, d, variant=variant, method=method)
                    .factorization.solve(c) for method in methods)
    assert all(np.array_equal(other, got) for other in others), (name, variant)
    assert (np.linalg.norm(got.reshape(-1, order="F") - want)
            <= 1e-12 * np.linalg.norm(want)), (name, variant)


def test_causal_kron_builds_no_band_storage(monkeypatch):
    """The march reads neither band storage nor the stencil table: causal
    kron, two-level paper kron and Bartels-Stewart and a stacked simulation
    run without either; only the three-level paper closures still read the
    table for band LU."""
    def band(*args):
        raise AssertionError("band storage built")

    def table(*args):
        raise AssertionError("built the stencil table")
    monkeypatch.setattr(linalg, "band_from_entries", band)
    monkeypatch.setattr(linalg, "_lu_factor", band)
    monkeypatch.setattr(assembly, "stencil_table", table)
    d = disc()
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    stack = advect.sample_nodes(d, [signal, SignalSpec.from_cells_per_wavelength(7.5, d)])
    for s in (*(builtin_scheme(name, d) for name in ALL_SCHEMES),
              schemes.custom_scheme(CORNER)):
        sylvester.ErrorEquationSolver(s, d, variant="causal",
                                      method="kron").solve(signal)
        advect.time_step_simulate(s, d, stack)
    for method in ("kron", "bartels-stewart"):
        sylvester.ErrorEquationSolver(builtin_scheme("lax-wendroff", d), d,
                                      variant="paper", method=method).solve(signal)
    with pytest.raises(AssertionError, match="built the stencil table"):
        sylvester.ErrorEquationSolver(builtin_scheme("leapfrog", d), d,
                                      variant="paper", method="kron")


# alpha = gamma and delta = epsilon: M1 and M2 symmetric, real spectra
NORMAL_REAL = (1, 3, 1, 0.5, 0.5, 0, 0, 0, 0)


@pytest.mark.parametrize("name, n", [("leapfrog", 20), ("leapfrog", 60),
                                     ("leapfrog", 100), ("normal-real", 20),
                                     ("normal-real", 31)])
def test_error_equation_bartels_stewart_closed_form_matches_kron(name, n):
    """M1 and M2 are normal tridiagonal Toeplitz (leapfrog's skew-symmetric
    up to the diagonal, with eigenvector phases powers of i; NORMAL_REAL's
    symmetric, with phases 1), so Bartels-Stewart diagonalizes both in
    closed form; the field agrees with band LU's (N = 9900 at 100^2)."""
    d = disc(nx=n, nt=n, sigma=0.8)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = (schemes.custom_scheme(NORMAL_REAL) if name == "normal-real"
         else builtin_scheme(name, d))
    solver = sylvester.ErrorEquationSolver(s, d, variant="paper",
                                           method="bartels-stewart")
    phase_a, phase_b = solver.factorization._phase_a, solver.factorization._phase_b
    real = name == "normal-real"
    assert all(np.isreal(p).all() == real for p in (phase_a, phase_b))
    e, report, _ = solver.solve(signal)
    assert report.unique
    want, _ = sylvester.solve_error_equation(s, d, signal, variant="paper",
                                             method="kron")
    assert (np.linalg.norm(e.values - want.values)
            <= 1e-11 * np.linalg.norm(want.values))


def test_bartels_stewart_closed_form_runs_no_schur_and_no_block_lu(monkeypatch):
    """Leapfrog's paper closure takes the closed form and Lax-Wendroff's
    (nilpotent M2, |epsilon/delta| = 9) the march; a dense pair keeps the
    Hessenberg-Schur path."""
    schur = linalg.schur_decompose
    calls = []

    def forbidden(*args):
        raise AssertionError("Schur form or block LU computed")

    def counted(a):
        calls.append(a.shape)
        return schur(a)

    monkeypatch.setattr(linalg, "schur_decompose", forbidden)
    monkeypatch.setattr(linalg, "_lu_factor", forbidden)
    d = disc()
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    for name in ("leapfrog", "lax-wendroff"):
        sylvester.ErrorEquationSolver(builtin_scheme(name, d), d, variant="paper",
                                      method="bartels-stewart").solve(signal)
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "schur_decompose", counted)
    sylvester.solve_bartels_stewart(unique_instance(5))
    # the dense A and B for diagnose, and B again
    assert calls == [(6, 6), (5, 5), (5, 5)]


def test_leapfrog_separation_is_the_smallest_singular_value():
    """K = I (x) M1 + M2^T (x) I is normal for leapfrog, so its smallest
    singular value is the least |lam_i + mu_j|, diagnose's separation."""
    d = disc()
    s = builtin_scheme("leapfrog", d)
    sep = sylvester.diagnose(scheme_problem(s, d)).min_separation
    sigma = np.linalg.svd(assembly.global_operator(s, d, "paper"), compute_uv=False)[-1]
    assert abs(sep - sigma) <= 1e-12 * sigma


def closed_form_divisor_margin(a, b):
    """For a pair diagnose finds unique, the least closed-form divisor
    |lam_i + mu_j| of the unit-scaled pair over PIVOT_RTOL times the
    divisors' Frobenius norm (band LU's singular-pivot rule), and the
    verdict's own margin, the separation over SEP_TOL (|A|_F + |B|_F);
    None for a pair it finds not unique."""
    report = sylvester.diagnose(
        sylvester.SylvesterProblem(a, b, np.zeros((len(a), len(b)))))
    if not report.unique:
        return None
    a_unit, b_unit, _ = linalg._unit_scaled(a, b)
    lam, mu = (linalg.tridiagonal_toeplitz_eig(m) for m in (a_unit, b_unit))
    mag = np.abs(np.add.outer(lam, mu))
    e, thresh = linalg._pivot_scale(mag)
    bound = sylvester.SEP_TOL * (np.linalg.norm(a) + np.linalg.norm(b))
    return float(np.min(np.ldexp(mag, -e))) / thresh, report.min_separation / bound


def test_unique_verdict_keeps_every_closed_form_divisor_above_the_pivot_rule():
    """The closed form tests no divisor: SEP_TOL (|A|_F + |B|_F) bounds each
    from below, and for normal factors |D|_F <= sqrt(2 max(m, n)) times that
    sum, so each divisor exceeds PIVOT_RTOL |D|_F below order 5e5.  Checked on
    the leapfrog paper ladder and on random normal tridiagonal Toeplitz pairs
    whose least |lam_i + mu_j| is placed 0.5-30 times the verdict's bound."""
    margins = []
    for n in (20, 40, 60, 100, 200):
        for sigma in (0.2, 0.8, 1.0):
            d = disc(nx=n, nt=n, sigma=sigma)
            p = scheme_problem(builtin_scheme("leapfrog", d), d)
            margins.append(closed_form_divisor_margin(p.a, p.b))
    g = rng(11)

    def normal_toeplitz(n):
        """Off-diagonals of one magnitude; opposite signs (an imaginary
        spectrum) only at odd n, whose middle eigenvalue is then real."""
        off = g.uniform(0.1, 2.0)
        sub = off * g.choice((-1.0, 1.0) if n % 2 else (1.0,))
        return np.diag(np.full(n - 1, off), 1) + np.diag(np.full(n - 1, sub), -1)

    near = 0
    for _ in range(300):
        m, n = g.integers(1, 150, 2)
        a, b = normal_toeplitz(m), normal_toeplitz(n)
        s = np.add.outer(*(linalg.tridiagonal_toeplitz_eig(x) for x in (a, b)))
        i, j = np.unravel_index(np.argmin(np.abs(s.imag)), s.shape)
        # shift A so that the pair (i, j) lies k times the verdict's bound from 0
        k = 10.0 ** g.uniform(np.log10(0.5), np.log10(30.0))
        target = k * sylvester.SEP_TOL * (np.linalg.norm(a) + np.linalg.norm(b))
        shift = -s[i, j].real + math.sqrt(max(target ** 2 - s[i, j].imag ** 2, 0.0))
        margin = closed_form_divisor_margin(a + shift * np.eye(m), b)
        near += margin is not None and margin[1] < 2.0
        margins.append(margin)
    unique = [m for m in margins if m is not None]
    assert near >= 30 and len(unique) < len(margins)
    assert min(pivot for pivot, _ in unique) > 1.0


def test_bartels_stewart_closed_form_at_300_beyond_the_vectorized_limit():
    """N = 89700 exceeds MAX_VEC_SIZE, so kron's band LU cannot run; the
    closed form still solves to a small operator residual."""
    d = disc(nx=300, nt=300)
    assert (d.nx - 1) * d.nt > linalg.MAX_VEC_SIZE
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = builtin_scheme("leapfrog", d)
    _, _, residual = sylvester.ErrorEquationSolver(
        s, d, variant="paper", method="bartels-stewart").solve(signal)
    known = advect.sample_nodes(d, signal)
    rhs = assembly.residual(s, d, known, known[1:-1, 1:], "paper")
    assert residual <= 1e-10 * linalg.frobenius_norm(rhs)


def test_error_equation_bartels_stewart_reduces_no_m1(monkeypatch):
    """M1 is tridiagonal, hence its own Hessenberg factor: Hessenberg-Schur
    reduces only M2, inside its Schur form, and still matches kron."""
    d = disc(nx=20, nt=20)
    hessenberg = linalg.hessenberg

    def m2_only(a):
        if a.shape[0] == d.nx - 1:
            raise AssertionError("M1 reduced to Hessenberg form")
        return hessenberg(a)

    monkeypatch.setattr(linalg, "hessenberg", m2_only)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = schemes.custom_scheme([1, 0.5, 0.3, 0.2, 0.1, 0, 0, 0, 0])
    e, _ = sylvester.solve_error_equation(s, d, signal, variant="paper",
                                          method="bartels-stewart")
    want, _ = sylvester.solve_error_equation(s, d, signal, variant="paper",
                                             method="kron")
    assert (np.linalg.norm(e.values - want.values)
            <= 1e-10 * np.linalg.norm(want.values))


def test_error_equation_bartels_stewart_real_m2_spectrum_matches_kron():
    """alpha * gamma > 0: M2's eigenvalues are real, and its Schur form keeps
    2x2 blocks with real pairs, each factored as one block system."""
    d = disc(nx=20, nt=20)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = schemes.custom_scheme([1, 0.5, 0.3, 0.2, 0.1, 0, 0, 0, 0])
    solver = sylvester.ErrorEquationSolver(s, d, variant="paper",
                                           method="bartels-stewart")
    t = linalg.schur_decompose(solver.m2).t
    assert any(size == 2 and (t[i, i] - t[i + 1, i + 1]) ** 2
               + 4.0 * t[i, i + 1] * t[i + 1, i] >= 0.0
               for i, size in linalg.schur_blocks(t))
    e, _, _ = solver.solve(signal)
    want, _ = sylvester.solve_error_equation(s, d, signal, variant="paper",
                                             method="kron")
    assert (np.linalg.norm(e.values - want.values)
            <= 1e-10 * np.linalg.norm(want.values))


# ------------------------------------------- the solver's kept stencil sums


def parent_add_terms(out, terms):
    """The stencil sums as they were summed before the solver kept its views:
    each product under the caller's errstate, each sum under ignore."""
    for c, _, view in terms:
        product = c * view
        with np.errstate(over="ignore", invalid="ignore"):
            out += product


def parent_m0(s, d, known, variant):
    """build_m0's arithmetic on a fresh padded array: a stack of node arrays
    on a trailing axis, -c * view added to fresh zeros."""
    nodes = np.moveaxis(known, 0, -1) if known.ndim == 3 else known
    padded = np.zeros((d.nx + 1, d.nt + 2) + nodes.shape[2:])
    padded[:, :-1] = nodes
    padded[1:-1, 1:-1] = 0.0
    first, terms = assembly._shifted_terms(s, d, variant, padded)
    m0 = np.zeros((d.nx - 1, d.nt) + nodes.shape[2:])
    m0[:, :first] += nodes[1:-1, 1:first + 1]
    parent_add_terms(m0[:, first:], [(-c, m, view) for c, m, view in terms])
    return np.moveaxis(m0, -1, 0) if known.ndim == 3 else m0


def parent_action(s, d, u, variant):
    """apply_operator's arithmetic on a fresh padded array."""
    padded = np.zeros((d.nx + 1, d.nt + 2))
    padded[1:-1, 1:-1] = u
    first, terms = assembly._shifted_terms(s, d, variant, padded)
    out = np.zeros_like(u)
    out[:, :first] += u[:, :first]
    parent_add_terms(out[:, first:], terms)
    return out


def legal_solvers(n):
    """(scheme, grid, solver) for the four catalogue schemes and the corner
    stencil, both closures and every method that set-up accepts, at n^2."""
    d = disc(nx=n, nt=n)
    for name in (*ALL_SCHEMES, "corner"):
        s = schemes.custom_scheme(CORNER) if name == "corner" else builtin_scheme(name, d)
        for variant in assembly.VARIANTS:
            for method in sylvester.METHODS:
                try:
                    solver = sylvester.ErrorEquationSolver(s, d, variant=variant,
                                                           method=method)
                except (SingularSystemError, UsageError):
                    continue
                yield s, d, solver


@pytest.mark.parametrize("n", [6, 11, 20])
def test_solve_is_bit_identical_to_fresh_stencil_sums(n):
    """A solve's right-hand side and residual check sum the views its solver
    laid out once; its field and residual equal those of the sums on fresh
    padded arrays, term by term, byte for byte."""
    signal = SignalSpec.from_cells_per_wavelength(9.8, disc(nx=n, nt=n))
    count = 0
    for s, d, solver in legal_solvers(n):
        e, _, residual = solver.solve(signal)
        known = advect.sample_nodes(d, signal)
        with np.errstate(over="raise", invalid="raise"):
            rhs = -(parent_action(s, d, known[1:-1, 1:], solver.variant)
                    - parent_m0(s, d, known, solver.variant))
            want = solver.factorization.solve(rhs)
            want_residual = linalg.frobenius_norm(
                parent_action(s, d, want, solver.variant) - rhs)
        case = (n, s, solver.variant, solver.method)
        assert e.values.tobytes() == want.tobytes(), case
        assert residual == want_residual, case
        count += 1
    assert count >= 20


@pytest.mark.parametrize("variant", assembly.VARIANTS)
@pytest.mark.parametrize("name", [*ALL_SCHEMES, "corner"])
def test_stacked_build_m0_is_bit_identical_to_fresh_stencil_sums(name, variant):
    """One StencilSums lays M0's views out again when the stack's trailing
    shape changes; each M0 equals the fresh sums byte for byte."""
    d = disc(nx=11, nt=9)
    s = schemes.custom_scheme(CORNER) if name == "corner" else builtin_scheme(name, d)
    signals = [SignalSpec.from_cells_per_wavelength(nl, d) for nl in (5.0, 9.8, 14.0)]
    stack = advect.sample_nodes(d, signals)
    sums = assembly.StencilSums(s, d, variant)
    for known in (stack, stack[0], stack[1:], stack):
        assert sums.m0(known).tobytes() == parent_m0(s, d, known, variant).tobytes()


def test_a_solved_field_is_not_changed_by_the_next_solve():
    d = disc(nx=11, nt=11)
    one, two = (SignalSpec.from_cells_per_wavelength(nl, d) for nl in (6.0, 13.0))
    for _, _, solver in legal_solvers(11):
        e, _, _ = solver.solve(one)
        kept = e.values.copy()
        solver.solve(two)
        assert np.array_equal(e.values, kept), (solver.variant, solver.method)


@pytest.mark.parametrize("variant, method", [
    ("paper", "min-norm"), ("paper", "kron"), ("causal", "kron"),
    ("paper", "bartels-stewart")])
def test_solves_lay_out_no_stencil_views_after_set_up(monkeypatch, variant, method):
    """161 solves, a sweep's count, call _shifted_terms only for the march's
    steps, which it lays out at its first solve; the stencil sums reuse the
    views set-up laid out."""
    d = disc(nx=20, nt=20)
    s = builtin_scheme("leapfrog", d)
    solver = sylvester.ErrorEquationSolver(s, d, variant=variant, method=method)
    calls = []
    shifted_terms = assembly._shifted_terms

    def counted(*args):
        calls.append(args)
        return shifted_terms(*args)

    monkeypatch.setattr(assembly, "_shifted_terms", counted)
    signals = [SignalSpec.from_cells_per_wavelength(nl, d)
               for nl in np.linspace(5.0, 21.0, 161)]
    for signal in signals:
        solver.solve(signal)
    assert len(calls) == int(isinstance(solver.factorization, assembly.March))


def test_solves_check_only_the_field_they_return(monkeypatch):
    """After set-up, 161 solves, a sweep's count, validate arrays through
    linalg.as_matrix or as_vector once each: the FieldMatrix it returns.
    The sums, the kernels and the residual norm take the arrays the solve
    made; every legal (scheme, closure, method) at 11^2."""
    solvers = [solver for _, _, solver in legal_solvers(11)]
    calls = []
    for name in ("as_matrix", "as_vector"):
        def counted(*args, _check=getattr(linalg, name), **kwargs):
            calls.append(args[1:2])
            return _check(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    signals = [SignalSpec.from_cells_per_wavelength(nl, solvers[0].disc)
               for nl in np.linspace(5.0, 21.0, 161)]
    assert len(solvers) >= 20
    for solver in solvers:
        calls.clear()
        for signal in signals:
            solver.solve(signal)
        assert calls == [("field",)] * len(signals), (solver.scheme, solver.variant,
                                                       solver.method)


# ------------------------------------------------ the verdict is K's own


def spectral_operands_forbidden(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the spectral verdict is not this K's")
    for module, name in ((sylvester, "diagnose"), (assembly, "build_m1"),
                         (assembly, "build_m2")):
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("name, variant", [*((n, "causal") for n in (*ALL_SCHEMES, "corner")),
                                           ("crank-nicolson", "paper"), ("corner", "paper")])
@pytest.mark.parametrize("method", ["kron", "min-norm"])
def test_kernel_verdicts_build_no_spectral_operands(monkeypatch, name, variant, method):
    """Causal and L != 0 requests report the verdict of the kernel that
    solves them, with no spectral number, and never build M1, M2 or the
    zero C, nor call diagnose."""
    spectral_operands_forbidden(monkeypatch)
    d = disc(nx=11, nt=11)
    s = schemes.custom_scheme(CORNER) if name == "corner" else builtin_scheme(name, d)
    solver = sylvester.ErrorEquationSolver(s, d, variant=variant, method=method)
    fac, report = solver.factorization, solver.report
    elimination = "march" if variant == "causal" or not s.is_three_level else "band-lu"
    assert (report.verdict, report.unique) == (elimination, True)
    if method == "min-norm":  # K^-1 of the elimination, which passed the pivot rule
        assert isinstance(fac, sylvester._Inverse) and fac.rank == fac.size
    assert (report.spectrum_a, report.spectrum_neg_b, report.min_separation,
            report.sep_tol) == (None,) * 4
    assert solver.m1 is None and solver.m2 is None
    assert solver.solve(SignalSpec.from_cells_per_wavelength(9.8, d))[1] is report


# a causal level matrix tridiag(theta, alpha, zeta) = tridiag(1, 0, 1) of odd
# order, which is singular: the march refuses it
SINGULAR_LEVEL = (0, 1, 0, 0, 0, 1, 0, 1, 0)


@pytest.mark.parametrize("name, variant, nx, nt, sigma, rank", [
    ("singular-level", "causal", 20, 10, 0.8, 189), ("crank-nicolson", "paper", 3, 2, 1.0, 3)])
def test_cod_verdict_builds_no_spectral_operands(monkeypatch, name, variant, nx, nt, sigma,
                                                 rank):
    """Where kron's elimination refuses a causal or L != 0 K (the march on
    a singular level matrix, band LU on Crank-Nicolson's paper K at
    sigma = 1 and 3x2), min-norm's COD solves it and reports its verdict,
    unique iff K has full rank, with no spectral operands."""
    spectral_operands_forbidden(monkeypatch)
    d = disc(nx=nx, nt=nt, sigma=sigma)
    s = (schemes.custom_scheme(SINGULAR_LEVEL) if name == "singular-level"
         else builtin_scheme(name, d))
    with pytest.raises(SingularSystemError):
        sylvester.ErrorEquationSolver(s, d, variant=variant, method="kron")
    solver = sylvester.ErrorEquationSolver(s, d, variant=variant, method="min-norm")
    fac, report = solver.factorization, solver.report
    assert isinstance(fac, sylvester._MinNormCOD)
    assert (fac.rank, fac.size) == (rank, (nx - 1) * nt)
    assert (report.verdict, report.unique) == ("cod", False)
    assert (report.spectrum_a, report.spectrum_neg_b, report.min_separation,
            report.sep_tol) == (None,) * 4


@pytest.mark.parametrize("name", ["leapfrog", "lax", "lax-wendroff", "two-level"])
@pytest.mark.parametrize("method", sylvester.METHODS)
def test_paper_sylvester_form_keeps_the_spectral_verdict(monkeypatch, name, method):
    """The paper closure with L = 0 builds M1 and M2 and calls diagnose once
    each, and reports diagnose's verdict on (M1, M2, 0)."""
    calls = []
    for module, fn in ((sylvester, "diagnose"), (assembly, "build_m1"),
                       (assembly, "build_m2")):
        def counted(*args, _fn=getattr(module, fn), _name=fn):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, fn, counted)
    d = disc(nx=11, nt=11)
    s = schemes.custom_scheme(CUSTOM[name]) if name in CUSTOM else builtin_scheme(name, d)
    solver = sylvester.ErrorEquationSolver(s, d, variant="paper", method=method)
    assert sorted(calls) == ["build_m1", "build_m2", "diagnose"]
    monkeypatch.undo()
    want = sylvester.diagnose(sylvester.SylvesterProblem(
        assembly.build_m1(s, d), assembly.build_m2(s, d), np.zeros((10, 11))))
    assert solver.report == want and solver.report.verdict == "spectral"


def test_bartels_stewart_still_refuses_lax_at_even_nx_on_the_spectral_verdict():
    d = disc(nx=20, nt=20)
    refusal = r"^A and -B share eigenvalues \(min separation 0\.000e\+00\); use min-norm$"
    with pytest.raises(SingularSystemError, match=refusal):
        sylvester.ErrorEquationSolver(builtin_scheme("lax", d), d,
                                      variant="paper", method="bartels-stewart")


def test_causal_set_up_allocates_no_spectral_operands():
    """Lax-Wendroff causal kron set-up at 400^2 keeps two padded node arrays
    (its stencil sums), and its march counts K's unknown nodes without a
    third: the tracemalloc peak stays below three node arrays of
    (nx+1)(nt+2) doubles, 3.87 MB (a march that sums views of an array of
    ones peaks at 3.06 arrays).  M1, M2, the zero C and diagnose's pairwise
    distances alone would take 6.4 MB more."""
    d = disc(nx=400, nt=400)
    s = builtin_scheme("lax-wendroff", d)
    tracemalloc.start()
    try:
        sylvester.ErrorEquationSolver(s, d, variant="causal", method="kron")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (d.nx + 1) * (d.nt + 2) * 8


# ------------------------------------------- min-norm's closed-form route


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-2, 2), st.floats(0.125, 2), st.floats(0, 2), st.booleans(),
       st.booleans(), st.integers(-30, 30), st.integers(3, 12), st.integers(3, 12))
def test_min_norm_closed_form_is_the_cod_answer_where_diagnose_says_unique(
        beta, a, d, a_sign, d_sign, k, nx, nt):
    """For L = 0 and normal M1, M2 (|alpha| = |gamma|, |delta| = |epsilon|),
    K is normal with singular values |lam_i + mu_j|, so diagnose's unique
    verdict bounds cond(K) below 1/SEP_TOL: wherever it says unique, the
    COD finds full rank, and the closed form min-norm takes gives the COD's
    field to 1e-9 relative.  Elsewhere min-norm keeps the COD."""
    c = math.ldexp(1.0, k)
    s = schemes.custom_scheme([c * a, c * beta, c * a * (-1) ** a_sign, c * d,
                               c * d * (-1) ** d_sign, 0, 0, 0, 0])
    g = Discretization(nx=nx, nt=nt, h=1.0, tau=0.5, c=1.0)
    solver = sylvester.ErrorEquationSolver(s, g, variant="paper", method="min-norm")
    n = (nx - 1) * nt
    if not solver.report.unique:
        assert isinstance(solver.factorization, sylvester._MinNormCOD)
        return
    fac = solver.factorization
    assert isinstance(fac, sylvester._ClosedForm)
    assert (fac.rank, fac.size) == (n, n)
    op = assembly.global_operator(s, g, "paper")
    assert linalg.cod_factor(op).rank == n
    rhs = rng(nx * 13 + nt).standard_normal((nx - 1, nt))
    want = sylvester._MinNormCOD(op).solve(rhs)
    got = fac.solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_min_norm_closed_form_builds_no_operator_and_no_cod(monkeypatch):
    """Leapfrog's paper min-norm at 20^2 is normal and unique: set-up
    builds neither the global operator, nor a COD, nor a Schur form."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense operator, COD or Schur form built")
    for owner, name in ((assembly, "global_operator"), (linalg, "cod_factor"),
                        (linalg, "schur_decompose")):
        monkeypatch.setattr(owner, name, forbidden)
    d = disc()
    solver = sylvester.ErrorEquationSolver(builtin_scheme("leapfrog", d), d,
                                           variant="paper", method="min-norm")
    assert isinstance(solver.factorization, sylvester._ClosedForm)
    assert (solver.factorization.rank, solver.factorization.size) == (380, 380)


@pytest.mark.parametrize("name, variant, sigma, nx, nt", [
    ("leapfrog", "paper", 1.0, 8, 7),        # normal, not unique
    ("lax", "paper", 0.8, 20, 20),           # not normal, not unique
    ("lax-wendroff", "paper", 0.8, 20, 20),  # not normal, unique
    ("crank-nicolson", "paper", 0.8, 20, 20),  # L != 0
    ("leapfrog", "causal", 0.8, 20, 20),     # causal
])
def test_min_norm_keeps_the_cod_off_the_closed_form(name, variant, sigma, nx, nt):
    """Off the closed form, min-norm factors the dense operator by COD
    exactly where diagnose says not unique (Sylvester form) or kron's
    elimination refuses K; elsewhere it takes K^-1 of that elimination."""
    d = disc(nx=nx, nt=nt, sigma=sigma)
    s = builtin_scheme(name, d)
    solver = sylvester.ErrorEquationSolver(s, d, variant=variant, method="min-norm")
    try:
        sylvester.ErrorEquationSolver(s, d, variant=variant, method="kron")
        refused = solver.sylvester_form and not solver.report.unique
    except SingularSystemError:
        refused = True
    want = sylvester._MinNormCOD if refused else sylvester._Inverse
    assert type(solver.factorization) is want
    # the COD's two requests: Lax at even nx and leapfrog at sigma = 1 and 8x7
    assert refused == (sigma == 1.0 or name == "lax")


# --------------------------------------------- min-norm's elimination route


def test_band_lu_solves_a_stack_each_layer_bit_identical_to_its_own_solve():
    """_KronLU.solve on a k x m x n stack: one k-column band LU solve, each
    layer equal to the solve of that layer alone."""
    d = disc(nx=11, nt=11)
    fac = sylvester.ErrorEquationSolver(builtin_scheme("crank-nicolson", d), d,
                                        method="kron").factorization
    assert isinstance(fac, sylvester._KronLU)
    cs = rng(7).uniform(-1, 1, (5, 10, 11))
    stacked = fac.solve(cs)
    assert stacked.shape == cs.shape
    for c, x in zip(cs, stacked):
        assert x.tobytes() == fac.solve(c).tobytes()


@pytest.mark.parametrize("name, variant", [("lax-wendroff", "paper"),
                                           ("crank-nicolson", "paper"),
                                           ("crank-nicolson", "causal")])
def test_inverse_columns_are_the_eliminations_solves(name, variant):
    """2**e K^-1, formed in panels of columns of 2**e I, holds in column k
    the elimination's own solve of the k-th such field, bit for bit, on
    both sides of each panel boundary; a solve is its product with
    2**-e vec(C)."""
    d = disc()
    s = builtin_scheme(name, d)
    elimination = sylvester._elimination(s, d, variant)
    fac = sylvester._Inverse(elimination, 19, 20, -3)
    assert (fac.rank, fac.size) == (380, 380)
    assert fac.verdict == ("band-lu" if name == "crank-nicolson" and variant == "paper"
                           else "march")
    panel = sylvester._INVERSE_PANEL
    for k in (0, panel - 1, panel, 379):
        unit = np.zeros(380)
        unit[k] = 0.125
        want = elimination.solve(linalg.unvec(unit, 19, 20))
        assert fac._inv[:, k].tobytes() == linalg.vec(want).tobytes()
    c = rng(8).uniform(-1, 1, (19, 20))
    assert np.array_equal(fac.solve(c), linalg.unvec(fac._inv @ linalg.vec(8.0 * c), 19, 20))


@pytest.mark.parametrize("name, variant", [("lax-wendroff", "paper"),
                                           ("crank-nicolson", "paper"), ("leapfrog", "causal")])
def test_min_norm_inverse_field_is_invariant_under_power_of_two_scaling(name, variant):
    """2**k times a stencil gives min-norm's field bit for bit, down to
    k = -1000, where the entries of K^-1 itself would overflow: the inverse
    is formed at K's scale, as the COD factors K at unit magnitude."""
    d = disc(nx=11, nt=11)
    base = builtin_scheme(name, d)
    signal = SignalSpec.from_cells_per_wavelength(9.8, d)
    want = sylvester.ErrorEquationSolver(base, d, variant=variant).solve(signal)[0].values
    for k in (-1000, -600, -3):
        s = schemes.custom_scheme([math.ldexp(c, k) for c in base.as_tuple()])
        solver = sylvester.ErrorEquationSolver(s, d, variant=variant)
        assert isinstance(solver.factorization, sylvester._Inverse)
        assert solver.solve(signal)[0].values.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("name, variant, n, rtol", [
    ("lax-wendroff", "paper", 10, 1e-10), ("lax-wendroff", "paper", 20, 1e-10),
    ("crank-nicolson", "paper", 20, 1e-10),
    *[(name, "causal", 20, 1e-10) for name in ALL_SCHEMES],
    ("corner", "paper", 11, 1e-10), ("corner", "causal", 11, 1e-10),
    ("lax", "paper", 11, 1e-12), ("lax", "paper", 21, 1e-12), ("lax", "paper", 23, 1e-12)])
def test_min_norm_is_krons_field_where_the_elimination_passes(name, variant, n, rtol):
    """Where kron's elimination passes the pivot rule (and, on the Sylvester
    form, diagnose says unique), min-norm's field is kron's to rtol: the
    COD's rank cut threw these answers away (Lax-Wendroff paper 20^2 had
    rank 375 of 380; Lax paper 21^2, whose |e| is 9.2e35, printed 2.4e7)."""
    d = disc(nx=n, nt=n)
    s = schemes.custom_scheme(CORNER) if name == "corner" else builtin_scheme(name, d)
    signal = SignalSpec.from_cells_per_wavelength(9.8, d)
    solver = sylvester.ErrorEquationSolver(s, d, variant=variant, method="min-norm")
    assert isinstance(solver.factorization, sylvester._Inverse)
    got = solver.solve(signal)[0].values
    kron = sylvester.ErrorEquationSolver(s, d, variant=variant, method="kron")
    want = kron.solve(signal)[0].values
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_lax_at_even_nx_keeps_the_cod_field_bit_for_bit():
    """Lax's paper K at 20^2 is not unique: min-norm's field is the COD's
    solve of the right-hand side, byte for byte."""
    d = disc()
    s = builtin_scheme("lax", d)
    signal = SignalSpec.from_cells_per_wavelength(9.8, d)
    got = sylvester.ErrorEquationSolver(s, d, method="min-norm").solve(signal)[0].values
    known = advect.sample_nodes(d, signal)
    rhs = -assembly.residual(s, d, known, known[1:-1, 1:], "paper")
    want = sylvester._MinNormCOD(assembly.global_operator(s, d)).solve(rhs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, variant", [("lax-wendroff", "paper"),
                                           ("crank-nicolson", "paper"), ("lax", "causal")])
def test_min_norm_elimination_builds_no_dense_operator_and_no_cod(monkeypatch, name, variant):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense operator or COD built")
    for owner, attr in ((assembly, "global_operator"), (linalg, "cod_factor")):
        monkeypatch.setattr(owner, attr, forbidden)
    d = disc()
    solver = sylvester.ErrorEquationSolver(builtin_scheme(name, d), d, variant=variant,
                                           method="min-norm")
    assert isinstance(solver.factorization, sylvester._Inverse)


def _set_up_peak(s, d):
    tracemalloc.start()
    try:
        sylvester.ErrorEquationSolver(s, d, method="min-norm")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["lax-wendroff", "crank-nicolson"])
def test_min_norm_inverse_set_up_peaks_below_the_cods(monkeypatch, name):
    """K^-1 is formed in its final array from panels of identity columns, so
    min-norm's set-up at 20^2 peaks at most where the COD's set-up on the
    same K does (the route it took before elimination), under tracemalloc."""
    d = disc()
    s = builtin_scheme(name, d)
    sylvester.ErrorEquationSolver(s, d, method="min-norm")  # first-call allocations
    peak = _set_up_peak(s, d)

    def refuse(*args):
        raise SingularSystemError("forced: the COD's route")
    monkeypatch.setattr(sylvester, "_elimination", refuse)
    assert isinstance(sylvester.ErrorEquationSolver(s, d, method="min-norm").factorization,
                      sylvester._MinNormCOD)
    assert peak <= _set_up_peak(s, d)
