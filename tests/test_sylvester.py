"""Sylvester-equation solver and error-equation tests."""

import inspect

import numpy as np
import pytest

from advectbench import advect, assembly, cli, linalg, schemes, sylvester
from advectbench.errors import (NumericalFailureError, SingularSystemError,
                                UsageError)
from advectbench.schemes import (Discretization, SignalSpec, builtin_scheme)

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


@pytest.mark.parametrize("a", [[[1.0, "x"]], [[1.0], [1.0, 2.0]]])
def test_problem_rejects_non_numeric_input(a):
    with pytest.raises(UsageError, match="a must be a numeric array"):
        sylvester.SylvesterProblem(a, [[1.0]], [[0.0]])


def test_no_function_takes_a_tolerance_argument():
    """Thresholds are module constants; schur_decompose's max_sweeps cap is
    the one iteration argument.  SolvabilityReport only records the
    threshold its verdict used."""
    knobs = ("tol", "rtol", "sep_tol", "pivot_rtol", "iterations", "seed")
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
    p = unique_instance(1, m=8, n=6)
    x1 = sylvester.solve_bartels_stewart(p)
    x2 = sylvester.solve_kron_oracle(p)
    assert (np.linalg.norm(x1 - x2)
            <= 1e-10 * max(1.0, np.linalg.norm(x2)))


def test_bartels_stewart_refuses_singular():
    p = sylvester.SylvesterProblem(np.eye(2), -np.eye(2), np.ones((2, 2)))
    with pytest.raises(SingularSystemError, match="min-norm|min_norm"):
        sylvester.solve_bartels_stewart(p)


def test_bartels_stewart_block_pivot_failure_is_numerical_failure():
    """A report that wrongly claims uniqueness lets the block factorization
    meet the zero pivot of 1 + (-1); that is a numerical failure (exit 2)."""
    a, b = np.array([[1.0]]), np.array([[-1.0]])
    report = sylvester.SolvabilityReport(
        spectrum_a=[1.0], spectrum_neg_b=[1.0], min_separation=1.0,
        unique=True, sep_tol=1e-10)
    with pytest.raises(NumericalFailureError, match="pivot"):
        sylvester._BartelsStewart(a, b, report)


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


# ----------------------------------------------------------------- min-norm


def test_min_norm_zero_problem():
    p = sylvester.SylvesterProblem(np.zeros((1, 1)), np.zeros((1, 1)),
                                   np.zeros((1, 1)))
    x, residual, rank = sylvester.solve_min_norm(p)
    assert x[0, 0] == 0.0 and residual == 0.0 and rank == 0


def test_min_norm_matches_bartels_stewart_when_unique():
    p = unique_instance(3)
    x1, residual, rank = sylvester.solve_min_norm(p)
    x2 = sylvester.solve_bartels_stewart(p)
    assert np.linalg.norm(x1 - x2) <= 1e-9 * max(1.0, np.linalg.norm(x2))
    assert rank == x1.size
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(p.c))


def test_min_norm_singular_consistent_null_perturbations():
    d = disc(nx=4, nt=4)
    s = builtin_scheme("lax", d)
    m1, m2 = assembly.build_m1(s, d), assembly.build_m2(s, d)
    # consistent right-hand side by construction
    x0 = rng(4).uniform(-1, 1, (d.nx - 1, d.nt))
    p = sylvester.SylvesterProblem(m1, m2, m1 @ x0 + x0 @ m2)
    assert not sylvester.diagnose(p).unique
    x, residual, rank = sylvester.solve_min_norm(p)
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
    x, _, _ = sylvester.solve_min_norm(p)
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
        x, residual, _ = sylvester.solve_min_norm(p)
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
    prob = assembly.assemble(builtin_scheme("lax", d), d,
                             advect.sample_nodes(d, signal), "paper")
    f = assembly.residual(prob, advect.sample_exact(d, signal).values)
    achieved = np.linalg.norm(assembly.apply_operator(prob, e.values) + f)
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
    e_norm, _, _ = sylvester.ErrorEquationSolver(
        s.scaled(d.tau), d, variant="paper",
        method="bartels-stewart").solve(signal)
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
    """N = 3540: the band LU makes kron on the causal closure a routine
    solve at refinement-study sizes; criterion 5's tolerance holds there."""
    d = disc(nx=60, nt=60, sigma=0.8)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = builtin_scheme(name, d)
    e, _ = sylvester.solve_error_equation(s, d, signal, variant="causal",
                                          method="kron")
    u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
    want = u.values - advect.sample_exact(d, signal).values
    assert (np.linalg.norm(e.values - want)
            <= 1e-11 * max(1.0, np.linalg.norm(want))), name


def test_error_equation_bartels_stewart_at_60_matches_kron():
    """Leapfrog paper closure at N = 3540: M2's Schur form is all 2x2
    blocks, so every block system is 2(nx-1) unknowns wide."""
    d = disc(nx=60, nt=60, sigma=0.8)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = builtin_scheme("leapfrog", d)
    solver = sylvester.ErrorEquationSolver(s, d, variant="paper",
                                           method="bartels-stewart")
    assert all(size == 2 for _, size in linalg.schur_blocks(
        linalg.schur_decompose(solver.m2).t))
    e, report, _ = solver.solve(signal)
    assert report.unique
    want, _ = sylvester.solve_error_equation(s, d, signal, variant="paper",
                                             method="kron")
    assert (np.linalg.norm(e.values - want.values)
            <= 1e-11 * np.linalg.norm(want.values))
