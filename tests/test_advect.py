"""Exact solution, simulator and error-norm tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advectbench import advect, assembly
from advectbench.errors import NumericalFailureError, UsageError
from advectbench.schemes import (Discretization, SignalSpec, builtin_scheme,
                                 custom_scheme)

# Schemes whose catalogued coefficients are consistent, stable transport
# discretizations at sigma <= 1.  The crank-nicolson row, kept as catalogued,
# is unstable and is asserted as such below.
STABLE_SCHEMES = ("leapfrog", "lax", "lax-wendroff")
ALL_SCHEMES = ("leapfrog", "lax", "lax-wendroff", "crank-nicolson")


def disc(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0):
    return Discretization.from_cfl(nx=nx, nt=nt, h=h, sigma=sigma, c=c)


def setup(name, d, n_lambda=10.0):
    s = builtin_scheme(name, d)
    signal = SignalSpec.from_cells_per_wavelength(n_lambda, d)
    return s, signal, advect.sample_nodes(d, signal)


# ----------------------------------------------------------- exact_solution


def test_exact_solution_half_wavelength():
    assert advect.exact_solution(2.0, 0.0, 1.0, 4.0) == pytest.approx(-1.0)


def test_exact_solution_comoving_point():
    for t in (0.0, 0.7, 13.2):
        assert advect.exact_solution(2.0 * t, t, 2.0, 5.0) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_exact_solution_translation_invariance(x, t, s):
    a = advect.exact_solution(x, t, 1.5, 3.0)
    b = advect.exact_solution(x - 1.5 * s, t - s, 1.5, 3.0)
    assert abs(a - b) <= 1e-13


def test_exact_solution_rejects_bad_wavelength():
    with pytest.raises(UsageError):
        advect.exact_solution(0.0, 0.0, 1.0, 0.0)


# ------------------------------------------------------------- sample_exact


def test_sample_exact_corner_value():
    d = Discretization(nx=3, nt=2, h=0.5, tau=0.5, c=1.0)
    signal = SignalSpec.from_wavelength(4 * d.h, d)
    f = advect.sample_exact(d, signal)
    assert f.values[0, 0] == pytest.approx(1.0)  # x = h, c*tau = h


def test_sample_exact_range_and_pointwise_oracle():
    d = disc(nx=7, nt=5)
    signal = SignalSpec.from_cells_per_wavelength(3.3, d)
    f = advect.sample_exact(d, signal)
    assert np.all(np.abs(f.values) <= 1.0)
    for i in range(1, d.nx):
        for n in range(1, d.nt + 1):
            want = advect.exact_solution(i * d.h, n * d.tau, d.c, signal.wavelength)
            assert f.values[i - 1, n - 1] == pytest.approx(want, abs=1e-14)


def test_sample_nodes_pointwise_oracle_and_interior():
    for nx, nt, n_lambda in ((7, 5, 3.3), (20, 20, 10.0), (6, 11, 4.1)):
        d = disc(nx=nx, nt=nt)
        signal = SignalSpec.from_cells_per_wavelength(n_lambda, d)
        nodes = advect.sample_nodes(d, signal)
        assert nodes.shape == (d.nx + 1, d.nt + 1)
        for i in range(d.nx + 1):
            for m in range(d.nt + 1):
                want = advect.exact_solution(i * d.h, m * d.tau, d.c, signal.wavelength)
                assert nodes[i, m] == pytest.approx(want, abs=1e-14)
        assert np.array_equal(advect.sample_exact(d, signal).values, nodes[1:-1, 1:])


# ------------------------------------------------------- time_step_simulate


def test_simulate_lax_shift_exact_at_sigma_1():
    d = disc(sigma=1.0)
    s, signal, known = setup("lax", d)
    u = advect.time_step_simulate(s, d, known)
    exact = advect.sample_exact(d, signal)
    assert np.max(np.abs(u.values - exact.values)) <= 1e-12


def test_simulate_lax_wendroff_shift_exact_at_sigma_1():
    d = disc(sigma=1.0)
    s, signal, known = setup("lax-wendroff", d)
    u = advect.time_step_simulate(s, d, known)
    exact = advect.sample_exact(d, signal)
    assert np.max(np.abs(u.values - exact.values)) <= 1e-12


def test_simulated_field_zeroes_causal_residual():
    d = disc(sigma=0.5)
    for name in ALL_SCHEMES:
        s, signal, known = setup(name, d)
        u = advect.time_step_simulate(s, d, known)
        prob = assembly.assemble(s, d, known, "causal")
        res = assembly.residual(prob, u.values)
        scale = max(abs(v) for v in s.as_tuple()) * max(1.0, np.max(np.abs(u.values)))
        assert np.max(np.abs(res)) <= 1e-12 * scale, name


def test_simulated_field_zeroes_paper_residual_except_last_column():
    d = disc(sigma=0.8)
    for name in STABLE_SCHEMES:
        s, signal, known = setup(name, d)
        u = advect.time_step_simulate(s, d, known)
        prob = assembly.assemble(s, d, known, "paper")
        res = assembly.residual(prob, u.values)
        scale = max(abs(v) for v in s.as_tuple()) * max(1.0, np.max(np.abs(u.values)))
        assert np.max(np.abs(res[:, :-1])) <= 1e-12 * scale, name
        # the truncated final-column equation genuinely deviates
        assert np.max(np.abs(res[:, -1])) > 1e-6 * scale, name


def test_simulate_degenerate_explicit_scheme():
    s = custom_scheme((1e-300, 1.0, 1.0, 0, 0, 0, 0, 0, 0))
    d = disc(nx=4, nt=3)
    with pytest.raises(NumericalFailureError):
        advect.time_step_simulate(s, d, np.ones((d.nx + 1, d.nt + 1)))


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_simulate_ignores_unknown_nodes(name):
    """Only level 0, the boundaries and a three-level stencil's level 1 are
    read: overwriting every other interior node leaves the field bit-identical."""
    d = disc(nx=9, nt=7)
    s, signal, known = setup(name, d)
    want = advect.time_step_simulate(s, d, known).values
    first = 2 if s.is_three_level else 1
    for fill in (0.0, -3.5e7, 1e300):
        scrambled = known.copy()
        scrambled[1:-1, first:] = fill
        got = advect.time_step_simulate(s, d, scrambled).values
        assert np.array_equal(got, want), (name, fill)


def test_stability_smoke_test_consistent_schemes():
    d = disc(sigma=0.8)
    for name in STABLE_SCHEMES:
        s, signal, known = setup(name, d)
        u = advect.time_step_simulate(s, d, known)
        assert advect.error_summary(
            advect.error_matrix(u, advect.sample_exact(d, signal))).max_abs <= 10.0
        assert np.max(np.abs(u.values)) <= 10.0, name


def test_crank_nicolson_as_catalogued_is_unstable():
    # documented finding: the catalogued coefficients blow up on this grid
    d = disc(sigma=0.8)
    s, signal, known = setup("crank-nicolson", d)
    u = advect.time_step_simulate(s, d, known)
    assert np.max(np.abs(u.values)) > 10.0


# --------------------------------------------------- error matrix / summary


def test_error_matrix_zero_and_antisymmetry():
    d = disc(nx=5, nt=4)
    g = np.random.default_rng(0)
    a = advect.FieldMatrix(values=g.uniform(-1, 1, (4, 4)), disc=d)
    b = advect.FieldMatrix(values=g.uniform(-1, 1, (4, 4)), disc=d)
    assert np.array_equal(advect.error_matrix(a, a).values, np.zeros((4, 4)))
    assert np.array_equal(advect.error_matrix(a, b).values,
                          -advect.error_matrix(b, a).values)


def test_error_matrix_shape_mismatch():
    d1, d2 = disc(nx=5, nt=4), disc(nx=6, nt=4)
    a = advect.FieldMatrix(values=np.zeros((4, 4)), disc=d1)
    b = advect.FieldMatrix(values=np.zeros((5, 4)), disc=d2)
    with pytest.raises(UsageError):
        advect.error_matrix(a, b)


def test_error_summary_trivial_cases():
    d = Discretization(nx=3, nt=2, h=1.0, tau=1.0, c=1.0)
    z = advect.error_summary(advect.FieldMatrix(values=np.zeros((2, 2)), disc=d))
    assert (z.frob, z.grid_l2, z.grid_l2_squared, z.max_abs) == (0, 0, 0, 0)
    e = np.zeros((2, 2)); e[0, 0] = 2.0
    s = advect.error_summary(advect.FieldMatrix(values=e, disc=d))
    assert (s.frob, s.grid_l2, s.grid_l2_squared, s.max_abs) == (2, 2, 4, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-4, 4))
def test_error_summary_homogeneity(seed, k):
    d = Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=1.0)
    e = np.random.default_rng(seed).uniform(-1, 1, (3, 3))
    s1 = advect.error_summary(advect.FieldMatrix(values=e, disc=d))
    s2 = advect.error_summary(advect.FieldMatrix(values=k * e, disc=d))
    assert s2.frob == pytest.approx(abs(k) * s1.frob, abs=1e-12)
    assert s2.grid_l2 == pytest.approx(abs(k) * s1.grid_l2, abs=1e-12)
    assert s2.grid_l2_squared == pytest.approx(k * k * s1.grid_l2_squared, abs=1e-12)
    assert s2.max_abs == pytest.approx(abs(k) * s1.max_abs, abs=1e-12)


def test_error_summary_grid_weighting():
    d = Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=1.0)
    e = np.random.default_rng(5).uniform(-1, 1, (3, 3))
    s = advect.error_summary(advect.FieldMatrix(values=e, disc=d))
    assert s.grid_l2 == pytest.approx(math.sqrt(0.5 * 0.25) * s.frob, rel=1e-14)
    assert s.grid_l2_squared == pytest.approx(s.grid_l2 ** 2, rel=1e-13)


# ----------------------------------------------------- truncation residual F


def truncation_residual(s, d, signal, variant):
    """F = operator(U_exact) - M0, the right-hand side of the error equation
    up to sign."""
    prob = assembly.assemble(s, d, advect.sample_nodes(d, signal), variant)
    return assembly.residual(prob, advect.sample_exact(d, signal).values)


def test_compute_f_zero_for_exact_scheme_causal():
    d = disc(sigma=1.0)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    f = truncation_residual(builtin_scheme("lax", d), d, signal, "causal")
    assert np.max(np.abs(f)) <= 1e-11


def test_compute_f_linear_in_sampled_signal():
    # all operators are linear, so F built from a*U1 + b*U2 as the exact
    # field equals a*F1 + b*F2 when the node data is combined the same way
    d = disc(nx=6, nt=5)
    s = builtin_scheme("leapfrog", d)
    sig1 = SignalSpec.from_cells_per_wavelength(5.0, d)
    sig2 = SignalSpec.from_cells_per_wavelength(9.0, d)
    a, b = 2.0, -0.5
    combo = a * advect.sample_nodes(d, sig1) + b * advect.sample_nodes(d, sig2)
    prob = assembly.assemble(s, d, combo, "paper")
    u = (a * advect.sample_exact(d, sig1).values
         + b * advect.sample_exact(d, sig2).values)
    got = assembly.residual(prob, u)
    want = (a * truncation_residual(s, d, sig1, "paper")
            + b * truncation_residual(s, d, sig2, "paper"))
    assert np.allclose(got, want, rtol=0, atol=1e-12)
