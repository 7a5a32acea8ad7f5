"""Exact solution, simulator and error-norm tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advectbench import advect, assembly, linalg, sylvester
from advectbench.errors import SingularSystemError, UsageError
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


# ----------------------------------------------------------- exact solution


def exact(d, signal, i, m):
    """cos(2*pi/wavelength * (x - c*t)) at node (i, m), the oracle of
    sample_nodes."""
    x, t = i * d.h, m * d.tau
    return math.cos(2.0 * math.pi / signal.wavelength * (x - d.c * t))


def test_exact_solution_half_wavelength():
    d = disc(h=1.0)
    nodes = advect.sample_nodes(d, SignalSpec.from_cells_per_wavelength(4.0, d))
    assert nodes[2, 0] == pytest.approx(-1.0)


def test_exact_solution_comoving_point():
    """At sigma = 1 a node m levels later and m cells downstream sees the
    same phase."""
    d = disc(nx=12, nt=6, h=0.5, sigma=1.0, c=2.0)
    nodes = advect.sample_nodes(d, SignalSpec.from_wavelength(5.0, d))
    for i in range(d.nx + 1 - d.nt):
        for m in range(d.nt + 1):
            assert nodes[i + m, m] == nodes[i, 0]
    assert nodes[d.nt, d.nt] == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
       st.floats(2.0, 20.0))
def test_exact_solution_translation_invariance(i, m, k, n_lambda):
    d = disc(nx=20, nt=20, sigma=1.0, c=1.5)
    nodes = advect.sample_nodes(d, SignalSpec.from_cells_per_wavelength(n_lambda, d))
    assert abs(nodes[i + k, m + k] - nodes[i, m]) <= 1e-13


def test_exact_solution_rejects_bad_wavelength():
    for wavelength in (0.0, -3.0):
        with pytest.raises(UsageError):
            SignalSpec.from_wavelength(wavelength, disc())


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
            want = exact(d, signal, i, n)
            assert f.values[i - 1, n - 1] == pytest.approx(want, abs=1e-14)


def test_sample_nodes_pointwise_oracle_and_interior():
    for nx, nt, n_lambda in ((7, 5, 3.3), (20, 20, 10.0), (6, 11, 4.1)):
        d = disc(nx=nx, nt=nt)
        signal = SignalSpec.from_cells_per_wavelength(n_lambda, d)
        nodes = advect.sample_nodes(d, signal)
        assert nodes.shape == (d.nx + 1, d.nt + 1)
        for i in range(d.nx + 1):
            for m in range(d.nt + 1):
                want = exact(d, signal, i, m)
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
        res = assembly.residual(s, d, known, u.values, "causal")
        scale = max(abs(v) for v in s.as_tuple()) * max(1.0, np.max(np.abs(u.values)))
        assert np.max(np.abs(res)) <= 1e-12 * scale, name


def test_simulated_field_zeroes_paper_residual_except_last_column():
    d = disc(sigma=0.8)
    for name in STABLE_SCHEMES:
        s, signal, known = setup(name, d)
        u = advect.time_step_simulate(s, d, known)
        res = assembly.residual(s, d, known, u.values, "paper")
        scale = max(abs(v) for v in s.as_tuple()) * max(1.0, np.max(np.abs(u.values)))
        assert np.max(np.abs(res[:, :-1])) <= 1e-12 * scale, name
        # the truncated final-column equation genuinely deviates
        assert np.max(np.abs(res[:, -1])) > 1e-6 * scale, name


def test_crank_nicolson_march_factors_its_level_matrix_once(monkeypatch):
    calls = []
    factor = linalg._tridiag_lu

    def counted(*args):
        calls.append(args)
        return factor(*args)
    monkeypatch.setattr(linalg, "_tridiag_lu", counted)
    d = disc()
    s, _, known = setup("crank-nicolson", d)
    advect.time_step_simulate(s, d, known)
    assert len(calls) == 1


def test_simulate_degenerate_explicit_scheme():
    """alpha = 1e-300 is a pivot of the level matrix alpha*I below K's
    threshold: the march rejects it at column 3, the first of the level
    matrix's after the cold start's (nx-1 = 3), as causal kron does."""
    s = custom_scheme((1e-300, 1.0, 1.0, 0, 0, 0, 0, 0, 0))
    d = disc(nx=4, nt=3)
    message = r"^pivot 1\.000e-300 below \S+ at column 3$"
    with pytest.raises(SingularSystemError, match=message):
        advect.time_step_simulate(s, d, np.ones((d.nx + 1, d.nt + 1)))
    with pytest.raises(SingularSystemError, match=message):
        sylvester.ErrorEquationSolver(s, d, variant="causal", method="kron")


def test_explicit_degenerate_alpha_uses_the_tridiagonal_pivot_rtol(monkeypatch):
    """The march reads PIVOT_RTOL, band LU's rule, when it factors: at 2,
    every pivot of Lax's level matrix alpha*I is below K's threshold."""
    monkeypatch.setattr(linalg, "PIVOT_RTOL", 2.0)
    d = disc(nx=6, nt=6)
    with pytest.raises(SingularSystemError, match=r"^pivot \S+ below \S+ at column 0$"):
        advect.time_step_simulate(builtin_scheme("lax", d), d,
                                  np.ones((d.nx + 1, d.nt + 1)))


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


# ------------------------------------------------- one march for k signals

# tridiag(1, 0, 1) as the level matrix: rows are exchanged at nx = 21, and
# at nx = 20 its order is odd and it is singular
ROW_EXCHANGES = (0, 1, 0, 0, 0, 1, 0, 1, 0)


def sweep_signals(d, count):
    return [SignalSpec.from_cells_per_wavelength(4.0 + 0.1 * j, d) for j in range(count)]


def assert_batch_is_bit_identical(s, d, signals):
    """The stack of every signal, and its march, equal each signal's own
    sampling and march byte for byte."""
    stack = advect.sample_nodes(d, signals)
    fields = advect.time_step_simulate(s, d, stack)
    assert stack.shape == (len(signals), d.nx + 1, d.nt + 1)
    assert len(fields) == len(signals)
    for signal, nodes, field in zip(signals, stack, fields):
        alone = advect.sample_nodes(d, signal)
        assert nodes.tobytes() == alone.tobytes()
        want = advect.time_step_simulate(s, d, alone).values
        assert field.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, count", [(20, 161), (30, 9)])
@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_batched_march_is_bit_identical_to_single_marches(name, n, count):
    """Three-level, explicit and implicit: the sweep's 161 signals at 20^2
    and the causal workload's 9 at 30^2."""
    d = disc(nx=n, nt=n)
    assert_batch_is_bit_identical(builtin_scheme(name, d), d, sweep_signals(d, count))


def test_batched_march_with_row_exchanges_is_bit_identical():
    d = disc(nx=21, nt=20)
    assert_batch_is_bit_identical(custom_scheme(ROW_EXCHANGES), d, sweep_signals(d, 17))


def test_batched_march_of_a_singular_level_matrix_keeps_the_verdict():
    d = disc(nx=20, nt=20)
    s = custom_scheme(ROW_EXCHANGES)
    signals = sweep_signals(d, 5)
    for known in (advect.sample_nodes(d, signals[0]), advect.sample_nodes(d, signals)):
        with pytest.raises(SingularSystemError, match=r"^pivot .* at column 18$"):
            advect.time_step_simulate(s, d, known)


def test_stacked_phase_overflow_names_the_first_signal():
    d = disc()
    good = SignalSpec.from_cells_per_wavelength(10.0, d)
    bad = [SignalSpec(wavelength=w, n_lambda=w) for w in (1e-307, 2e-308)]
    for first, second in (bad, bad[::-1]):
        with pytest.raises(UsageError, match=f"of wavelength {first.wavelength:g} exceeds"):
            advect.sample_nodes(d, [good, first, good, second])


def test_bad_node_stack_rejected_by_simulator_and_build_m0():
    d = disc(nx=6, nt=6)
    s = builtin_scheme("lax", d)
    good = advect.sample_nodes(d, sweep_signals(d, 3))
    one_nan = good.copy()
    one_nan[2, 0, 3] = np.nan
    for bad, message in ((good[:, :-1], "does not match grid nodes"),
                         (one_nan, "non-finite"),
                         (good[None], "must be 2-D or 3-D, got ndim=4")):
        with pytest.raises(UsageError, match=message):
            advect.time_step_simulate(s, d, bad)
        for variant in assembly.VARIANTS:
            with pytest.raises(UsageError, match=message):
                assembly.build_m0(s, d, bad, variant)


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
    return assembly.residual(s, d, advect.sample_nodes(d, signal),
                             advect.sample_exact(d, signal).values, variant)


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
    u = (a * advect.sample_exact(d, sig1).values
         + b * advect.sample_exact(d, sig2).values)
    got = assembly.residual(s, d, combo, u, "paper")
    want = (a * truncation_residual(s, d, sig1, "paper")
            + b * truncation_residual(s, d, sig2, "paper"))
    assert np.allclose(got, want, rtol=0, atol=1e-12)
