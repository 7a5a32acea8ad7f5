"""Matricial assembly tests: M1, M2, M0, the operator action, global operator,
residuals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advectbench import advect, assembly, linalg, sylvester
from advectbench.errors import SingularSystemError, UsageError
from advectbench.schemes import (BUILTIN_SCHEMES, Discretization,
                                 SignalSpec, builtin_scheme, custom_scheme,
                                 stencil_nodes, stencil_residual_at)

LAX_SMALL = Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=1.0)


def nodes(d, lam=2.0):
    """cos(2 pi / lam * (x - c t)) on every grid node, i = 0..nx by m = 0..nt."""
    i = np.arange(d.nx + 1)[:, None]
    m = np.arange(d.nt + 1)[None, :]
    return np.cos(2.0 * math.pi / lam * (i * d.h - d.c * m * d.tau))


def test_build_m1_lax_pattern():
    s = builtin_scheme("lax", LAX_SMALL)
    want = np.array([[0.0, -1.0, 0.0], [-3.0, 0.0, -1.0], [0.0, -3.0, 0.0]])
    assert np.array_equal(assembly.build_m1(s, LAX_SMALL), want)


def test_build_m1_diagonal_when_no_space_coupling():
    s = custom_scheme((1, 2, 0, 0, 0, 0, 0, 0, 0))
    assert np.array_equal(assembly.build_m1(s, LAX_SMALL), 2.0 * np.eye(3))


def test_build_m1_spectrum_matches_toeplitz_closed_form():
    d = Discretization(nx=12, nt=3, h=1.0, tau=0.5, c=1.0)
    s = builtin_scheme("lax", d)  # beta = 0
    m1 = assembly.build_m1(s, d)
    got = sorted(z.real for z in linalg.eigenvalues(m1))
    want = sorted(2.0 * math.sqrt(s.delta * s.epsilon)
                  * math.cos(k * math.pi / d.nx) for k in range(1, d.nx))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10


def test_build_m2_leapfrog_pattern():
    d = Discretization(nx=4, nt=3, h=1.0, tau=0.5, c=1.0)
    s = builtin_scheme("leapfrog", d)
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(assembly.build_m2(s, d), want)


def test_build_m2_lax_is_nilpotent():
    s = builtin_scheme("lax", LAX_SMALL)
    m2 = assembly.build_m2(s, LAX_SMALL)
    assert np.all(np.triu(m2) == 0.0)
    assert all(z == 0.0 for z in linalg.eigenvalues(m2))


def test_m2_action_shifts_columns():
    d = Discretization(nx=5, nt=6, h=1.0, tau=0.5, c=1.0)
    s = builtin_scheme("leapfrog", d)
    m2 = assembly.build_m2(s, d)
    u = np.random.default_rng(0).uniform(-1, 1, (4, 6))
    um2 = u @ m2
    for n in range(6):
        want = np.zeros(4)
        if n - 1 >= 0:
            want += s.gamma * u[:, n - 1]
        if n + 1 < 6:
            want += s.alpha * u[:, n + 1]
        assert np.allclose(um2[:, n], want, rtol=0, atol=1e-14)


U3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])


def test_apply_l_zeta_up_left_shift():
    """L's corner terms act through apply_operator's shifted views; the
    alpha and gamma terms add U3 @ M2."""
    s = custom_scheme((0, 0, 0, 0, 0, 1, 0, 0, 0))
    want = np.array([[5.0, 6.0, 0.0], [8.0, 9.0, 0.0], [0.0, 0.0, 0.0]])
    want += U3 @ assembly.build_m2(s, LAX_SMALL)
    assert np.array_equal(assembly.apply_operator(s, LAX_SMALL, U3), want)


def test_apply_l_vartheta_pattern():
    s = custom_scheme((1, 0, 0, 0, 0, 0, 0, 0, 1))
    want = np.array([[0.0, 4.0, 5.0], [0.0, 7.0, 8.0], [0.0, 0.0, 0.0]])
    want += U3 @ assembly.build_m2(s, LAX_SMALL)
    assert np.array_equal(assembly.apply_operator(s, LAX_SMALL, U3), want)


def test_apply_l_eta_down_right_shift():
    s = custom_scheme((1, 0, 0, 0, 0, 0, 1, 0, 0))
    want = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 4.0, 5.0]])
    want += U3 @ assembly.build_m2(s, LAX_SMALL)
    assert np.array_equal(assembly.apply_operator(s, LAX_SMALL, U3), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
def test_apply_l_is_linear(seed, a, b):
    g = np.random.default_rng(seed)
    s = custom_scheme(g.uniform(-1, 1, 9))
    u, v = g.uniform(-1, 1, (3, 3)), g.uniform(-1, 1, (3, 3))
    lhs = assembly.apply_operator(s, LAX_SMALL, a * u + b * v)
    rhs = (a * assembly.apply_operator(s, LAX_SMALL, u)
           + b * assembly.apply_operator(s, LAX_SMALL, v))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


# the four catalogue schemes and one scheme with all nine coefficients
STENCILS = (*BUILTIN_SCHEMES, (1.0, 0.5, -0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02))


def stencil_cases():
    """(scheme, grid, known, fields) at 7x5, 5x9 and 20x20: exact node
    arrays and random fields, C-ordered, F-ordered and strided."""
    rng = np.random.default_rng(4)
    for nx, nt in ((7, 5), (5, 9), (20, 20)):
        d = Discretization.from_cfl(nx=nx, nt=nt, h=1.0, sigma=0.8, c=1.0)
        for scheme in STENCILS:
            s = (builtin_scheme(scheme, d) if isinstance(scheme, str)
                 else custom_scheme(scheme))
            exact = nodes(d, lam=7.0)
            rand = rng.uniform(-1, 1, (d.nx + 1, d.nt + 1))
            for known in (exact, rand):
                u = known[1:-1, 1:]
                yield s, d, known, (u, np.ascontiguousarray(u), np.asfortranarray(u))


def cellwise_sums(s, d, variant, value, cold):
    """The variant's per-equation sums from first principles: cell by cell,
    in Python floats, over stencil_nodes in stencil order, skipping zero
    coefficients and the nodes for which value(l, m) is None.  The causal
    three-level closure's column 0 holds the cold start's term cold(i)."""
    sums = [[0.0] * d.nt for _ in range(d.nx - 1)]
    first = 1 if variant == "causal" and s.is_three_level else 0
    for i in range(1, d.nx):
        if first:
            sums[i - 1][0] = 0.0 + cold(i)
        for col in range(first, d.nt):
            total = 0.0
            for coef, l, m in stencil_nodes(s, i, col + (variant == "paper")):
                v = value(l, m) if m <= d.nt else None  # beyond the horizon
                if coef != 0.0 and v is not None:
                    total += coef * v
            sums[i - 1][col] = total
    return sums


def test_stencil_sums_match_cellwise_reference_byte_for_byte():
    """build_m0 and apply_operator, both closures, add the stencil terms in
    the cellwise reference's order, into an array of the same memory
    order: M0 row-major, the action in the order of U."""
    for s, d, known, fields in stencil_cases():
        def interior(l, m):
            return 1 <= l < d.nx and m >= 1
        for variant in assembly.VARIANTS:
            want = np.zeros((d.nx - 1, d.nt))
            sums = cellwise_sums(
                s, d, variant, lambda l, m: None if interior(l, m) else float(known[l, m]),
                lambda i: -1.0 * float(known[i, 1]))
            want[...] = [[0.0 - v for v in row] for row in sums]
            got = assembly.build_m0(s, d, known, variant)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (s, d, variant)
            u = fields[0]
            sums = cellwise_sums(
                s, d, variant,
                lambda l, m: float(u[l - 1, m - 1]) if interior(l, m) else None,
                lambda i: 1.0 * float(u[i - 1, 0]))
            for f in fields:
                want = np.zeros_like(f)
                want[...] = sums
                got = assembly.apply_operator(s, d, f, variant)
                assert got.flags.f_contiguous == want.flags.f_contiguous
                assert got.tobytes() == want.tobytes(), (s, d, variant)


def reference_l(s, u):
    """The paper closure's diagonal-shift operator L(U), entry (i, n):
    zeta*u_{i+1}^{n+1} + eta*u_{i-1}^{n-1} + theta*u_{i-1}^{n+1}
    + vartheta*u_{i+1}^{n-1}, zero-padded at the edges."""
    out = np.zeros_like(u)
    out[:-1, :-1] += s.zeta * u[1:, 1:]
    out[1:, 1:] += s.eta * u[:-1, :-1]
    out[1:, :-1] += s.theta * u[:-1, 1:]
    out[:-1, 1:] += s.vartheta * u[1:, :-1]
    return out


def test_paper_action_matches_matrix_form():
    """The paper action, summed from shifted views, is M1 U + U M2 + L(U) up
    to the order of the additions."""
    for s, d, _, (u, *_) in stencil_cases():
        want = (assembly.build_m1(s, d) @ u + u @ assembly.build_m2(s, d)
                + reference_l(s, u))
        got = assembly.apply_operator(s, d, u, "paper")
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (s, d)


def test_build_m0_lax_first_column():
    s = builtin_scheme("lax", LAX_SMALL)
    known = nodes(LAX_SMALL)
    m0 = assembly.build_m0(s, LAX_SMALL, known, "paper")
    assert m0[0, 0] == pytest.approx(3.0 * known[0, 1], rel=1e-14)
    assert m0[1, 0] == 0.0
    assert m0[2, 0] == pytest.approx(1.0 * known[4, 1], rel=1e-14)


def test_build_m0_zero_when_no_boundary_coupling():
    s = custom_scheme((1, -1, 0, 0, 0, 0, 0, 0, 0))
    m0 = assembly.build_m0(s, LAX_SMALL, nodes(LAX_SMALL), "paper")
    assert np.array_equal(m0, np.zeros((3, 3)))


def test_build_m0_crank_nicolson_corner_term():
    d = Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=1.0)
    s = builtin_scheme("crank-nicolson", d)
    known = nodes(d)
    m0 = assembly.build_m0(s, d, known, "paper")
    want = (-s.epsilon * known[0, 1] - s.eta * known[0, 0]
            - s.theta * known[0, 2])
    assert m0[0, 0] == pytest.approx(want, rel=1e-13)


def test_build_m0_paper_interior_column_sparsity():
    d = Discretization(nx=8, nt=6, h=1.0, tau=0.5, c=1.0)
    for name in BUILTIN_SCHEMES:
        s = builtin_scheme(name, d)
        m0 = assembly.build_m0(s, d, nodes(d), "paper")
        assert np.all(m0[1:-1, 1:-1] == 0.0), name


def test_bad_node_array_rejected_by_build_m0_and_simulator():
    from advectbench import advect
    s = builtin_scheme("lax", LAX_SMALL)
    good = nodes(LAX_SMALL)
    nan_boundary, inf_interior = good.copy(), good.copy()
    nan_boundary[0, 2] = np.nan
    inf_interior[2, 2] = np.inf
    text = good.tolist()
    text[2][2] = "x"
    ragged = good.tolist()
    ragged[-1] = ragged[-1][:-1]
    for bad in (good.T, good[1:-1, 1:], good.ravel(), nan_boundary, inf_interior,
                text, ragged):
        for variant in assembly.VARIANTS:
            with pytest.raises(UsageError):
                assembly.build_m0(s, LAX_SMALL, bad, variant)
        with pytest.raises(UsageError):
            advect.time_step_simulate(s, LAX_SMALL, bad)
    with pytest.raises(UsageError):  # no per-node callback path
        assembly.build_m0(s, LAX_SMALL, lambda i, m: 1.0, "paper")


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_build_m0_ignores_unknown_nodes(name):
    """M0 reads only the nodes the variant folds into it: overwriting every
    other interior node leaves M0 bit-identical."""
    d = Discretization.from_cfl(nx=9, nt=7, h=1.0, sigma=0.8, c=1.0)
    s = builtin_scheme(name, d)
    known = nodes(d, lam=4.3)
    for variant in assembly.VARIANTS:
        want = assembly.build_m0(s, d, known, variant)
        cold_start = variant == "causal" and s.is_three_level
        for fill in (0.0, -3.5e7, 1e300):
            scrambled = known.copy()
            scrambled[1:-1, 2 if cold_start else 1:] = fill
            got = assembly.build_m0(s, d, scrambled, variant)
            assert np.array_equal(got, want), (name, variant, fill)


@pytest.mark.parametrize("scheme", STENCILS)
def test_stacked_build_m0_is_bit_identical_to_single_calls(scheme):
    """A k x (nx+1) x (nt+1) stack of node arrays gives the stack of their
    M0s, each layer byte for byte the M0 of its array alone."""
    d = Discretization.from_cfl(nx=9, nt=7, h=1.0, sigma=0.8, c=1.0)
    s = (builtin_scheme(scheme, d) if isinstance(scheme, str)
         else custom_scheme(scheme))
    stack = np.array([nodes(d, lam) for lam in (2.0, 4.3, 9.7)])
    for variant in assembly.VARIANTS:
        m0 = assembly.build_m0(s, d, stack, variant)
        assert m0.shape == (3, d.nx - 1, d.nt)
        for layer, known in zip(m0, stack):
            want = assembly.build_m0(s, d, known, variant)
            assert layer.tobytes() == want.tobytes(), (scheme, variant)


def test_global_operator_paper_equals_kron_when_l_zero():
    for nx, nt in ((6, 5), (7, 5), (5, 9)):
        d = Discretization(nx=nx, nt=nt, h=1.0, tau=0.5, c=1.0)
        for name in ("lax", "leapfrog", "lax-wendroff"):
            s = builtin_scheme(name, d)
            g = assembly.global_operator(s, d, "paper")
            k = linalg.kron_vec_operator(assembly.build_m1(s, d),
                                         assembly.build_m2(s, d))
            assert np.array_equal(g, k), (name, nx, nt)


def test_global_operator_causal_lax_reproduces_simulator():
    from advectbench import advect
    from advectbench.schemes import SignalSpec
    d = Discretization.from_cfl(nx=6, nt=5, h=1.0, sigma=0.8, c=1.0)
    s = builtin_scheme("lax", d)
    signal = SignalSpec.from_cells_per_wavelength(4.0, d)
    known = advect.sample_nodes(d, signal)
    g = assembly.global_operator(s, d, "causal")
    # block lower bidiagonal in time: no equation references a later level
    rows = d.nx - 1
    assert np.all(np.triu(g, rows) == 0.0)
    m0 = assembly.build_m0(s, d, known, "causal")
    u = linalg.unvec(linalg.gauss_solve(g, linalg.vec(m0)), rows, d.nt)
    sim = advect.time_step_simulate(s, d, known)
    assert np.allclose(u, sim.values, rtol=0, atol=1e-13)


def test_global_operator_action_equality_all_schemes_both_variants():
    rng = np.random.default_rng(1)
    for nx, nt in ((6, 5), (7, 5), (5, 9)):
        d = Discretization.from_cfl(nx=nx, nt=nt, h=1.0, sigma=0.8, c=1.0)
        for name in BUILTIN_SCHEMES:
            s = builtin_scheme(name, d)
            for variant in assembly.VARIANTS:
                g = assembly.global_operator(s, d, variant)
                for _ in range(20):
                    u = rng.uniform(-1, 1, (d.nx - 1, d.nt))
                    lhs = linalg.unvec(g @ linalg.vec(u), d.nx - 1, d.nt)
                    rhs = assembly.apply_operator(s, d, u, variant)
                    scale = max(1.0, np.linalg.norm(rhs))
                    assert (np.linalg.norm(lhs - rhs) <= 1e-13 * scale), (
                        name, variant, nx, nt)


@pytest.mark.parametrize("nx,nt", [(7, 5), (5, 9), (20, 20), (30, 30)])
def test_band_operator_all_schemes_both_variants(nx, nt):
    """The band built from the stencil table is the global operator's, and
    its LU solves agree with dense solvers; scipy's banded solver reads the
    same LAPACK layout."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    d = Discretization.from_cfl(nx=nx, nt=nt, h=1.0, sigma=0.8, c=1.0)
    rng = np.random.default_rng(nx * nt)
    for name in BUILTIN_SCHEMES:
        s = builtin_scheme(name, d)
        for variant in assembly.VARIANTS:
            g = assembly.global_operator(s, d, variant)
            ab, kl = linalg.band_from_entries(*assembly.operator_entries(s, d, variant))
            ku = ab.shape[1] - 2 * kl - 1
            row, col = np.nonzero(g)
            assert (kl, ku) == (max(0, np.max(row - col)),
                                max(0, np.max(col - row))), (name, variant)
            want_ab, want_kl = linalg.to_band(g)
            assert want_kl == kl and np.array_equal(ab, want_ab)
            b = rng.uniform(-1, 1, g.shape[0])
            if name == "lax" and variant == "paper" and nx == nt == 20:
                with pytest.raises(SingularSystemError, match="at column 18"):
                    linalg._lu_factor(ab, kl)
                continue
            try:
                x = linalg._lu_solve(*linalg._lu_factor(ab, kl), b)
            except SingularSystemError:
                assert np.linalg.cond(g) > 1e12, (name, variant)
                continue
            if np.linalg.cond(g) <= 1e3:
                for want in (np.linalg.solve(g, b),
                             scipy_linalg.solve_banded((kl, ku), ab.T[kl:], b)):
                    assert (np.linalg.norm(x - want)
                            <= 1e-12 * np.linalg.norm(want)), (name, variant)
            else:
                # ill-conditioned: only the backward error is meaningful
                backward = (np.linalg.norm(g @ x - b)
                            / (np.linalg.norm(g) * np.linalg.norm(x)))
                assert backward <= 1e-14, (name, variant)


def test_band_operator_size_guard_comes_before_any_allocation(monkeypatch):
    d = Discretization(nx=200, nt=200, h=1.0, tau=0.5, c=1.0)
    s = builtin_scheme("lax", d)

    def forbidden(*args):
        raise AssertionError("allocated before the size guard")
    monkeypatch.setattr(assembly, "stencil_table", forbidden)
    monkeypatch.setattr(linalg, "band_from_entries", forbidden)
    with pytest.raises(UsageError, match="size 39800 exceeds limit 20000"):
        linalg.band_from_entries(*assembly.operator_entries(s, d, "causal"))


def test_operator_entries_are_the_stencil_table():
    """Both global operators and sigma_min read the table's three arrays."""
    d = Discretization.from_cfl(nx=7, nt=5, h=1.0, sigma=0.8, c=1.0)
    s = builtin_scheme("leapfrog", d)
    t = assembly.stencil_table(s, d, "causal")
    size, *entries = assembly.operator_entries(s, d, "causal")
    assert size == 6 * 5 and len(t) == len(entries) == 3
    assert all(np.array_equal(a, b) for a, b in zip(entries, t))


def test_sums_never_build_the_stencil_table(monkeypatch):
    """M0, the action and the residual, in both closures, and a leapfrog
    paper Bartels-Stewart solve run without the stencil table."""
    def forbidden(*args):
        raise AssertionError("built the stencil table")
    monkeypatch.setattr(assembly, "stencil_table", forbidden)
    d = Discretization.from_cfl(nx=9, nt=7, h=1.0, sigma=0.8, c=1.0)
    known = nodes(d, lam=4.3)
    for scheme in STENCILS:
        s = (builtin_scheme(scheme, d) if isinstance(scheme, str)
             else custom_scheme(scheme))
        for variant in assembly.VARIANTS:
            m0 = assembly.build_m0(s, d, known, variant)
            action = assembly.apply_operator(s, d, known[1:-1, 1:], variant)
            res = assembly.residual(s, d, known, known[1:-1, 1:], variant)
            assert np.array_equal(res, action - m0), (scheme, variant)
    solver = sylvester.ErrorEquationSolver(builtin_scheme("leapfrog", d), d,
                                           variant="paper", method="bartels-stewart")
    _, _, residual = solver.solve(SignalSpec.from_cells_per_wavelength(10.0, d))
    assert math.isfinite(residual)


def test_residual_of_zero_field_is_minus_m0():
    s = builtin_scheme("lax", LAX_SMALL)
    known = nodes(LAX_SMALL)
    m0 = assembly.build_m0(s, LAX_SMALL, known, "paper")
    assert np.array_equal(
        assembly.residual(s, LAX_SMALL, known, np.zeros((3, 3)), "paper"), -m0)


def reference_residual(s, d, u, known, variant):
    """operator(U) - M0 from first principles: the raw stencil relation on
    the full field at every equation of the variant."""
    def field(l, m):
        if m > d.nt:  # beyond the time horizon: absent in the paper closure
            return 0.0
        if l in (0, d.nx) or m == 0:
            return known[l, m]
        return u[l - 1, m - 1]

    res = np.full(u.shape, np.nan)
    for i in range(1, d.nx):
        if variant == "paper":
            for n in range(1, d.nt + 1):
                res[i - 1, n - 1] = stencil_residual_at(s, field, i, n)
            continue
        first = 1 if s.is_three_level else 0
        if first:  # cold start pins level 1 to the known data
            res[i - 1, 0] = u[i - 1, 0] - known[i, 1]
        for n0 in range(first, d.nt):
            res[i - 1, n0] = stencil_residual_at(s, field, i, n0)
    return res


# (space offset, time offset) of the stencil terms in catalogue order:
# alpha, beta, gamma, delta, epsilon, zeta, eta, theta, vartheta
OFFSETS = ((0, 1), (0, 0), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (-1, 1), (1, -1))


@pytest.mark.parametrize("n", [20, 1000])
@pytest.mark.parametrize("name", [*BUILTIN_SCHEMES, "custom"])
def test_residual_of_the_exact_wave_is_its_symbol_times_the_wave(name, n):
    """The truncation residual of cos(kappa (x - c t)) is Re(rho Z) on every
    equation of either closure, with Z[i, m] = exp(i kappa (x_i - c t_m)) at
    the equation's centre and rho = sum_j c_j exp(i kappa (dx_j h - c dn_j
    tau)) the stencil's symbol, an oracle read from the offsets alone.
    Exempt are the paper horizon column, whose beyond-horizon terms are
    dropped, and the cold-start column 0 of a three-level causal closure.
    The bound, fixed before measuring, is the cosines' phase rounding:
    64 eps sum |c_j| (1 + kappa (nx h + |c| nt tau))."""
    d = Discretization.from_cfl(nx=n, nt=n, h=1.0, sigma=0.8, c=1.0)
    s = (custom_scheme((1, 0.5, -0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02))
         if name == "custom" else builtin_scheme(name, d))
    signal = SignalSpec.from_cells_per_wavelength(9.8, d)
    kappa = 2.0 * math.pi / signal.wavelength
    coeffs = s.as_tuple()
    rho = sum(cj * np.exp(1j * kappa * (dx * d.h - d.c * dn * d.tau))
              for cj, (dx, dn) in zip(coeffs, OFFSETS))
    x = np.arange(1, d.nx)[:, None] * d.h
    t = np.arange(d.nt + 1)[None, :] * d.tau
    z = np.exp(1j * kappa * (x - d.c * t))
    bound = (64 * np.finfo(float).eps * sum(map(abs, coeffs))
             * (1 + kappa * (d.nx * d.h + abs(d.c) * d.nt * d.tau)))
    known = advect.sample_nodes(d, signal)
    for variant, centres, exempt in (("paper", z[:, 1:], [-1]),
                                     ("causal", z[:, :-1], [0] if s.is_three_level else [])):
        deviation = np.abs(assembly.residual(s, d, known, known[1:-1, 1:], variant)
                           - (rho * centres).real)
        deviation[:, exempt] = 0.0
        assert np.max(deviation) <= bound, (variant, np.max(deviation) / bound)


def test_stencil_matrix_consistency_all_schemes_both_variants():
    """The matricial residual equals cell-wise stencil evaluation with known
    nodes folded into M0, on every interior cell the variant covers."""
    rng = np.random.default_rng(2)
    for nx, nt in ((20, 20), (7, 5), (5, 9)):
        d = Discretization.from_cfl(nx=nx, nt=nt, h=1.0, sigma=0.8, c=1.0)
        u = rng.uniform(-1, 1, (d.nx - 1, d.nt))
        known = nodes(d, lam=9.0)
        for name in BUILTIN_SCHEMES:
            s = builtin_scheme(name, d)
            scale = max(abs(v) for v in s.as_tuple()) * max(1.0, np.max(np.abs(u)))
            for variant in assembly.VARIANTS:
                res = assembly.residual(s, d, known, u, variant)
                want = reference_residual(s, d, u, known, variant)
                assert np.max(np.abs(res - want)) <= 1e-12 * scale, (
                    name, variant, nx, nt)


def test_stencil_table_order_and_cold_start():
    d = Discretization.from_cfl(nx=5, nt=4, h=1.0, sigma=0.8, c=1.0)
    s = builtin_scheme("leapfrog", d)  # alpha, gamma, delta, epsilon
    known = nodes(d, lam=3.7)
    eq, node, coef = assembly.stencil_table(s, d, "causal")
    m0 = assembly.build_m0(s, d, known, "causal")
    rows = d.nx - 1
    assert np.all(np.diff(eq) >= 0)
    # cold start: equation i-1 is U[i-1, 0] - known[i, 1]
    assert [eq[0], node[0], coef[0]] == [0, 0, 1.0]  # U[0, 0]
    assert m0[0, 0] == known[1, 1]
    # first centered equation (i=1, n=1) produces column 1, stencil order:
    # alpha U[0, 1], delta U[1, 0]; gamma known[1, 0], epsilon known[0, 1]
    first = eq == rows
    assert coef[first].tolist() == [s.alpha, s.delta]
    assert node[first].tolist() == [rows, 1]
    assert m0[0, 1] == 0.0 - (s.gamma * known[1, 0] + s.epsilon * known[0, 1])
    # paper closure: the last column drops the beyond-horizon alpha term
    eq, node, coef = assembly.stencil_table(s, d, "paper")
    m0 = assembly.build_m0(s, d, known, "paper")
    last = rows * d.nt - 1
    assert eq.max() == last
    assert node.max() < rows * d.nt
    # gamma U[3, 2], epsilon U[2, 3]; delta known[5, 4]
    assert node[eq == last].tolist() == [last - rows, last - 1]
    assert m0[-1, -1] == 0.0 - s.delta * known[d.nx, d.nt]


def test_stencil_matrix_consistency_against_stencil_residual_at():
    """Causal-variant residual at a produced level equals the raw stencil
    relation evaluated on the full field (interior + known nodes)."""
    d = Discretization.from_cfl(nx=8, nt=6, h=1.0, sigma=0.8, c=1.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, (d.nx - 1, d.nt))
    known = nodes(d, lam=5.0)

    def field(l, m):
        if 1 <= l <= d.nx - 1 and 1 <= m <= d.nt:
            return u[l - 1, m - 1]
        return known[l, m]

    for name in ("lax", "lax-wendroff"):  # two-level: centered n = 0..nt-1
        s = builtin_scheme(name, d)
        res = assembly.residual(s, d, known, u, "causal")
        for n0 in range(d.nt):
            for i in range(1, d.nx):
                cell = stencil_residual_at(s, field, i, n0)
                assert abs(res[i - 1, n0] - cell) <= 1e-12, (name, i, n0)


def test_unknown_variant_rejected():
    with pytest.raises(UsageError):
        assembly.residual(builtin_scheme("lax", LAX_SMALL), LAX_SMALL,
                          nodes(LAX_SMALL), np.zeros((3, 3)), "bogus")


def test_apply_operator_shape_check():
    with pytest.raises(UsageError):
        assembly.apply_operator(builtin_scheme("lax", LAX_SMALL), LAX_SMALL,
                                np.zeros((2, 2)), "paper")


# ------------------------------------------------ the sums' overflow contract

# beta = 4 and alpha = 1 in the paper closure's action; the node arrays hold
# 1e308, so 4 * 1e308 overflows as a product and 1e308 + 1e308 as a sum
BIG = Discretization.from_cfl(nx=6, nt=5, h=1.0, sigma=0.8, c=1.0)


def big_field(value=1e308):
    return np.full((BIG.nx - 1, BIG.nt), value)


def big_nodes(value=1e308):
    return np.full((BIG.nx + 1, BIG.nt + 1), value)


def test_an_overflowing_product_raises_under_the_callers_errstate():
    s = custom_scheme((1.0, 4.0, 0, 0, 0, 0, 0, 0, 0))
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            assembly.apply_operator(s, BIG, big_field(), "paper")
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            assembly.build_m0(s, BIG, big_nodes(), "causal")
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            assembly.residual(s, BIG, big_nodes(1.0), big_field(), "paper")


def test_an_overflowing_product_warns_under_the_default_errstate():
    s = custom_scheme((1.0, 4.0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        action = assembly.apply_operator(s, BIG, big_field(), "paper")
    assert np.isinf(action).all()
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        m0 = assembly.build_m0(s, BIG, big_nodes(), "causal")
    assert np.isneginf(m0[:, 0]).all()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_finite_products_whose_sum_overflows_give_inf_silently(sign):
    """alpha = beta = delta = 1 on nodes of 1e308: every product is finite,
    their sums are not.  A sum is the caller's to judge (the solver's
    residual check), so it neither raises nor warns, whatever the caller's
    errstate."""
    s = custom_scheme((1.0, 1.0, 0, 1.0, 0, 0, 0, 0, 0))
    for state in ({"over": "raise", "invalid": "raise"}, {}):
        with np.errstate(**state), warnings.catch_warnings():
            warnings.simplefilter("error")
            action = assembly.apply_operator(s, BIG, big_field(sign * 1e308), "paper")
            m0 = assembly.build_m0(s, BIG, big_nodes(sign * 1e308), "causal")
        # the horizon column drops alpha, the last row's delta reads a
        # boundary node, which the action takes as zero
        assert np.array_equal(action[:, :-1], np.full((5, 4), sign * np.inf))
        assert np.array_equal(action[:-1, -1], np.full(4, sign * np.inf))
        assert action[-1, -1] == sign * 1e308
        # M0's first column sums beta and delta over level 0
        assert np.array_equal(m0[:, 0], np.full(5, -sign * np.inf))


@pytest.mark.parametrize("variant", assembly.VARIANTS)
@pytest.mark.parametrize("scheme", STENCILS)
def test_the_sums_hold_no_negative_zero(scheme, variant):
    """Products of negative coefficients and zeros are -0.0, and so are sums
    of them; the action and M0 add them into fresh zeros, which gives +0.0."""
    d = Discretization.from_cfl(nx=7, nt=6, h=1.0, sigma=0.8, c=1.0)
    s = (builtin_scheme(scheme, d) if isinstance(scheme, str)
         else custom_scheme(scheme))
    known = np.zeros((d.nx + 1, d.nt + 1))
    known[::2, ::3] = -1.0
    for nodes_ in (known, -known, np.zeros_like(known)):
        for got in (assembly.apply_operator(s, d, nodes_[1:-1, 1:], variant),
                    assembly.build_m0(s, d, nodes_, variant)):
            assert not np.any(np.signbit(got) & (got == 0.0)), (scheme, variant)
