"""Matricial assembly tests: M1, M2, L, M0, global operator, residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advectbench import assembly, linalg
from advectbench.errors import SingularSystemError, UsageError
from advectbench.schemes import (BUILTIN_SCHEMES, Discretization,
                                 builtin_scheme, custom_scheme,
                                 stencil_residual_at)

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
    s = custom_scheme((0, 0, 0, 0, 0, 1, 0, 0, 0))
    want = np.array([[5.0, 6.0, 0.0], [8.0, 9.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(assembly.apply_l(s, U3), want)


def test_apply_l_vartheta_pattern():
    s = custom_scheme((1, 0, 0, 0, 0, 0, 0, 0, 1))
    want = np.array([[0.0, 4.0, 5.0], [0.0, 7.0, 8.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(assembly.apply_l(s, U3), want)


def test_apply_l_eta_down_right_shift():
    s = custom_scheme((1, 0, 0, 0, 0, 0, 1, 0, 0))
    want = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 4.0, 5.0]])
    assert np.array_equal(assembly.apply_l(s, U3), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
def test_apply_l_is_linear(seed, a, b):
    g = np.random.default_rng(seed)
    s = custom_scheme(g.uniform(-1, 1, 9))
    u, v = g.uniform(-1, 1, (3, 4)), g.uniform(-1, 1, (3, 4))
    lhs = assembly.apply_l(s, a * u + b * v)
    rhs = a * assembly.apply_l(s, u) + b * assembly.apply_l(s, v)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


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
    for bad in (good.T, good[1:-1, 1:], good.ravel(), nan_boundary, inf_interior):
        for variant in assembly.VARIANTS:
            with pytest.raises(UsageError):
                assembly.build_m0(s, LAX_SMALL, bad, variant)
        with pytest.raises(UsageError):
            advect.time_step_simulate(s, LAX_SMALL, bad)
    with pytest.raises(TypeError):  # no per-node callback path
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
                prob = assembly.assemble(s, d, nodes(d), variant)
                for _ in range(20):
                    u = rng.uniform(-1, 1, (d.nx - 1, d.nt))
                    lhs = linalg.unvec(g @ linalg.vec(u), d.nx - 1, d.nt)
                    rhs = assembly.apply_operator(prob, u)
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
            ab, kl = assembly.band_operator(s, d, variant)
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
        assembly.band_operator(s, d, "causal")


def test_stencil_table_is_memoized_and_read_only():
    d = Discretization.from_cfl(nx=7, nt=5, h=1.0, sigma=0.8, c=1.0)
    s = builtin_scheme("leapfrog", d)
    t = assembly.stencil_table(s, d, "causal")
    assert assembly.stencil_table(builtin_scheme("leapfrog", d),
                                  Discretization.from_cfl(nx=7, nt=5, h=1.0,
                                                          sigma=0.8, c=1.0),
                                  "causal") is t
    for column in (t.eq, t.i, t.m, t.coef, t.known):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]


def test_residual_of_zero_field_is_minus_m0():
    s = builtin_scheme("lax", LAX_SMALL)
    prob = assembly.assemble(s, LAX_SMALL, nodes(LAX_SMALL), "paper")
    assert np.array_equal(assembly.residual(prob, np.zeros((3, 3))), -prob.m0)


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
                prob = assembly.assemble(s, d, known, variant)
                res = assembly.residual(prob, u)
                want = reference_residual(s, d, u, known, variant)
                assert np.max(np.abs(res - want)) <= 1e-12 * scale, (
                    name, variant, nx, nt)


def test_stencil_table_order_and_cold_start():
    d = Discretization.from_cfl(nx=5, nt=4, h=1.0, sigma=0.8, c=1.0)
    s = builtin_scheme("leapfrog", d)  # alpha, gamma, delta, epsilon
    t = assembly.stencil_table(s, d, "causal")
    assert np.all(np.diff(t.eq) >= 0)
    # cold start: equation i-1 is U[i-1, 0] - known[i, 1]
    assert t.eq[:2].tolist() == [0, 0]
    assert t.coef[:2].tolist() == [1.0, -1.0]
    assert t.known[:2].tolist() == [False, True]
    # first centered equation (i=1, n=1) produces column 1, stencil order
    first = t.eq == d.nx - 1
    assert t.coef[first].tolist() == [s.alpha, s.gamma, s.delta, s.epsilon]
    assert t.i[first].tolist() == [1, 1, 2, 0]
    assert t.m[first].tolist() == [2, 0, 1, 1]
    assert t.known[first].tolist() == [False, True, False, True]
    # paper closure: the last column drops the beyond-horizon alpha term
    p = assembly.stencil_table(s, d, "paper")
    assert p.eq.max() == (d.nx - 1) * d.nt - 1
    assert np.all(p.m <= d.nt)
    assert np.sum(p.eq == p.eq.max()) == 3


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
        prob = assembly.assemble(s, d, known, "causal")
        res = assembly.residual(prob, u)
        for n0 in range(d.nt):
            for i in range(1, d.nx):
                cell = stencil_residual_at(s, field, i, n0)
                assert abs(res[i - 1, n0] - cell) <= 1e-12, (name, i, n0)


def test_unknown_variant_rejected():
    with pytest.raises(UsageError):
        assembly.assemble(builtin_scheme("lax", LAX_SMALL), LAX_SMALL,
                          nodes(LAX_SMALL), "bogus")


def test_apply_operator_shape_check():
    prob = assembly.assemble(builtin_scheme("lax", LAX_SMALL), LAX_SMALL,
                             nodes(LAX_SMALL), "paper")
    with pytest.raises(UsageError):
        assembly.apply_operator(prob, np.zeros((2, 2)))
