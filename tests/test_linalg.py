"""Dense linear-algebra kernel tests against numpy and first-principles
oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advectbench import linalg
from advectbench.errors import NumericalFailureError, SingularSystemError, UsageError


def rng(seed=0):
    return np.random.default_rng(seed)


def test_nonfinite_input_rejected():
    with pytest.raises(UsageError):
        linalg.as_matrix(np.array([[1.0, np.nan]]), "a")
    with pytest.raises(UsageError):
        linalg.as_matrix(np.array([[np.inf]]), "a")


def test_non_numeric_input_rejected():
    for bad in ([[1.0, "x"]], [[1.0], [1.0, 2.0]], lambda i, m: 1.0):
        with pytest.raises(UsageError, match="a must be a numeric array"):
            linalg.as_matrix(bad, "a")
    for bad in ([1.0, "x"], [[1.0], [1.0, 2.0]]):
        with pytest.raises(UsageError, match="v must be a numeric array"):
            linalg.as_vector(bad, "v")


# ---------------------------------------------------------- frobenius_norm


def test_frobenius_zero_and_345():
    assert linalg.frobenius_norm(np.zeros((3, 3))) == 0.0
    assert linalg.frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


def test_frobenius_finite_when_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.frobenius_norm([[1e200, 1e200]])
    want = math.sqrt(2.0) * 1e200
    assert abs(got - want) <= 1e-15 * want


def test_frobenius_nonzero_when_squares_underflow():
    got = linalg.frobenius_norm([[1e-200, 1e-200]])
    want = math.sqrt(2.0) * 1e-200
    assert abs(got - want) <= 1e-15 * want


def test_frobenius_extended_precision_oracle():
    a = rng(3).uniform(-1, 1, (6, 6))
    want = math.sqrt(math.fsum(float(v) ** 2 for v in a.ravel()))
    assert abs(linalg.frobenius_norm(a) - want) <= 1e-14 * want


# ------------------------------------------------------------- hessenberg


def test_hessenberg_2x2_is_noop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    q, h = linalg.hessenberg(a)
    assert np.array_equal(q, np.eye(2))
    assert np.array_equal(h, a)


def test_hessenberg_upper_triangular_input():
    a = np.triu(rng(4).uniform(-1, 1, (6, 6)))
    q, h = linalg.hessenberg(a)
    assert np.all(np.abs(np.tril(h, -2)) == 0.0)
    assert np.linalg.norm(q @ h @ q.T - a) <= 1e-12 * max(1.0, np.linalg.norm(a))


def test_hessenberg_random_residuals():
    a = rng(5).uniform(-1, 1, (10, 10))
    q, h = linalg.hessenberg(a)
    scale = max(1.0, np.linalg.norm(a))
    assert np.all(np.abs(np.tril(h, -2)) == 0.0)
    assert np.linalg.norm(q @ h @ q.T - a) <= 1e-12 * scale
    assert np.linalg.norm(q.T @ q - np.eye(10)) <= 1e-12 * math.sqrt(10)


# --------------------------------------------------------- schur_decompose


def _assert_quasi_triangular(t):
    n = t.shape[0]
    assert np.all(np.abs(np.tril(t, -2)) == 0.0)
    for i in range(n - 1):
        if t[i + 1, i] != 0.0:
            if i > 0:
                assert t[i, i - 1] == 0.0
            if i + 2 < n:
                assert t[i + 2, i + 1] == 0.0


def test_schur_diagonal_input():
    f = linalg.schur_decompose(np.diag([1.0, 2.0, 3.0]))
    assert sorted(z.real for z in f.eigenvalues) == [1.0, 2.0, 3.0]
    assert all(z.imag == 0.0 for z in f.eigenvalues)


def test_schur_rotation_block():
    f = linalg.schur_decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    got = sorted(f.eigenvalues, key=lambda z: z.imag)
    assert abs(got[0] - (-1j)) <= 1e-14
    assert abs(got[1] - 1j) <= 1e-14
    assert f.t[1, 0] != 0.0  # one genuine 2x2 block


def test_schur_random_20x20_vs_numpy_eigvals():
    a = rng(6).uniform(-1, 1, (20, 20))
    f = linalg.schur_decompose(a)
    _assert_quasi_triangular(f.t)
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(f.q @ f.t @ f.q.T - a) <= 1e-11 * scale
    got = sorted(f.eigenvalues, key=lambda z: (z.real, z.imag))
    want = sorted(np.linalg.eigvals(a), key=lambda z: (z.real, z.imag))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8


def test_schur_blocks_walk():
    t = np.triu(np.ones((5, 5)))
    t[1, 0] = t[4, 3] = 0.5  # 2x2 blocks at 0 and 3, 1x1 at 2
    assert linalg.schur_blocks(t) == [(0, 2), (2, 1), (3, 2)]
    assert linalg.schur_blocks(np.eye(2)) == [(0, 1), (1, 1)]
    assert linalg.schur_blocks(np.zeros((0, 0))) == []


def test_schur_nonconvergence_reports_iterations():
    with pytest.raises(Exception) as info:
        linalg.schur_decompose(rng(7).uniform(-1, 1, (12, 12)), max_sweeps=1)
    assert getattr(info.value, "iterations", None) == 1


def test_schur_of_power_of_two_multiple_is_the_exact_multiple():
    """Schur iterates on its input scaled to unit magnitude, so 2**k A gives
    the same Q and exactly 2**k T, also where A's squares overflow."""
    a = rng(8).uniform(-1, 1, (9, 9))
    f = linalg.schur_decompose(a)
    for k in (-600, 3, 900):
        g = linalg.schur_decompose(np.ldexp(a, k))
        assert np.array_equal(g.q, f.q)
        assert np.array_equal(g.t, np.ldexp(f.t, k))
        assert g.eigenvalues == [z * 2.0 ** k for z in f.eigenvalues]


def test_schur_beyond_float_range_is_numerical_failure():
    a = np.array([[1.7e308, 1.7e308], [1.7e308, 1.7e308]])
    with pytest.raises(NumericalFailureError, match="floating-point range"):
        linalg.schur_decompose(a)


# ------------------------------------------------------------- eigenvalues


def test_eigenvalues_of_tridiagonal_whose_products_overflow():
    a = np.diag([1e200, 1e200], 1) + np.diag([1e200, 1e200], -1)
    got = sorted(z.real for z in linalg.eigenvalues(a))
    want = [-math.sqrt(2.0) * 1e200, 0.0, math.sqrt(2.0) * 1e200]
    assert all(abs(g - w) <= 1e-14 * 1e200 for g, w in zip(got, want))


def test_eigenvalues_identity():
    assert linalg.eigenvalues(np.eye(4)) == [1.0, 1.0, 1.0, 1.0]


def test_eigenvalues_nilpotent_lower_bidiagonal():
    a = np.diag([2.0, 3.0, 4.0], -1)
    assert all(z == 0.0 for z in linalg.eigenvalues(a))


def test_eigenvalues_tridiagonal_toeplitz_closed_form():
    m = 9
    delta, eps = -0.3, -1.7
    a = np.diag(np.full(m - 1, delta), 1) + np.diag(np.full(m - 1, eps), -1)
    want = sorted(2.0 * math.sqrt(delta * eps) * math.cos(k * math.pi / (m + 1))
                  for k in range(1, m + 1))
    got = sorted(z.real for z in linalg.eigenvalues(a))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10


def test_eigenvalue_trace_and_determinant_identities():
    for seed in range(10):
        n = int(rng(seed).integers(2, 13))
        a = rng(100 + seed).uniform(-1, 1, (n, n))
        eig = linalg.eigenvalues(a)
        tr = sum(eig)
        assert abs(tr.imag) <= 1e-9
        assert abs(tr.real - np.trace(a)) <= 1e-9 * (1.0 + abs(np.trace(a)))
        prod = complex(1.0)
        for z in eig:
            prod *= z
        det = np.linalg.det(a)
        assert abs(prod - det) <= 1e-7 * max(abs(det), 1e-30)


# -------------------------------------------------------------- gauss_solve


def test_gauss_solve_identity_and_diagonal():
    b = rng(8).uniform(-1, 1, 5)
    assert np.allclose(linalg.gauss_solve(np.eye(5), b), b, atol=0)
    x = linalg.gauss_solve(np.array([[2.0, 0.0], [0.0, 4.0]]),
                           np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-15)


def test_gauss_solve_residual():
    a = rng(9).uniform(-1, 1, (12, 12)) + 3.0 * np.eye(12)
    b = rng(10).uniform(-1, 1, 12)
    x = linalg.gauss_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_gauss_solve_singular():
    with pytest.raises(SingularSystemError):
        linalg.gauss_solve(np.ones((3, 3)), np.ones(3))


def _dense_lu_solve(a, b, pivot_rtol=1e-13):
    """Reference: dense Gaussian elimination with partial pivoting, rows
    exchanged whole and the permutation applied to b up front."""
    lu = a.copy()
    n = lu.shape[0]
    perm = np.arange(n)
    thresh = pivot_rtol * max(linalg.frobenius_norm(a), 1e-300)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= thresh:
            raise SingularSystemError(
                f"pivot {abs(lu[p, k]):.3e} below {thresh:.3e} at column {k}")
        lu[[k, p], :] = lu[[p, k], :]
        perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    x = b[perm].astype(float)
    for k in range(n):
        x[k + 1:] -= np.multiply.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):
        x[k] /= lu[k, k]
        x[:k] -= np.multiply.outer(lu[:k, k], x[k])
    return x


def test_gauss_solve_bit_identical_to_dense_elimination():
    g = rng(20)
    cases = [g.uniform(-1, 1, (6, 6))]
    # the 1x1, 2x2 and 4x4 block systems of the Bartels-Stewart
    # back-substitution: vectorized operators of Schur diagonal blocks
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        ta = np.triu(g.uniform(-1, 1, (m, m)), -1)
        tb = np.triu(g.uniform(-1, 1, (n, n)), -1)
        cases.append(linalg.kron_vec_operator(ta, tb))
    for a in cases:
        n = a.shape[0]
        for b in (g.uniform(-1, 1, n), g.uniform(-1, 1, (n, 3))):
            got = linalg.gauss_solve(a, b)
            assert got.shape == b.shape
            assert got.tobytes() == _dense_lu_solve(a, b).tobytes()


def test_band_lu_keeps_bandwidth_and_pivot_message():
    g = rng(21)
    n, kl, ku = 12, 2, 3
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    a = np.where((offsets <= kl) & (-offsets <= ku), g.uniform(-1, 1, (n, n)), 0.0)
    ab, got_kl = linalg.to_band(a)
    assert got_kl == kl and ab.shape == (n, 2 * kl + ku + 1)
    b = g.uniform(-1, 1, n)
    assert (linalg._lu_solve(*linalg._lu_factor(ab, kl), b).tobytes()
            == _dense_lu_solve(a, b).tobytes())
    a[:, 4] = 0.0
    with pytest.raises(SingularSystemError) as want:
        _dense_lu_solve(a, b)
    with pytest.raises(SingularSystemError, match="at column 4") as got:
        linalg.gauss_solve(a, b)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------------ tridiag_solve


def test_tridiag_identity_diagonal():
    x = linalg.tridiag_solve(np.zeros(2), np.ones(3), np.zeros(2),
                             np.array([4.0, 5.0, 6.0]))
    assert np.array_equal(x, [4.0, 5.0, 6.0])


def test_tridiag_symmetric_2x2():
    x = linalg.tridiag_solve(np.array([1.0]), np.array([2.0, 2.0]),
                             np.array([1.0]), np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-15)


def test_tridiag_matches_dense_solve():
    n = 10
    sub = rng(11).uniform(-1, 1, n - 1)
    dia = rng(12).uniform(-1, 1, n) + 4.0
    sup = rng(13).uniform(-1, 1, n - 1)
    b = rng(14).uniform(-1, 1, n)
    a = np.diag(dia) + np.diag(sub, -1) + np.diag(sup, 1)
    x = linalg.tridiag_solve(sub, dia, sup, b)
    assert np.allclose(x, linalg.gauss_solve(a, b), rtol=1e-12, atol=1e-12)


def test_tridiag_zero_pivot():
    with pytest.raises(SingularSystemError):
        linalg.tridiag_solve(np.array([0.0]), np.array([0.0, 1.0]),
                             np.array([0.0]), np.array([1.0, 1.0]))


# --------------------------------------------------- min-norm least squares


def test_min_norm_unreachable_row():
    x = linalg.cod_factor(np.array([[1.0, 0.0], [0.0, 0.0]])).solve_min_norm(
        np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.0], atol=1e-14)


def test_min_norm_point_on_line():
    x = linalg.cod_factor(np.array([[1.0, 1.0]])).solve_min_norm(np.array([2.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_min_norm_kkt_and_null_orthogonality():
    g = rng(15)
    a = g.uniform(-1, 1, (8, 3)) @ g.uniform(-1, 1, (3, 6))  # rank 3
    b = g.uniform(-1, 1, 8)
    fac = linalg.cod_factor(a)
    assert fac.rank == 3
    x = fac.solve_min_norm(b)
    scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
    assert np.linalg.norm(a.T @ (a @ x - b)) <= 1e-10 * scale
    z = fac.null_space()
    assert z.shape == (6, 3)
    assert np.linalg.norm(a @ z) <= 1e-10 * max(1.0, np.linalg.norm(a))
    for k in range(50):
        v = z @ rng(200 + k).uniform(-1, 1, 3)
        assert abs(x @ v) <= 1e-10 * max(1.0, np.linalg.norm(v))


def test_min_norm_matches_numpy_lstsq():
    g = rng(16)
    a = g.uniform(-1, 1, (9, 4)) @ g.uniform(-1, 1, (4, 7))
    b = g.uniform(-1, 1, 9)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(linalg.cod_factor(a).solve_min_norm(b), want,
                       rtol=1e-9, atol=1e-12)


def test_min_norm_zero_matrix():
    x = linalg.cod_factor(np.zeros((3, 4))).solve_min_norm(np.ones(3))
    assert np.array_equal(x, np.zeros(4))
    assert linalg.cod_factor(np.zeros((3, 4))).rank == 0


def test_min_norm_agrees_with_gauss_on_full_rank():
    a = rng(17).uniform(-1, 1, (7, 7)) + 3.0 * np.eye(7)
    b = rng(18).uniform(-1, 1, 7)
    x1 = linalg.cod_factor(a).solve_min_norm(b)
    x2 = linalg.gauss_solve(a, b)
    assert np.linalg.norm(x1 - x2) <= 1e-9 * max(1.0, np.linalg.norm(x2))


def test_cod_of_huge_matrix_is_the_scaled_factorization():
    a = rng(9).uniform(-1, 1, (7, 3)) @ rng(10).uniform(-1, 1, (3, 5))
    f, g = linalg.cod_factor(a), linalg.cod_factor(np.ldexp(a, 1000))
    assert (g.rank, f.rank) == (3, 3)
    assert np.array_equal(g.q, f.q) and np.array_equal(g.z, f.z)
    assert np.array_equal(g.t, np.ldexp(f.t, 1000))


def test_cod_beyond_float_range_is_numerical_failure():
    with pytest.raises(NumericalFailureError, match="floating-point range"):
        linalg.cod_factor(np.full((3, 3), 1.7e308))


def test_rank_cut_is_the_module_constant(monkeypatch):
    a = np.diag([1.0, 1e-3])
    assert linalg.cod_factor(a).rank == 2
    monkeypatch.setattr(linalg, "RANK_RTOL", 1e-2)
    assert linalg.cod_factor(a).rank == 1


# -------------------------------------------------------- kron_vec_operator


def test_kron_scalar_and_identity_cases():
    assert np.array_equal(linalg.kron_vec_operator(np.array([[2.0]]),
                                                   np.array([[3.0]])),
                          [[5.0]])
    assert np.array_equal(linalg.kron_vec_operator(np.eye(2), np.zeros((2, 2))),
                          np.eye(4))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
def test_kron_action_equality(m, n, seed):
    g = rng(seed)
    a = g.uniform(-1, 1, (m, m))
    b = g.uniform(-1, 1, (n, n))
    x = g.uniform(-1, 1, (m, n))
    k = linalg.kron_vec_operator(a, b)
    lhs = k @ linalg.vec(x)
    rhs = linalg.vec(a @ x + x @ b)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(rhs))


def test_kron_size_guard():
    with pytest.raises(UsageError):
        linalg.kron_vec_operator(np.eye(200), np.eye(200))


def test_vec_unvec_roundtrip_column_stacking():
    x = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(linalg.vec(x), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(linalg.unvec(linalg.vec(x), 2, 2), x)


# ------------------------------------------------- smallest_singular_value


def test_smallest_singular_value_vs_numpy():
    a = rng(19).uniform(-1, 1, (9, 9))
    want = np.linalg.svd(a, compute_uv=False)[-1]
    assert abs(linalg.smallest_singular_value(a) - want) <= 1e-8 * max(1.0, want)


def test_smallest_singular_value_singular_matrix():
    a = np.ones((4, 4))
    assert linalg.smallest_singular_value(a) == 0.0
