"""Dense linear-algebra kernel tests against numpy and first-principles
oracles."""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advectbench import assembly, linalg, schemes
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


def test_hessenberg_of_power_of_two_multiple_is_the_exact_multiple():
    """The reduction runs on its input scaled to unit magnitude, so 2**k A
    gives the same Q and exactly 2**k H, also where A's squares underflow
    (k = -600) or overflow (k = 900, 1022)."""
    a = rng(8).uniform(-1, 1, (9, 9))
    q, h = linalg.hessenberg(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-600, 3, 900, 1022):
            qk, hk = linalg.hessenberg(np.ldexp(a, k))
            assert np.array_equal(qk, q), k
            assert np.array_equal(hk, np.ldexp(h, k)), k


def test_hessenberg_beyond_float_range_is_numerical_failure():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError,
                           match="^the Hessenberg form exceeds the floating-point range$"):
            linalg.hessenberg(np.full((3, 3), 1.7e308))


# the custom stencil of the command line's Hessenberg-Schur route: its M1
# and M2 are tridiagonal, M2 not normal
CUSTOM = (1.0, 0.5, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0)


def custom_disc(n):
    return schemes.Discretization.from_cfl(nx=n, nt=n, h=1.0, sigma=0.8, c=1.0)


def _assert_hessenberg_factors(a, q, h):
    n = a.shape[0]
    assert np.all(np.tril(h, -2) == 0.0)
    assert np.linalg.norm(q @ h @ q.T - a) <= 1e-12 * max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-12 * math.sqrt(n)


@pytest.mark.parametrize("n", [33, 34, 70, 100])
def test_hessenberg_forms_q_over_several_panels(n):
    """Q is formed from the stored reflectors in panels of _PANEL: one full
    panel and a short one (n = 33, 34), and several (70, 100)."""
    a = rng(n).uniform(-1, 1, (n, n))
    _assert_hessenberg_factors(a, *linalg.hessenberg(a))


def test_hessenberg_of_tridiagonal_input_is_the_identity_reduction():
    """Every column of a tridiagonal A already lies along the subdiagonal,
    so every reflector is H_k = I: Bartels-Stewart keeps M1 as it is."""
    m1 = assembly.build_m1(schemes.custom_scheme(CUSTOM), custom_disc(40))
    q, h = linalg.hessenberg(m1)
    assert np.array_equal(q, np.eye(39))
    assert np.array_equal(h, m1)


def test_hessenberg_of_block_diagonal_input_skips_the_reduced_column():
    """The last column of the leading block is reduced before its step
    (H_19 = I, a zero reflector between nonzero ones in Q's first panel),
    and the trailing block is reduced after it."""
    a = rng(3).uniform(-1, 1, (40, 40))
    a[20:, :20] = a[:20, 20:] = 0.0
    q, h = linalg.hessenberg(a)
    _assert_hessenberg_factors(a, q, h)
    assert h[20, 19] == 0.0


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


def test_schur_of_real_pair_keeps_one_2x2_block():
    """The form is not standardized: a 2x2 block with real eigenvalues is
    left as it deflated, and its spectrum read from the block."""
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = linalg.schur_decompose(a)
    assert linalg.schur_blocks(f.t) == [(0, 2)]
    got = sorted(z.real for z in f.eigenvalues)
    want = sorted(np.linalg.eigvals(a).real)
    assert all(z.imag == 0.0 for z in f.eigenvalues)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14


def test_schur_nonconvergence_reports_iterations(monkeypatch):
    monkeypatch.setattr(linalg, "SCHUR_SWEEPS_PER_ORDER", 1)
    with pytest.raises(NumericalFailureError, match="within 12 sweeps"):  # the cap, 1 * 12
        linalg.schur_decompose(rng(7).uniform(-1, 1, (12, 12)))


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


@pytest.mark.parametrize("a", [
    rng(40).uniform(-1, 1, (40, 40)), rng(70).uniform(-1, 1, (70, 70)),
    assembly.build_m2(schemes.custom_scheme(CUSTOM), custom_disc(60)),
], ids=["random 40x40", "random 70x70", "custom M2, nt = 60"])
def test_schur_reconstructs_beyond_one_panel(a):
    """The Hessenberg reduction's Q spans more than one _PANEL, and every
    Francis reflector is _reflection's: A = Q T Q^T with Q orthogonal, and
    the spectrum sums to the trace."""
    n = a.shape[0]
    f = linalg.schur_decompose(a)
    _assert_quasi_triangular(f.t)
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(f.q @ f.t @ f.q.T - a) <= 1e-12 * scale
    assert np.linalg.norm(f.q.T @ f.q - np.eye(n)) <= 1e-12 * math.sqrt(n)
    assert abs(sum(f.eigenvalues) - np.trace(a)) <= 1e-12 * scale


# ------------------------------------------------------------- eigenvalues


def test_empty_matrix_has_an_empty_spectrum_and_schur_form():
    a = np.zeros((0, 0))
    assert linalg.eigenvalues(a) == []
    f = linalg.schur_decompose(a)
    assert f.q.shape == f.t.shape == (0, 0) and f.eigenvalues == []


def test_eigenvalues_of_a_large_toeplitz_matrix_make_no_square_temporary():
    """The closed form is tried first and reads the bands, so a 1000 x 1000
    operator costs no n x n temporary (the triangular test made two)."""
    a = _toeplitz(1000, 0.3, 0.7, -0.7)
    tracemalloc.start()
    try:
        linalg.eigenvalues(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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


def _toeplitz(n, b, c, d):
    return b * np.eye(n) + c * np.eye(n, k=1) + d * np.eye(n, k=-1)


def test_eigenvalues_toeplitz_real_case_matches_symmetric_oracle():
    """c d > 0: the matrix is similar to the symmetric Toeplitz one with
    off-diagonal sqrt(c d), whose spectrum numpy computes stably."""
    g = rng(23)
    for n in (2, 3, 8, 29, 100):
        for scale in (1e-150, 1.0, 1e150):
            b, c = g.uniform(-1, 1, 2) * scale
            d = math.copysign(g.uniform(0.01, 1) * scale, c)
            got = linalg.eigenvalues(_toeplitz(n, b, c, d))
            assert all(z.imag == 0.0 for z in got)
            want = np.linalg.eigvalsh(_toeplitz(n, b, math.sqrt(c * d),
                                                math.sqrt(c * d)))
            err = np.max(np.abs(np.sort([z.real for z in got]) - want))
            assert err <= 1e-14 * (abs(b) + 2.0 * math.sqrt(c * d))


def test_eigenvalues_toeplitz_normal_case_matches_numpy():
    """d = -c: the matrix is normal, so numpy's eigenvalues are accurate."""
    g = rng(24)
    for n in (2, 5, 10, 31):
        b, c = g.uniform(-1, 1, 2)
        a = _toeplitz(n, b, c, -c)
        got = sorted(linalg.eigenvalues(a), key=lambda z: z.imag)
        want = sorted(np.linalg.eigvals(a), key=lambda z: z.imag)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-14 * (abs(b) + 2 * abs(c))
        # exact conjugate pairs on the line Re z = b, through b for odd n
        assert all(z.real == b for z in got)
        assert [z.conjugate() for z in reversed(got)] == got
        if n % 2:
            assert complex(b) in got


@pytest.mark.parametrize("c, d", [(0.7, 0.7), (-0.7, -0.7), (0.7, -0.7),
                                  (-0.7, 0.7), (0.0, 0.0)])
def test_normal_toeplitz_eigenvectors_pair_with_the_eigenvalues(c, d):
    """|c| = |d|: V = diag(phase) u is unitary, u the symmetric DST-I
    matrix and phase powers of i, and T V = V diag(values), column k paired
    with value k; the values are those eigenvalues returns, bit for bit."""
    for n in (1, 2, 7, 30):
        t = _toeplitz(n, 0.3, c, d)
        values, phase, u = linalg.tridiagonal_toeplitz_eig(t, vectors=True)
        v = phase[:, None] * u
        assert np.array_equal(u, u.T)
        assert set(phase.tolist()) <= {1, 1j, -1, -1j}
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-14 * n
        assert np.linalg.norm(t @ v - v * values) <= 1e-14 * n
        assert values.tolist() == linalg.eigenvalues(t)


def test_toeplitz_eigenvectors_only_of_normal_matrices():
    t = _toeplitz(5, 1.0, 0.5, 0.25)
    assert linalg.tridiagonal_toeplitz_eig(t, vectors=True) is None
    assert linalg.tridiagonal_toeplitz_eig(t).tolist() == linalg.eigenvalues(t)
    t[2, 2] = 2.0
    assert linalg.tridiagonal_toeplitz_eig(t) is None


@pytest.mark.parametrize("b, c, d", [(1.0, 0.5, 0.25), (0.0, 0.5, -0.5),
                                     (1.0, 0.0, 0.25), (2.0, 0.0, 0.0)])
def test_toeplitz_structure_test_rejects_any_changed_entry(b, c, d):
    """Constant bands pass, zero ones included; one changed entry, on a
    band or off them, fails."""
    n = 5
    t = _toeplitz(n, b, c, d)
    assert linalg.tridiagonal_toeplitz_eig(t) is not None
    for i in range(n):
        for j in range(n):
            u = t.copy()
            u[i, j] += 1.0
            assert linalg.tridiagonal_toeplitz_eig(u) is None, (i, j)


def test_eigenvalues_non_toeplitz_tridiagonal_goes_to_schur(monkeypatch):
    calls = []
    schur = linalg.schur_decompose

    def counted(a):
        calls.append(a.shape)
        return schur(a)

    monkeypatch.setattr(linalg, "schur_decompose", counted)
    a = _toeplitz(6, 1.0, 0.5, 0.25)
    a[3, 3] = 2.0
    key = lambda z: (z.real, z.imag)
    got = sorted(linalg.eigenvalues(a), key=key)
    want = sorted(np.linalg.eigvals(a), key=key)
    assert calls == [(6, 6)]
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12


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
        b = g.uniform(-1, 1, n)
        got = linalg.gauss_solve(a, b)
        assert got.shape == b.shape
        assert got.tobytes() == _dense_lu_solve(a, b).tobytes()


def test_gauss_solve_refuses_a_matrix_right_hand_side():
    with pytest.raises(UsageError, match="1-D"):
        linalg.gauss_solve(np.eye(3), np.ones((3, 2)))


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


@pytest.mark.parametrize("case", ["random band", "crank-nicolson paper"])
def test_band_lu_solves_k_columns_each_bit_identical_to_its_vector_solve(case):
    """_lu_solve on an n x k right-hand side steps the k columns together,
    as LAPACK's xGBTRS takes NRHS columns: every column equals the vector
    solve of that column bit for bit, on a random band matrix with row
    exchanges and on Crank-Nicolson's paper K at 20^2."""
    if case == "random band":
        n = 40
        offsets = np.subtract.outer(np.arange(n), np.arange(n))
        ab, kl = linalg.to_band(np.where((offsets <= 3) & (-offsets <= 2),
                                         rng(23).uniform(-1, 1, (n, n)), 0.0))
    else:
        d = schemes.Discretization.from_cfl(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0)
        ab, kl = linalg.band_from_entries(*assembly.operator_entries(
            schemes.builtin_scheme("crank-nicolson", d), d, "paper"))
    factors = linalg._lu_factor(ab, kl)
    assert (factors[2] != np.arange(ab.shape[0])).any()  # rows are exchanged
    b = rng(24).uniform(-1, 1, (ab.shape[0], 7))
    x = linalg._lu_solve(*factors, b)
    assert x.shape == b.shape
    for j in range(b.shape[1]):
        assert x[:, j].tobytes() == linalg._lu_solve(*factors, b[:, j].copy()).tobytes()


def test_band_lu_of_power_of_two_multiple_is_the_exact_multiple():
    """Band LU eliminates on its input scaled to unit magnitude, so 2**k A
    has the same pivots and multipliers and exactly 2**k U, also where
    |A|_F overflows (k = 1022); 2**k A x = 2**k b has the same solution."""
    g = rng(22)
    n, kl, ku = 12, 2, 3
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    a = np.where((offsets <= kl) & (-offsets <= ku), g.uniform(-1, 1, (n, n)), 0.0)
    ab, _ = linalg.to_band(a)
    b = g.uniform(-1, 1, n)
    lu, _, piv = linalg._lu_factor(ab, kl)
    x = linalg._lu_solve(lu, kl, piv, b)
    w = ab.shape[1] - kl  # U's columns in band storage
    for k in (-600, 3, 900, 1022):
        lu_k, kl_k, piv_k = linalg._lu_factor(np.ldexp(ab, k), kl)
        assert kl_k == kl and np.array_equal(piv_k, piv)
        assert np.array_equal(lu_k[:, w:], lu[:, w:])
        assert np.array_equal(lu_k[:, :w], np.ldexp(lu[:, :w], k))
        if k < 1000:  # 2**1022 b overflows in the forward substitution
            assert np.array_equal(
                linalg._lu_solve(lu_k, kl, piv_k, np.ldexp(b, k)), x)


def test_band_lu_beyond_float_range_is_numerical_failure():
    ab, kl = linalg.to_band(np.array([[1.5e308, 1.5e308], [-1.5e308, 1.5e308]]))
    with pytest.raises(NumericalFailureError, match="floating-point range"):
        linalg._lu_factor(ab, kl)


def test_band_lu_pivot_that_underflows_is_numerical_failure():
    """The tridiagonal case of band LU: the second pivot passes the threshold
    on the unit-scaled matrix but is 0 when U is scaled back, so the solve
    never divides by it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError,
                           match="^the LU factors exceed the floating-point range$"):
            linalg.gauss_solve([[1.5e-323, 5e-324], [5e-324, 0.0]], [1, 1])


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


def tridiag_lu(sub, diag, sup):
    """The solve of _tridiag_lu, the kernel of tridiag_solve and of
    assembly.March, on the bands sub, diag, sup (lengths n-1, n, n-1)."""
    bands = np.array([[0.0, *sub], diag, [*sup, 0.0]])
    return linalg._tridiag_lu(bands, *linalg._pivot_scale(bands), 0)


@pytest.mark.parametrize("sub, diag, sup", [
    (0.0, 2.5, 0.0),   # diagonal: a plain division
    (-1.0, 4.0, 1.5),  # no exchange
    (1.0, 0.0, 1.0),   # a zero diagonal: rows are exchanged
])
def test_tridiag_solve_of_columns_is_bit_identical_to_vector_solves(sub, diag, sup):
    n, k = 10, 7
    solve = tridiag_lu(np.full(n - 1, sub), np.full(n, diag), np.full(n - 1, sup))
    rhs = rng(31).uniform(-1, 1, (n, k))
    x = solve(rhs)
    assert x.shape == (n, k)
    for j in range(k):
        assert x[:, j].tobytes() == solve(rhs[:, j]).tobytes()


def test_tridiag_solve_of_columns_overflows_as_the_vector_solve_does():
    """Both eliminations overflow silently under the caller's errstate,
    and the finiteness check names the failure."""
    solve = tridiag_lu(np.zeros(3), np.full(4, 1e-300), np.full(3, 1e-300))
    rhs = np.full((4, 2), 1e10)
    with np.errstate(over="raise", invalid="raise"):
        for r in (rhs[:, 0], rhs):
            with pytest.raises(NumericalFailureError,
                               match="^the solution exceeds the floating-point range$"):
                solve(r)


def test_tridiag_solve_names_a_wrong_length_rhs_as_gauss_solve_does():
    """Bands that match and an rhs that does not: the message names the rhs.
    Validation runs rhs, then bands, then the rhs length."""
    with pytest.raises(UsageError, match=r"^rhs length 3 does not match \(2, 2\)$"):
        linalg.tridiag_solve([0.0], [1.0, 1.0], [0.0], [1.0, 2.0, 3.0])
    with pytest.raises(UsageError, match="^rhs contains non-finite entries$"):
        linalg.tridiag_solve([0.0, 0.0], [1.0, 1.0], [0.0], [np.inf])
    with pytest.raises(UsageError, match="^tridiagonal band lengths do not match$"):
        linalg.tridiag_solve([0.0, 0.0], [1.0, 1.0], [0.0], [1.0, 2.0, 3.0])


def test_tridiag_zero_pivot():
    with pytest.raises(SingularSystemError):
        linalg.tridiag_solve(np.array([0.0]), np.array([0.0, 1.0]),
                             np.array([0.0]), np.array([1.0, 1.0]))


def test_tridiag_exchanges_rows_for_a_zero_diagonal():
    """tridiag(1, 0, 1) is nonsingular for even order, but its first
    diagonal entry is a zero pivot without row exchanges."""
    n = 20
    b = rng(25).uniform(-1, 1, n)
    x = linalg.tridiag_solve(np.ones(n - 1), np.zeros(n), np.ones(n - 1), b)
    a = np.eye(n, k=1) + np.eye(n, k=-1)
    assert np.linalg.norm(a @ x - b) <= 1e-14 * np.linalg.norm(x)
    with pytest.raises(SingularSystemError,
                       match=r"^pivot 0\.000e\+00 below 2\.000e-13 at column 2$"):
        linalg.tridiag_solve(np.ones(2), np.zeros(3), np.ones(2), np.ones(3))


def _tridiag_case(name):
    """(sub, diag, sup) of the named tridiagonal matrix."""
    g = rng(28)
    if name.startswith("odd zero diagonal"):
        n = int(name.split()[-1])
        return np.ones(n - 1), np.zeros(n), np.ones(n - 1)
    if name == "even zero diagonal":
        return np.ones(19), np.zeros(20), np.ones(19)
    if name == "zero column":
        sub, dia, sup = g.uniform(-1, 1, 6), g.uniform(-1, 1, 7), g.uniform(-1, 1, 6)
        sub[2] = dia[2] = sup[1] = 0.0
        return sub, dia, sup
    if name.startswith("pivot"):
        # [[1, 1], [1, 1 + delta]]: the second pivot is delta, and the
        # threshold PIVOT_RTOL * |A|_F is about PIVOT_RTOL * 2
        delta = 2.0 * linalg.PIVOT_RTOL * (0.99 if name.endswith("below") else 1.01)
        return np.ones(1), np.array([1.0, 1.0 + delta]), np.ones(1)
    return g.uniform(-1, 1, 29), g.uniform(-1, 1, 30), g.uniform(-1, 1, 29)


@pytest.mark.parametrize("name, singular", [
    ("odd zero diagonal 3", True), ("odd zero diagonal 19", True),
    ("zero column", True), ("pivot below", True), ("pivot above", False),
    ("even zero diagonal", False), ("random", False)])
def test_tridiag_and_band_lu_give_one_verdict(name, singular):
    """A tridiagonal matrix is a band matrix with kl = ku = 1: the tridiagonal
    elimination and band LU reject the same pivot with the same message,
    and otherwise agree on the solution."""
    sub, dia, sup = _tridiag_case(name)
    a = np.diag(dia) + np.diag(sub, -1) + np.diag(sup, 1)
    b = rng(29).uniform(-1, 1, dia.size)
    if singular:
        with pytest.raises(SingularSystemError) as band:
            linalg.gauss_solve(a, b)
        with pytest.raises(SingularSystemError) as tri:
            linalg.tridiag_solve(sub, dia, sup, b)
        assert str(tri.value) == str(band.value)
    else:
        x, want = linalg.tridiag_solve(sub, dia, sup, b), linalg.gauss_solve(a, b)
        assert np.linalg.norm(x - want) <= (
            1e-12 * np.linalg.cond(a) * np.linalg.norm(want))


def test_tridiag_pivoting_matches_dense_solve():
    g = rng(26)
    for n in (2, 3, 7, 30):
        sub, dia, sup = g.uniform(-1, 1, n - 1), g.uniform(-1, 1, n), g.uniform(-1, 1, n - 1)
        a = np.diag(dia) + np.diag(sub, -1) + np.diag(sup, 1)
        b = g.uniform(-1, 1, n)
        x = linalg.tridiag_solve(sub, dia, sup, b)
        assert np.linalg.norm(x - np.linalg.solve(a, b)) <= (
            1e-12 * np.linalg.cond(a) * np.linalg.norm(x))


def test_tridiag_without_exchanges_is_the_thomas_algorithm():
    """A diagonally dominant system never exchanges rows, so every operation
    is the plain Thomas algorithm's."""
    g = rng(27)
    n = 25
    sub, sup, b = g.uniform(-1, 1, n - 1), g.uniform(-1, 1, n - 1), g.uniform(-1, 1, n)
    dia = g.uniform(-1, 1, n) + np.sign(g.uniform(-1, 1, n)) * 2.5
    d, x = dia.copy(), b.copy()
    for i in range(1, n):
        w = sub[i - 1] / d[i - 1]
        d[i] -= w * sup[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - sup[i] * x[i + 1]) / d[i]
    assert linalg.tridiag_solve(sub, dia, sup, b).tobytes() == x.tobytes()


def test_overflowing_solves_are_numerical_failures():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="floating-point range"):
            linalg.gauss_solve(1e-10 * np.eye(3), np.full(3, 1e300))
        with pytest.raises(NumericalFailureError, match="floating-point range"):
            linalg.tridiag_solve(np.zeros(2), np.full(3, 1e-10), np.zeros(2),
                                 np.full(3, 1e300))


def test_tridiag_pivot_that_underflows_is_numerical_failure():
    """In units of 5e-324 the matrix is [[3, 1], [1, 0]]: its second pivot,
    -1/3, passes the threshold on the unit-scaled matrix but is 0 when
    scaled back, so it is never divided by."""
    with pytest.raises(NumericalFailureError, match="LU factors exceed"):
        linalg.tridiag_solve([5e-324], [1.5e-323, 0.0], [5e-324], [1.0, 1.0])


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


def test_cod_of_huge_matrix_is_the_scaled_factorization(monkeypatch):
    a = rng(9).uniform(-1, 1, (7, 3)) @ rng(10).uniform(-1, 1, (3, 5))
    f, fq, ft, fz = cod_parts(monkeypatch, a)
    g, gq, gt, gz = cod_parts(monkeypatch, np.ldexp(a, 1000))
    assert (g.rank, f.rank) == (3, 3)
    assert np.array_equal(gq, fq) and np.array_equal(gz, fz)
    assert np.array_equal(gt, np.ldexp(ft, 1000))
    assert np.array_equal(g.pinv, f.pinv) and np.array_equal(g.null, f.null)
    assert g.e == f.e + 1000


def test_cod_beyond_float_range_is_numerical_failure():
    with pytest.raises(NumericalFailureError, match="floating-point range"):
        linalg.cod_factor(np.full((3, 3), 1.7e308))


def test_cod_pivot_that_underflows_is_numerical_failure():
    """A diagonal entry of T that underflows to 0 when scaled back would be
    divided by in solve_min_norm."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError,
                           match="^the COD exceeds the floating-point range$"):
            linalg.cod_factor(np.array([[1.5e-323, 5e-324], [5e-324, 0.0]]))


def test_rank_cut_is_the_module_constant(monkeypatch):
    a = np.diag([1.0, 1e-3])
    assert linalg.cod_factor(a).rank == 2
    monkeypatch.setattr(linalg, "RANK_RTOL", 1e-2)
    assert linalg.cod_factor(a).rank == 1


def form_z(panels, rank, n):
    """Z = H_1 ... H_k of the COD's panels (i0, i1, u, wt), H_p = I - U wt U^T
    on columns i0:i1 and rank:, accumulated one panel at a time."""
    z = np.eye(n)
    for i0, i1, u, wt in panels:
        b = i1 - i0
        zu = (z[:, i0:i1] @ u[:b] + z[:, rank:] @ u[b:]) @ wt
        z[:, i0:i1] -= zu @ u[:b].T
        z[:, rank:] -= zu @ u[b:].T
    return z


def cod_parts(monkeypatch, a):
    """(cod_factor(a), Q, T, Z): the factors it does not keep, Q and T as
    _min_norm_operator receives them (T, a view, is scaled back in place
    after the call) and Z formed from the panels it receives."""
    form, seen = linalg._min_norm_operator, {}

    def spy(q, t, panels, n):
        seen.update(q=q, t=t, panels=panels)
        return form(q, t, panels, n)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_min_norm_operator", spy)
        f = linalg.cod_factor(a)
    return f, seen["q"], seen["t"], form_z(seen["panels"], f.rank, f.shape[1])


def low_rank(seed, m, n, r):
    g = rng(seed)
    return g.uniform(-1, 1, (m, r)) @ g.uniform(-1, 1, (r, n))


def near_rank_one(seed, m, n, noise_rank=None):
    """u 1^T + 1e-9 N, N uniform or of rank noise_rank."""
    g = rng(seed)
    u = g.uniform(-1, 1, m)
    noise = (g.uniform(-1, 1, (m, n)) if noise_rank is None
             else low_rank(seed + 1, m, n, noise_rank))
    return np.outer(u, np.ones(n)) + 1e-9 * noise


COD_CASES = {
    "tall 7x5": (rng(21).uniform(-1, 1, (7, 5)), 5),
    "tall 40x30": (rng(22).uniform(-1, 1, (40, 30)), 30),
    "wide 5x7": (rng(23).uniform(-1, 1, (5, 7)), 5),
    "wide 30x40": (rng(24).uniform(-1, 1, (30, 40)), 30),
    "square 25x25": (rng(25).uniform(-1, 1, (25, 25)), 25),
    "rank 3 of 12x10": (low_rank(26, 12, 10, 3), 3),
    "rank 8 of 20x20": (low_rank(27, 20, 20, 8), 8),
    "rank 9 of 15x22": (low_rank(28, 15, 22, 9), 9),
    "1x1": (np.array([[-3.0]]), 1),
    "zero 4x3": (np.zeros((4, 3)), 0),
    # the trailing column block is exactly zero after the first step
    "rank 1 of 3x2, zero column": (np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]), 1),
    # several panels of the pivoted loop, ranks on and off a panel's edge
    "tall 100x80": (rng(29).uniform(-1, 1, (100, 80)), 80),
    "wide 70x100": (rng(30).uniform(-1, 1, (70, 100)), 70),
    "rank 37 of 90x70": (low_rank(31, 90, 70, 37), 37),
    f"rank {linalg._PANEL} of 64x64": (low_rank(32, 64, 64, linalg._PANEL), linalg._PANEL),
    # u 1^T plus 1e-9 times a rank-3 matrix: after the first step every
    # downdated norm cancels and is recomputed
    "near rank 1, rank 4 of 60x40": (near_rank_one(33, 60, 40, noise_rank=3), 4),
}


@pytest.mark.parametrize("name", COD_CASES)
def test_cod_factors_reconstruct_a_with_orthogonal_q_and_z(name, monkeypatch):
    """A P = Q [T 0; 0 0] Z^T with Q, Z orthogonal and T upper triangular,
    Q's trailing columns (never multiplied by T) included."""
    a, rank = COD_CASES[name]
    f, q, t, z = cod_parts(monkeypatch, a)
    m, n = a.shape
    assert f.rank == rank and t.shape == (rank, rank)
    assert np.array_equal(t, np.triu(t))
    assert np.array_equal(np.sort(f.perm), np.arange(n))
    back = q[:, :rank] @ t @ z[:, :rank].T
    assert np.linalg.norm(a[:, f.perm] - back) <= 1e-13 * np.linalg.norm(a)
    assert np.max(np.abs(q.T @ q - np.eye(m))) <= 1e-13
    assert np.max(np.abs(z.T @ z - np.eye(n))) <= 1e-13


@pytest.mark.parametrize("name", [name for name, (a, rank) in COD_CASES.items()
                                  if rank in (0, min(a.shape))])
def test_cod_q_is_the_product_of_the_pivoted_reflectors(name, monkeypatch):
    """On full rank (or none), Q is H_0 ... H_{k-1} of the Householder QR of
    A P; LAPACK's complete QR of A P (numpy's, the same sign convention)
    forms that product, trailing columns included."""
    a, _ = COD_CASES[name]
    f, q, _, _ = cod_parts(monkeypatch, a)
    want = np.linalg.qr(a[:, f.perm], mode="complete")[0]
    assert np.max(np.abs(q - want)) <= 1e-13


def test_cod_recomputes_the_norms_that_downdating_cancels(monkeypatch):
    """After the first step of u 1^T + 1e-9 N every column's partial norm is
    about 1e-9 of its full norm, so downdating the squares cancels all their
    digits, and pivots chosen from what is left break the order of R's
    diagonal.  Recomputed, the norms keep |R[k, k]| non-increasing (T = R at
    full rank)."""
    a = near_rank_one(34, 60, 40)
    f, q, t, z = cod_parts(monkeypatch, a)
    assert f.rank == 40
    d = np.abs(np.diag(t))
    assert np.all(d[1:] <= d[:-1] * (1.0 + 1e-6))
    back = q[:, :40] @ t @ z.T
    assert np.linalg.norm(a[:, f.perm] - back) <= 1e-13 * np.linalg.norm(a)


def test_min_norm_matches_numpy_lstsq_over_several_panels():
    g = rng(35)
    a = low_rank(36, 100, 90, 45)
    b = g.uniform(-1, 1, 100)
    f = linalg.cod_factor(a)
    assert f.rank == 45
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(f.solve_min_norm(b), want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("shape, rank", [((0, 3), 0), ((3, 0), 0), ((0, 0), 0),
                                         ((1, 5), 1), ((5, 1), 1)])
def test_cod_of_an_empty_or_single_line_matrix(shape, rank):
    a = rng(37).uniform(-1, 1, shape)
    f = linalg.cod_factor(a)
    assert f.rank == rank
    b = rng(38).uniform(-1, 1, shape[0])
    x = f.solve_min_norm(b)
    assert x.shape == (shape[1],)
    want = np.linalg.lstsq(a, b, rcond=None)[0] if a.size else np.zeros(shape[1])
    assert np.allclose(x, want, rtol=1e-13, atol=1e-15)
    # rank 0 applies no panel to the null basis, 1 x 5 one panel
    ns = f.null_space()
    assert ns.shape == (shape[1], shape[1] - rank)
    assert np.max(np.abs(ns.T @ ns - np.eye(ns.shape[1])), initial=0.0) <= 1e-13
    assert np.linalg.norm(a @ ns) <= 1e-13 * max(1.0, np.linalg.norm(a))


def plain_min_norm(f, q, t, z, b):
    """Reference: T w = (Q^T b)[:rank] back-substituted one row at a time."""
    r = f.rank
    c = (q.T @ b)[:r]
    w = np.zeros(r)
    for i in range(r - 1, -1, -1):
        w[i] = (c[i] - t[i, i + 1:] @ w[i + 1:]) / t[i, i]
    x = np.zeros(f.shape[1])
    x[f.perm] = z[:, :r] @ w
    return x


P = linalg._PANEL


@pytest.mark.parametrize("m, n, rank", [(7, 7, 7), (8, 8, 8), (9, 9, 9), (16, 16, 16),
                                        (17, 17, 17), (24, 24, 24), (30, 30, 16),
                                        (30, 30, 17), (40, 35, 23), (35, 40, 24),
                                        (P - 1, P - 1, P - 1), (P, P, P),
                                        (P + 8, P + 4, P + 1), (2 * P, 2 * P, 2 * P),
                                        (2 * P + 3, 2 * P + 5, 2 * P + 1)])
def test_blocked_substitution_matches_plain_substitution(m, n, rank, monkeypatch):
    """Ranks on and off the edges of the blocks of back-substitution."""
    f, q, t, z = cod_parts(monkeypatch, low_rank(40 + rank, m, n, rank))
    assert f.rank == rank
    b = rng(rank).uniform(-1, 1, m)
    want = plain_min_norm(f, q, t, z, b)
    assert np.linalg.norm(f.solve_min_norm(b) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("name, rank", [("leapfrog", 380), ("lax", 373),
                                        ("lax-wendroff", 375), ("crank-nicolson", 380)])
def test_blocked_substitution_on_the_paper_operators(name, rank, monkeypatch):
    """The 20^2 catalogue paper operators, 380 x 380: twelve blocks, the
    last one short, over the spread of T's diagonal.  Leapfrog and
    Crank-Nicolson are full rank, so the operator skips Z = I; Lax and
    Lax-Wendroff are singular, so Z is applied."""
    disc = schemes.Discretization.from_cfl(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0)
    k = assembly.global_operator(schemes.builtin_scheme(name, disc), disc, "paper")
    f, q, t, z = cod_parts(monkeypatch, k)
    assert f.rank == rank
    b = rng(43).uniform(-1, 1, k.shape[0])
    want = plain_min_norm(f, q, t, z, b)
    assert np.linalg.norm(f.solve_min_norm(b) - want) <= 1e-13 * np.linalg.norm(want)


def test_cod_keeps_only_its_operator_and_null_basis():
    """One factorization of the 20^2 Lax paper operator (380 x 380, rank
    373) retains its solution operator and null basis, not Q, Z or the
    factored copy of A that T was a view of, each another 1.16 MB."""
    disc = schemes.Discretization.from_cfl(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0)
    k = assembly.global_operator(schemes.builtin_scheme("lax", disc), disc, "paper")
    gc.collect()
    tracemalloc.start()
    try:
        f = linalg.cod_factor(k)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert f.rank == 373
    assert kept <= f.pinv.nbytes + f.null.nbytes + 64 * 2**10


@pytest.mark.parametrize("p", [-1000, 1000])
def test_min_norm_of_power_of_two_multiple_is_exact(p):
    """cod_factor works on A scaled to unit magnitude and each diagonal
    block of T is inverted scaled to unit magnitude, so 2**p A x ~ 2**p b
    gives the same x bit for bit."""
    a = low_rank(44, 2 * P + 6, 2 * P, 2 * P - 10)
    b = rng(45).uniform(-1, 1, a.shape[0])
    want = linalg.cod_factor(a).solve_min_norm(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.cod_factor(np.ldexp(a, p)).solve_min_norm(np.ldexp(b, p))
    assert np.array_equal(got, want)


def test_min_norm_solution_beyond_float_range_is_numerical_failure():
    """T is finite but w = 1e300 / 1e-10 is not: the solve raises the named
    error, as gauss_solve does, and warns nothing."""
    f = linalg.cod_factor(np.array([[1.0, 0.0], [0.0, 1e-10]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError,
                           match="^the solution exceeds the floating-point range$"):
            f.solve_min_norm(np.array([0.0, 1e300]))


def test_min_norm_operator_beyond_float_range_fails_every_solve():
    """The known limit: T = I - 4 N, N the strictly upper ones, of order 460
    has inverse entries up to 5**458, beyond the float range.  The operator
    overflows without a warning, and every solve on it, b = 0 included,
    raises the named error."""
    n = 460
    t = np.eye(n) - 4.0 * np.triu(np.ones((n, n)), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pinv, null = linalg._min_norm_operator(np.eye(n), t, [], n)
        f = linalg.CODFactorization(perm=np.arange(n), rank=n, shape=(n, n), pinv=pinv,
                                    null=null, e=0)
        for b in (np.zeros(n), np.ones(n)):
            with pytest.raises(NumericalFailureError,
                               match="^the solution exceeds the floating-point range$"):
                f.solve_min_norm(b)


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


# ------------------------------------- smallest_singular_value_from_entries


def sigma_min(a):
    """smallest_singular_value_from_entries over the nonzeros of a."""
    nz = np.nonzero(a)
    return linalg.smallest_singular_value_from_entries(a.shape[0], *nz, a[nz])


def test_smallest_singular_value_vs_numpy():
    a = rng(19).uniform(-1, 1, (9, 9))
    want = np.linalg.svd(a, compute_uv=False)[-1]
    assert abs(sigma_min(a) - want) <= 1e-8 * max(1.0, want)


def test_smallest_singular_value_singular_matrix():
    """A matrix singular for the LU raises its SingularSystemError rather
    than report sigma_min = 0."""
    with pytest.raises(SingularSystemError, match="at column 1"):
        sigma_min(np.ones((4, 4)))


def test_smallest_singular_value_of_power_of_two_multiple():
    """The iteration runs on A scaled to unit magnitude, so 2**k A gives
    exactly 2**k sigma, also where the unscaled iterates would overflow."""
    a = rng(28).uniform(-1, 1, (9, 9))
    sigma = sigma_min(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-500, 500):
            assert sigma_min(np.ldexp(a, k)) == math.ldexp(sigma, k)
