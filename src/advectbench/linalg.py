"""Real linear-algebra kernel.

Self-contained routines on numpy arrays: norms, Householder Hessenberg
reduction, real Schur decomposition (Francis double-shift QR),
eigenvalues, Gaussian elimination with partial pivoting on band storage
(dense input is stored with the bandwidth of its nonzeros), Thomas solves,
minimum-norm least squares through a complete orthogonal decomposition, and
the Kronecker-vectorization operator used as an oracle for matrix equations.

All functions are pure; matrices passed in are never modified.  The
numerical thresholds are module constants, not arguments: DEFLATION_RTOL
(Schur deflation), PIVOT_RTOL (band LU pivots), THOMAS_PIVOT_RTOL (Thomas
pivots), RANK_RTOL (COD numerical rank) and SIGMA_MIN_ITERATIONS (inverse
power iteration).  Schur and COD iterate on their input scaled by a power of
two to unit magnitude, which is exact, so finite entries whose squares or
products overflow still factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError, SingularSystemError, UsageError

_TINY = float(np.finfo(float).tiny)  # smallest normal float

# Desk-scale guard for vectorized operators.
MAX_VEC_SIZE = 20000
# Numerical thresholds, each read by the one kernel named beside it.
DEFLATION_RTOL = 1e-14     # schur_decompose: negligible subdiagonal entry
PIVOT_RTOL = 1e-13         # _lu_factor: singular pivot, relative to |A|_F
THOMAS_PIVOT_RTOL = 1e-14  # tridiag_solve: zero pivot, relative to max |band|
RANK_RTOL = 1e-11          # cod_factor: numerical rank cut, relative
SIGMA_MIN_ITERATIONS = 80  # smallest_singular_value: inverse power steps


def _as_float_array(a, name):
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:  # non-numeric or ragged input
        raise UsageError(f"{name} must be a numeric array: {exc}") from exc


def as_matrix(a, name="matrix", square=False):
    """Validate and return a 2-D float64 array with finite entries."""
    m = _as_float_array(a, name)
    if m.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise UsageError(f"{name} contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise UsageError(f"{name} must be square, got shape {m.shape}")
    return m


def as_vector(v, name="vector"):
    w = _as_float_array(v, name)
    if w.ndim != 1:
        raise UsageError(f"{name} must be 1-D, got ndim={w.ndim}")
    if not np.all(np.isfinite(w)):
        raise UsageError(f"{name} contains non-finite entries")
    return w


def frobenius_norm(a):
    a = as_matrix(a)
    with np.errstate(over="ignore"):
        total = float(np.sum(a * a))
    # squares that overflow, or underflow to a subnormal or zero sum: rescale
    if math.isinf(total) or total < _TINY:
        scale = float(np.max(np.abs(a), initial=0.0))
        if scale > 0.0:
            return scale * math.sqrt(float(np.sum((a / scale) ** 2)))
    return math.sqrt(total)


def _unit_scaled(a):
    """(a * 2**-e, e) with the largest magnitude of the scaled copy in
    [0.5, 1); scaling by a power of two is exact."""
    e = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    return np.ldexp(a, -e), e


def vec(x):
    """Column-stacking vectorization."""
    return as_matrix(x).reshape(-1, order="F")


def unvec(v, rows, cols):
    v = as_vector(v)
    if v.size != rows * cols:
        raise UsageError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def _householder_unit(x):
    """Unit Householder vector v with (I - 2 v v^T) x = +-|x| e1, or None if
    x already lies along e1."""
    nrm = np.linalg.norm(x)
    if nrm == 0.0 or np.linalg.norm(x[1:]) == 0.0:
        return None
    v = np.array(x, dtype=float)
    v[0] += math.copysign(nrm, v[0])
    return v / np.linalg.norm(v)


def hessenberg(a):
    """Householder reduction A = Q H Q^T with H upper Hessenberg.

    Returns (q, h); entries of h below the first subdiagonal are exactly zero.
    """
    a = as_matrix(a, "a", square=True)
    n = a.shape[0]
    h = a.copy()
    q = np.eye(n)
    for k in range(n - 2):
        v = _householder_unit(h[k + 1:, k])
        if v is None:
            continue
        h[k + 1:, k:] -= 2.0 * np.outer(v, v @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v)
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v)
        h[k + 2:, k] = 0.0
    return q, h


@dataclass(frozen=True)
class SchurForm:
    """Real Schur decomposition A = Q T Q^T.

    q is orthogonal, t upper quasi-triangular (1x1 and 2x2 diagonal blocks);
    eigenvalues lists the block spectrum with multiplicity.
    """

    q: np.ndarray
    t: np.ndarray
    eigenvalues: list = field(default_factory=list)


def _rotate_rows_cols(h, q, i, cs, sn):
    """Apply the Givens similarity G^T H G (and Q <- Q G) on indices i, i+1."""
    ri, rj = h[i, :].copy(), h[i + 1, :].copy()
    h[i, :] = cs * ri + sn * rj
    h[i + 1, :] = -sn * ri + cs * rj
    ci, cj = h[:, i].copy(), h[:, i + 1].copy()
    h[:, i] = cs * ci + sn * cj
    h[:, i + 1] = -sn * ci + cs * cj
    ci, cj = q[:, i].copy(), q[:, i + 1].copy()
    q[:, i] = cs * ci + sn * cj
    q[:, i + 1] = -sn * ci + cs * cj


def _settle_2x2(h, q, i):
    """Deflate the 2x2 block at (i, i): split it into two 1x1 blocks when its
    eigenvalues are real, otherwise leave the complex-pair block in place."""
    a, b = h[i, i], h[i, i + 1]
    c, d = h[i + 1, i], h[i + 1, i + 1]
    if c == 0.0:
        return
    p = 0.5 * (a - d)
    disc = p * p + b * c
    if disc < 0.0:
        return
    # real pair: rotate so that the eigenvector of the dominant eigenvalue
    # spans the first coordinate
    sq = math.sqrt(disc)
    z = p + math.copysign(sq, p) if p != 0.0 else sq
    # eigenvalue mu = d + z; eigenvector (z, c)
    r = math.hypot(z, c)
    if r == 0.0:
        return
    _rotate_rows_cols(h, q, i, z / r, c / r)
    h[i + 1, i] = 0.0


def _francis_step(h, q, lo, hi, s, t):
    """One implicit double-shift bulge chase on the active block lo..hi."""
    x = h[lo, lo] * h[lo, lo] + h[lo, lo + 1] * h[lo + 1, lo] - s * h[lo, lo] + t
    y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - s)
    z = h[lo + 1, lo] * h[lo + 2, lo + 1] if lo + 2 <= hi else 0.0
    for k in range(lo, hi):
        size = 3 if k + 2 <= hi else 2
        v = _householder_unit(np.array([x, y, z][:size]))
        if v is not None:
            c0 = max(lo, k - 1)
            block = h[k:k + size, c0:]
            block -= 2.0 * np.outer(v, v @ block)
            r1 = min(hi, k + size) + 1
            block = h[:r1, k:k + size]
            block -= 2.0 * np.outer(block @ v, v)
            block = q[:, k:k + size]
            block -= 2.0 * np.outer(block @ v, v)
        if k > lo:
            h[k + 1:k + size, k - 1] = 0.0
        if k < hi - 1:
            x = h[k + 1, k]
            y = h[k + 2, k]
            z = h[k + 3, k] if k + 3 <= hi else 0.0


def schur_blocks(t):
    """(start, size) of each 1x1/2x2 diagonal block of a real Schur form T,
    top to bottom; a nonzero subdiagonal entry opens a 2x2 block."""
    n = t.shape[0]
    blocks = []
    i = 0
    while i < n:
        size = 2 if i + 1 < n and t[i + 1, i] != 0.0 else 1
        blocks.append((i, size))
        i += size
    return blocks


def _block_eigenvalues(t):
    out = []
    for i, size in schur_blocks(t):
        if size == 2:
            a, b = t[i, i], t[i, i + 1]
            c, d = t[i + 1, i], t[i + 1, i + 1]
            re = 0.5 * (a + d)
            disc = 0.25 * (a - d) ** 2 + b * c
            if disc < 0.0:
                im = math.sqrt(-disc)
                out.extend([complex(re, im), complex(re, -im)])
            else:
                sq = math.sqrt(disc)
                out.extend([complex(re + sq), complex(re - sq)])
        else:
            out.append(complex(t[i, i]))
    return out


def schur_decompose(a, max_sweeps=None):
    """Real Schur decomposition by Hessenberg reduction followed by implicit
    Francis double-shift QR with deflation.

    A subdiagonal entry deflates when
    |h(i+1,i)| <= DEFLATION_RTOL*(|h(i,i)|+|h(i+1,i+1)|) (the neighbour sum
    falls back to |A|_F when it vanishes).  Raises NumericalFailureError
    carrying the step count after max_sweeps bulge chases (default 40*n).
    """
    a = as_matrix(a, "a", square=True)
    n = a.shape[0]
    if max_sweeps is None:
        max_sweeps = 40 * max(n, 1)
    if n == 0:
        return SchurForm(q=np.eye(0), t=a.copy(), eigenvalues=[])
    a, e = _unit_scaled(a)
    q, h = hessenberg(a)
    hnorm = frobenius_norm(a)
    hi = n - 1
    steps = 0
    stagnation = 0
    while hi > 0:
        lo = hi
        while lo > 0:
            s = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if s == 0.0:
                s = hnorm
            if abs(h[lo, lo - 1]) <= DEFLATION_RTOL * s:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            hi -= 1
            stagnation = 0
            continue
        if lo == hi - 1:
            _settle_2x2(h, q, lo)
            hi = lo - 1
            stagnation = 0
            continue
        steps += 1
        stagnation += 1
        if steps > max_sweeps:
            raise NumericalFailureError(
                f"Schur iteration did not converge within {max_sweeps} sweeps",
                iterations=max_sweeps,
            )
        if stagnation % 11 == 0:
            # ad hoc exceptional shifts to break convergence stalls
            s1 = abs(h[hi, hi - 1]) + abs(h[hi - 1, hi - 2])
            mu1 = h[hi, hi] + 0.75 * s1
            mu2 = h[hi, hi] - 0.4375 * s1
            s_sum, s_prod = mu1 + mu2, mu1 * mu2
        else:
            s_sum = h[hi - 1, hi - 1] + h[hi, hi]
            s_prod = (h[hi - 1, hi - 1] * h[hi, hi]
                      - h[hi - 1, hi] * h[hi, hi - 1])
        _francis_step(h, q, lo, hi, s_sum, s_prod)
    try:
        with np.errstate(over="raise"):
            t = np.ldexp(h, e)
        eigs = [complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
                for z in _block_eigenvalues(h)]
    except (FloatingPointError, OverflowError) as exc:
        raise NumericalFailureError(
            "the Schur form exceeds the floating-point range") from exc
    return SchurForm(q=q, t=t, eigenvalues=eigs)


def _symmetrized_tridiagonal(a):
    """Symmetric tridiagonal matrix similar to a, or None.

    A tridiagonal matrix with elementwise positive sub*super products is
    diagonally similar to the symmetric one with off-diagonals
    sqrt(sub*super); the similarity can be arbitrarily ill-conditioned, so
    computing the spectrum on the symmetric form is far more accurate.
    """
    n = a.shape[0]
    if n < 3:
        return None
    band = np.diag(np.diag(a)) + np.diag(np.diag(a, 1), 1) + np.diag(np.diag(a, -1), -1)
    if not np.array_equal(a, band):
        return None
    sub, sup = np.diag(a, -1), np.diag(a, 1)
    with np.errstate(over="ignore"):
        prod = sup * sub
    if not np.all(prod > 0.0):
        return None
    off = np.where(np.isinf(prod), np.sqrt(np.abs(sub)) * np.sqrt(np.abs(sup)),
                   np.sqrt(prod))
    return np.diag(np.diag(a)) + np.diag(off, 1) + np.diag(off, -1)


def eigenvalues(a):
    """Eigenvalues (with multiplicity) from the real Schur form.

    Exactly triangular input short-circuits to its diagonal; a tridiagonal
    matrix similar to a symmetric one is symmetrized first (same spectrum,
    much better conditioning).
    """
    a = as_matrix(a, "a", square=True)
    if np.all(np.tril(a, -1) == 0.0) or np.all(np.triu(a, 1) == 0.0):
        return [complex(x) for x in np.diag(a)]
    sym = _symmetrized_tridiagonal(a)
    if sym is not None:
        a = sym
    return schur_decompose(a).eigenvalues


def band_from_entries(n, row, col, val):
    """Band storage of the n x n matrix with entries A[row, col] = val.

    The lower and upper bandwidths kl and ku are measured from the entries.
    The n x (2kl+ku+1) array ab is LAPACK's gbtrf layout, stored so that
    column j of A is the contiguous row ab[j]: ab[j, kl+ku+i-j] = A[i, j].
    Its first kl entries per row are spare superdiagonals for the fill-in
    of the LU.  Returns (ab, kl).
    """
    offset = np.asarray(row) - np.asarray(col)
    kl, ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
    ab = np.zeros((n, 2 * kl + ku + 1))
    ab[col, kl + ku + offset] = val
    return ab, kl


def to_band(a):
    """Band storage (ab, kl) of a square matrix, bandwidths measured from its
    nonzeros; a general dense matrix simply has full bandwidth."""
    row, col = np.nonzero(a)
    return band_from_entries(a.shape[0], row, col, a[row, col])


def _dense_view(ab, kl):
    """n x n view of band storage indexed like the matrix: entry (i, j) of
    the view is ab[j, kl+ku+i-j].  Only in-band entries, -kl <= j-i <= kl+ku
    with the fill-in, are the matrix's; the others alias neighbouring
    columns and are never touched."""
    n, width = ab.shape
    step = ab.itemsize
    return np.ndarray((n, n), dtype=ab.dtype, buffer=ab,
                      offset=(width - 1 - kl) * step,
                      strides=(step, (width - 1) * step))


def _lu_factor(ab, kl):
    """Band LU with partial pivoting of the matrix stored in (ab, kl).

    Step k exchanges rows k and piv[k] over the active columns only, so L
    keeps its kl multipliers per column where they were computed and U
    widens to kl+ku superdiagonals; _lu_solve replays the exchanges in
    order.  Every floating-point operation on a band entry is the one dense
    elimination with partial pivoting performs.  Raises SingularSystemError
    when a pivot is at most PIVOT_RTOL * |A|_F.  Returns (lu, kl, piv).
    """
    lu = ab.copy()
    n, width = lu.shape
    d = _dense_view(lu, kl)
    piv = np.arange(n)
    thresh = PIVOT_RTOL * max(frobenius_norm(ab), 1e-300)
    for k in range(n):
        r1, c1 = min(n, k + kl + 1), min(n, k + width - kl)
        p = k + int(np.argmax(np.abs(d[k:r1, k])))
        if abs(d[p, k]) <= thresh:
            raise SingularSystemError(
                f"pivot {abs(d[p, k]):.3e} below {thresh:.3e} at column {k}")
        if p != k:
            row = d[k, k:c1].copy()
            d[k, k:c1] = d[p, k:c1]
            d[p, k:c1] = row
            piv[k] = p
        d[k + 1:r1, k] /= d[k, k]
        # the trailing block, transposed to match the layout's memory order
        trailing = d[k + 1:r1, k + 1:c1].T
        trailing -= np.outer(d[k, k + 1:c1], d[k + 1:r1, k])
    return lu, kl, piv


def _lu_solve(lu, kl, piv, b):
    """Solve A X = B from the band factors of _lu_factor; b is a vector or
    an n-by-k matrix and the result matches its shape."""
    if b.ndim == 2:
        x = np.empty(b.shape)
        for j in range(b.shape[1]):
            x[:, j] = _lu_solve(lu, kl, piv, b[:, j])
        return x
    n, width = lu.shape
    w = width - 1 - kl  # superdiagonals of U; lu[k, w] is U's diagonal
    # x sits between w leading and kl trailing scratch entries, so every
    # step updates a full column of L or U
    xp = np.zeros(w + n + kl)
    x = xp[w:w + n]
    x[:] = b
    lower, upper = lu[:, w + 1:], lu[:, :w]
    for k, p in enumerate(piv.tolist()):
        if p != k:
            x[k], x[p] = x[p], x[k]
        xp[w + k + 1:w + k + kl + 1] -= lower[k] * x[k]
    for k, u_kk in reversed(list(enumerate(lu[:, w].tolist()))):
        x[k] /= u_kk
        xp[k:k + w] -= upper[k] * x[k]
    return x


def gauss_solve(a, b):
    """Solve A X = B by Gaussian elimination with partial pivoting.

    b may be a vector or an n-by-k matrix; the result matches its shape.
    """
    a = as_matrix(a, "a", square=True)
    barr = np.asarray(b, dtype=float)
    if barr.ndim not in (1, 2) or barr.shape[0] != a.shape[0]:
        raise UsageError(f"rhs shape {barr.shape} does not match {a.shape}")
    if not np.all(np.isfinite(barr)):
        raise UsageError("rhs contains non-finite entries")
    return _lu_solve(*_lu_factor(*to_band(a)), barr)


def tridiag_solve(sub, diag, sup, rhs):
    """Thomas algorithm for a tridiagonal system.

    sub and sup have length n-1 (below / above the main diagonal).
    """
    sub = as_vector(sub, "sub")
    diag = as_vector(diag, "diag")
    sup = as_vector(sup, "super")
    rhs = as_vector(rhs, "rhs")
    n = diag.size
    if n == 0:
        raise UsageError("empty system")
    if sub.size != n - 1 or sup.size != n - 1 or rhs.size != n:
        raise UsageError("tridiagonal band lengths do not match")
    scale = max(np.max(np.abs(diag)), np.max(np.abs(sub), initial=0.0),
                np.max(np.abs(sup), initial=0.0))
    thresh = THOMAS_PIVOT_RTOL * max(scale, 1e-300)
    d = diag.copy()
    x = rhs.copy()
    for i in range(1, n):
        if abs(d[i - 1]) <= thresh:
            raise SingularSystemError(f"zero pivot at row {i - 1}")
        w = sub[i - 1] / d[i - 1]
        d[i] -= w * sup[i - 1]
        x[i] -= w * x[i - 1]
    if abs(d[n - 1]) <= thresh:
        raise SingularSystemError(f"zero pivot at row {n - 1}")
    x[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - sup[i] * x[i + 1]) / d[i]
    return x


@dataclass(frozen=True)
class CODFactorization:
    """Complete orthogonal decomposition A P = Q [T 0; 0 0] Z^T.

    q (m x m) and z (n x n) are orthogonal, perm the column permutation,
    t the rank x rank upper-triangular core.
    """

    q: np.ndarray
    z: np.ndarray
    perm: np.ndarray
    t: np.ndarray
    rank: int
    shape: tuple

    def solve_min_norm(self, b):
        """Minimum-norm least-squares solution of A x ~ b."""
        b = as_vector(b, "b")
        m, n = self.shape
        if b.size != m:
            raise UsageError(f"rhs length {b.size} does not match {self.shape}")
        r = self.rank
        x = np.zeros(n)
        if r == 0:
            return x
        c = (self.q.T @ b)[:r]
        w = np.zeros(r)
        for i in range(r - 1, -1, -1):
            w[i] = (c[i] - self.t[i, i + 1:] @ w[i + 1:]) / self.t[i, i]
        y = self.z[:, :r] @ w
        x[self.perm] = y
        return x

    def null_space(self):
        """Orthonormal basis of the numerical null space of A (n x (n-rank))."""
        n = self.shape[1]
        ns = np.zeros((n, n - self.rank))
        ns[self.perm, :] = self.z[:, self.rank:]
        return ns


def cod_factor(a):
    """Rank-revealing complete orthogonal decomposition.

    Column-pivoted Householder QR followed by right Householder reflections
    that compress the leading rank rows into an upper-triangular core.  The
    numerical rank counts leading diagonal entries above RANK_RTOL times the
    largest revealed diagonal.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    r, e = _unit_scaled(a)
    q = np.eye(m)
    perm = np.arange(n)
    kmax = min(m, n)
    for k in range(kmax):
        norms = np.sqrt(np.sum(r[k:, k:] * r[k:, k:], axis=0))
        j = k + int(np.argmax(norms))
        if norms[j - k] == 0.0:
            break
        if j != k:
            r[:, [k, j]] = r[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        v = _householder_unit(r[k:, k])
        if v is not None:
            r[k:, k:] -= 2.0 * np.outer(v, v @ r[k:, k:])
            q[:, k:] -= 2.0 * np.outer(q[:, k:] @ v, v)
        r[k + 1:, k] = 0.0
    diag = np.abs(np.diag(r[:kmax, :kmax])) if kmax else np.zeros(0)
    rank = 0
    if kmax and diag[0] > 0.0:
        thresh = RANK_RTOL * diag[0]
        while rank < kmax and diag[rank] > thresh:
            rank += 1
    r[rank:, :] = 0.0
    z = np.eye(n)
    for i in range(rank - 1, -1, -1):
        if not np.any(r[i, rank:]):
            continue
        w = np.concatenate(([r[i, i]], r[i, rank:]))
        v = _householder_unit(w)
        if v is None:
            continue
        cols = np.concatenate(([i], np.arange(rank, n)))
        block = r[:i + 1][:, cols]
        block = block - 2.0 * np.outer(block @ v, v)
        r[:i + 1, i] = block[:, 0]
        r[:i + 1, rank:] = block[:, 1:]
        zb = z[:, cols]
        zb = zb - 2.0 * np.outer(zb @ v, v)
        z[:, i] = zb[:, 0]
        z[:, rank:] = zb[:, 1:]
        r[i, rank:] = 0.0
    try:
        with np.errstate(over="raise"):
            t = np.ldexp(r[:rank, :rank], e)
    except FloatingPointError as exc:
        raise NumericalFailureError(
            "the COD exceeds the floating-point range") from exc
    return CODFactorization(q=q, z=z, perm=perm, t=t, rank=rank, shape=(m, n))


def kron_vec_operator(a, b):
    """Matrix K with K vec(X) = vec(A X + X B) for all conforming X.

    vec stacks columns, so K = I_n (x) A + B^T (x) I_m.
    """
    a = as_matrix(a, "a", square=True)
    b = as_matrix(b, "b", square=True)
    m, n = a.shape[0], b.shape[0]
    if m * n > MAX_VEC_SIZE:
        raise UsageError(
            f"vectorized operator of size {m * n} exceeds limit {MAX_VEC_SIZE}")
    return np.kron(np.eye(n), a) + np.kron(b.T, np.eye(m))


def smallest_singular_value(a):
    """Smallest singular value of a square matrix by inverse power iteration
    on A^T A; returns 0.0 when A is numerically singular for the LU."""
    a = as_matrix(a, "a", square=True)
    n = a.shape[0]
    if n == 0:
        return 0.0
    try:
        fa = _lu_factor(*to_band(a))
        fat = _lu_factor(*to_band(a.T))
    except SingularSystemError:
        return 0.0
    x = np.random.default_rng(0).standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(SIGMA_MIN_ITERATIONS):
        y = _lu_solve(*fa, x)
        z = _lu_solve(*fat, y)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        x = z / nz
    # x has converged to the left singular vector of the smallest pair
    return float(np.linalg.norm(a.T @ x))
