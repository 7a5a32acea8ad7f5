"""Real linear-algebra kernel.

Self-contained routines on numpy arrays: norms, Householder Hessenberg
reduction, real Schur decomposition (Francis double-shift QR; a 2x2
diagonal block is kept whatever its spectrum), eigenvalues (the closed
form of a tridiagonal Toeplitz matrix first, with the unitary eigenvectors
of the normal ones, then the diagonal of triangular input, then the Schur
form), Gaussian elimination with partial pivoting on band storage (dense
input is stored with the bandwidth of its nonzeros) and on tridiagonal
systems, minimum-norm least squares through a complete orthogonal
decomposition, and the Kronecker-vectorization operator used as an oracle
for matrix equations.  The COD's column-pivoted QR works in panels of
_PANEL reflectors, as LAPACK's xGEQP3 does: inside a panel only the pivot
column and row are brought up to date, the trailing block takes one matrix
product per panel, and the column norms that choose the pivots are
downdated, with a norm that loses its digits recomputed (_TOL3Z).  Every
Householder reflector is _reflection's.  Q, the COD's or Hessenberg's, is
formed from the stored reflectors (_form_q).  The COD keeps the right
reflections that compress the rank rows in panels of _PANEL in the compact
WY form (_wy_t) and never forms Z, as LAPACK's xGELSY.  It forms once its
minimum-norm solution operator Z_1 T^-1 Q_1^T, back-substituting Q_1^T in
blocks of _PANEL rows, each by a product with the inverse of its diagonal
block scaled to unit magnitude, and its null basis Z_2, applying the
panels to both in place; a solve is one product with the operator.

All functions are pure; matrices passed in are never modified.  The
numerical thresholds and iteration caps are module constants, so every
kernel takes only its operands: DEFLATION_RTOL (Schur deflation),
SCHUR_SWEEPS_PER_ORDER (Schur iteration cap), PIVOT_RTOL (every pivot,
band LU's and the tridiagonal elimination's alike), RANK_RTOL (COD
numerical rank) and SIGMA_MIN_ITERATIONS (inverse power iteration).
Hessenberg, Schur, COD, both eliminations and the smallest singular value
work on their input scaled by a power of two to unit magnitude, which is
exact (_unit_scaled, or _pivot_scale with the pivot threshold), so finite
entries whose squares or products overflow still factor, and return through
_scaled_back, which raises NumericalFailureError when a factor overflows or
a pivot underflows to zero.  The public solves raise it rather than return
a solution that overflows.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError, SingularSystemError, UsageError

_TINY = float(np.finfo(float).tiny)  # smallest normal float

# Desk-scale guard for vectorized operators.
MAX_VEC_SIZE = 20000
# Numerical thresholds, each read by the one kernel named beside it.
DEFLATION_RTOL = 1e-14       # schur_decompose: negligible subdiagonal entry
SCHUR_SWEEPS_PER_ORDER = 40  # schur_decompose: bulge chases per order of A
PIVOT_RTOL = 1e-13           # _lu_factor, _tridiag_lu: singular pivot, relative to |A|_F
RANK_RTOL = 1e-11            # cod_factor: numerical rank cut, relative
SIGMA_MIN_ITERATIONS = 80    # smallest_singular_value_from_entries: inverse power steps
# reflectors per panel of the COD's pivoted loop, its Q and its right reflections, and
# rows per block of the back-substitution that forms its solution operator: on the
# sweep's 380 x 380 operators 16 to 64 factor within 10% of each other, 8 is 20% slower
_PANEL = 32
_TOL3Z = math.sqrt(np.finfo(float).eps)  # cod_factor: lost digits of a downdated norm squared


def _as_float_array(a, name):
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:  # non-numeric or ragged input
        raise UsageError(f"{name} must be a numeric array: {exc}") from exc


def as_matrix(a, name="matrix", square=False, stack=False):
    """Validate and return a 2-D float64 array with finite entries; with
    stack=True a 3-D one, a stack of such matrices, is accepted too."""
    m = _as_float_array(a, name)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise UsageError(f"{name} must be 2-D{' or 3-D' if stack else ''}, got ndim={m.ndim}")
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
    """Frobenius norm of a finite matrix, without overflow or underflow."""
    return _frobenius(as_matrix(a))


def _frobenius(a):
    """frobenius_norm's body, unchecked: an infinite entry gives inf."""
    with np.errstate(over="ignore"):
        total = float(np.sum(a * a))
    # squares that overflow, or underflow to a subnormal or zero sum: rescale
    if math.isinf(total) or total < _TINY:
        scale = float(np.max(np.abs(a), initial=0.0))
        if 0.0 < scale < math.inf:
            return scale * math.sqrt(float(np.sum((a / scale) ** 2)))
    return math.sqrt(total)


def _unit_scaled(*arrays):
    """(a * 2**-e for each operand a, then e): all scaled by the one power of
    two that brings their largest magnitude into [0.5, 1), which is exact."""
    e = math.frexp(max(float(np.max(np.abs(a), initial=0.0)) for a in arrays))[1]
    return (*(np.ldexp(a, -e) for a in arrays), e)


def _pivot_scale(a):
    """(e, thresh): the exponent of _unit_scaled(a) and the singular-pivot
    threshold PIVOT_RTOL * |a * 2**-e|_F, both eliminations' rule."""
    scaled, e = _unit_scaled(a)
    return e, PIVOT_RTOL * max(frobenius_norm(np.atleast_2d(scaled)), 1e-300)


def _scaled_back(x, e, message, pivots=None):
    """Multiply the unit-scaled factor x by 2**e in place and return it.
    Raises NumericalFailureError(message) when an entry overflows, or when
    an entry x[pivots], one a solve divides by, underflows to zero."""
    with np.errstate(over="ignore"):
        np.ldexp(x, e, out=x)
    if not np.isfinite(x).all() or (pivots is not None and not x[pivots].all()):
        raise NumericalFailureError(message)
    return x


def vec(x):
    """Column-stacking vectorization."""
    return _vec(as_matrix(x))


def _vec(x):
    return x.reshape(-1, order="F")


def unvec(v, rows, cols):
    v = as_vector(v)
    if v.size != rows * cols:
        raise UsageError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return _unvec(v, rows, cols)


def _unvec(v, rows, cols):
    return v.reshape((rows, cols), order="F")


def hessenberg(a):
    """Householder reduction A = Q H Q^T with H upper Hessenberg, on A
    scaled to unit magnitude: the reflectors are _reflection's, and Q is
    formed from them afterwards by _form_q, as the COD's Q is.

    Returns (q, h); entries of h below the first subdiagonal are exactly zero
    (a tridiagonal A returns q = I and h = A).
    Raises NumericalFailureError when h exceeds the floating-point range.
    """
    h, e = _unit_scaled(as_matrix(a, "a", square=True))
    n = h.shape[0]
    # column k+1 of q holds the unit reflector v_k in rows k+1: until _form_q
    q = np.eye(n)
    for k in range(n - 2):
        x, v = h[k + 1:, k], q[k + 1:, k + 1]
        alpha, sigma = float(x[0]), float(x[1:] @ x[1:])
        if sigma == 0.0:  # x lies along e_1: H_k = I
            v[0] = 0.0
            continue
        beta, scale = _reflection(alpha, sigma)
        np.multiply(x, scale, out=v)
        v[0] = (alpha - beta) * scale
        h[k + 1, k], h[k + 2:, k] = beta, 0.0
        h[k + 1:, k + 1:] -= np.outer(v, 2.0 * (v @ h[k + 1:, k + 1:]))
        h[:, k + 1:] -= np.outer(2.0 * (h[:, k + 1:] @ v), v)
    _form_q(q[1:, 1:], n - 2)
    return q, _scaled_back(h, e, "the Hessenberg form exceeds the floating-point range")


@dataclass(frozen=True)
class SchurForm:
    """Real Schur decomposition A = Q T Q^T.

    q is orthogonal, t upper quasi-triangular (1x1 and 2x2 diagonal blocks);
    eigenvalues lists the block spectrum with multiplicity.
    """

    q: np.ndarray
    t: np.ndarray
    eigenvalues: list = field(default_factory=list)


def _francis_step(h, q, lo, hi, s, t):
    """One implicit double-shift bulge chase on the active block lo..hi."""
    x = h[lo, lo] * h[lo, lo] + h[lo, lo + 1] * h[lo + 1, lo] - s * h[lo, lo] + t
    y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - s)
    z = h[lo + 1, lo] * h[lo + 2, lo + 1] if lo + 2 <= hi else 0.0
    for k in range(lo, hi):
        size = 3 if k + 2 <= hi else 2
        sigma = y * y + z * z
        if sigma != 0.0:  # else (x, y, z) lies along e_1: H = I
            beta, scale = _reflection(x, sigma)
            v = np.array([(x - beta) * scale, y * scale, z * scale][:size])
            block = h[k:k + size, max(lo, k - 1):]
            block -= np.outer(v, 2.0 * (v @ block))
            block = h[:min(hi, k + size) + 1, k:k + size]
            block -= np.outer(2.0 * (block @ v), v)
            block = q[:, k:k + size]
            block -= np.outer(2.0 * (block @ v), v)
        if k > lo:
            h[k + 1:k + size, k - 1] = 0.0
        if k < hi - 1:
            x, y = h[k + 1, k], h[k + 2, k]
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


def schur_decompose(a):
    """Real Schur decomposition by Hessenberg reduction followed by implicit
    Francis double-shift QR with deflation.

    A subdiagonal entry deflates when
    |h(i+1,i)| <= DEFLATION_RTOL*(|h(i,i)|+|h(i+1,i+1)|) (the neighbour sum
    falls back to |A|_F when it vanishes).  The form is not standardized: a
    deflated 2x2 block stays as it is, whether its eigenvalues are a complex
    pair or real.  Raises NumericalFailureError, whose message states the
    cap, after SCHUR_SWEEPS_PER_ORDER*n bulge chases.
    """
    a = as_matrix(a, "a", square=True)
    n = a.shape[0]
    max_sweeps = SCHUR_SWEEPS_PER_ORDER * n
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
        if lo >= hi - 1:  # a 1x1 or 2x2 block has deflated
            hi = lo - 1
            stagnation = 0
            continue
        steps += 1
        stagnation += 1
        if steps > max_sweeps:
            raise NumericalFailureError(
                f"Schur iteration did not converge within {max_sweeps} sweeps")
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
    eigs = np.array(_block_eigenvalues(h), dtype=complex)
    message = "the Schur form exceeds the floating-point range"
    _scaled_back(eigs.view(float), e, message)
    return SchurForm(q=q, t=_scaled_back(h, e, message), eigenvalues=eigs.tolist())


def tridiagonal_toeplitz_eig(a, vectors=False):
    """Closed-form eigenpairs of a tridiagonal Toeplitz matrix T of order n
    (b on the diagonal, c above, d below; c = d = 0 when T is diagonal or
    1x1).  With s = sqrt|c| sqrt|d| when c and d are both positive or both
    not, else i sqrt|c| sqrt|d|, eigenvalue k, k = 1..n, is
    b + 2 s cos(k pi/(n+1)) and eigenvector k has entries
    (s/c)^j sin(j k pi/(n+1)), j = 1..n.

    Returns None when a is not tridiagonal Toeplitz, else the eigenvalues
    as a complex array.  With vectors=True it returns (values, phase, u),
    or None when T is not normal (|c| != |d|): then s/c is a power of i,
    phase its powers j = 1..n, and T = V diag(values) V^H with the unitary
    V = diag(phase) u, u the orthogonal and symmetric DST-I matrix
    sqrt(2/(n+1)) sin(j k pi/(n+1)), column k paired with value k.
    Raises NumericalFailureError when an eigenvalue overflows."""
    n = a.shape[0]
    b = a[0, 0]
    c, d = (a[0, 1], a[1, 0]) if n > 1 else (0.0, 0.0)
    # each band constant, and no nonzero entry off the three bands
    if (any((np.diagonal(a, k) != v).any() for k, v in ((0, b), (1, c), (-1, d)))
            or np.count_nonzero(a) != n * bool(b) + (n - 1) * (bool(c) + bool(d))):
        return None
    if vectors and abs(c) != abs(d):
        return None
    # cos(k pi/(n+1)) as a sine, exactly odd about the middle k
    cos = np.sin(np.pi * np.arange(n - 1, -n, -2) / (2 * n + 2))
    real = (c > 0.0) == (d > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        w = 2.0 * cos * (np.sqrt(abs(c)) * np.sqrt(abs(d)))  # c d may overflow
        z = b + w if real else b + 1j * w
    if not np.all(np.isfinite(z)):
        raise NumericalFailureError("the spectrum exceeds the floating-point range")
    z = np.asarray(z, dtype=complex)
    if not vectors:
        return z
    # s/c = i^q: +-1 for a real spectrum, +-i otherwise
    q = (0 if real else 1) + (2 if c < 0.0 else 0)
    j = np.arange(1, n + 1)
    phase = np.array([1, 1j, -1, -1j])[q * j % 4]
    # j k reduced modulo 2(n+1), the period of sin(j k pi/(n+1))
    jk = np.outer(j, j) % (2 * n + 2)
    u = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * jk)
    return z, phase, u


def eigenvalues(a):
    """Eigenvalues with multiplicity: the closed form of a tridiagonal
    Toeplitz matrix (exact where the Schur form of a non-normal one is not;
    every scheme's M1 and M2 is one), else the diagonal of triangular input
    (an empty matrix included), otherwise the real Schur form's."""
    a = as_matrix(a, "a", square=True)
    spectrum = tridiagonal_toeplitz_eig(a) if a.size else None
    if spectrum is not None:
        return spectrum.tolist()
    if np.all(np.tril(a, -1) == 0.0) or np.all(np.triu(a, 1) == 0.0):
        return [complex(x) for x in np.diag(a)]
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


def _pivot_failure(pivot, thresh, e, column):
    """The SingularSystemError of a pivot at most thresh, both in units
    2**e, each scaled back in decimal where it falls below the normal floats."""
    def text(x):
        v = math.ldexp(abs(x), e)
        v = decimal.Decimal(abs(x)) * decimal.Decimal(2) ** e if x and v < _TINY else v
        return f"{v:.3e}"
    return SingularSystemError(f"pivot {text(pivot)} below {text(thresh)} at column {column}")


def _lu_factor(ab, kl):
    """Band LU with partial pivoting of the matrix stored in (ab, kl).

    Step k exchanges rows k and piv[k] over the active columns only, so L
    keeps its kl multipliers per column where they were computed and U
    widens to kl+ku superdiagonals; _lu_solve replays the exchanges in
    order.  Every floating-point operation on a band entry is the one dense
    elimination with partial pivoting performs, on A scaled by a power of
    two to unit magnitude; U is scaled back at the end.  Raises
    SingularSystemError when a pivot is at most PIVOT_RTOL * |A|_F.  Returns
    (lu, kl, piv).
    """
    e, thresh = _pivot_scale(ab)
    lu = np.ldexp(ab, -e)
    n, width = lu.shape
    d = _dense_view(lu, kl)
    piv = np.arange(n)
    for k in range(n):
        r1, c1 = min(n, k + kl + 1), min(n, k + width - kl)
        p = k + int(np.argmax(np.abs(d[k:r1, k])))
        if abs(d[p, k]) <= thresh:
            raise _pivot_failure(d[p, k], thresh, e, k)
        if p != k:
            row = d[k, k:c1].copy()
            d[k, k:c1] = d[p, k:c1]
            d[p, k:c1] = row
            piv[k] = p
        d[k + 1:r1, k] /= d[k, k]
        # the trailing block, transposed to match the layout's memory order
        trailing = d[k + 1:r1, k + 1:c1].T
        trailing -= np.outer(d[k, k + 1:c1], d[k + 1:r1, k])
    # U's superdiagonals and diagonal, the last of its columns in storage
    _scaled_back(lu[:, :width - kl], e, "the LU factors exceed the floating-point range",
                 pivots=(slice(None), -1))
    return lu, kl, piv


def _lu_solve(lu, kl, piv, b):
    """Solve A x = b for the vector b from the band factors of _lu_factor;
    raises NumericalFailureError when x leaves the floating-point range."""
    n, width = lu.shape
    w = width - 1 - kl  # superdiagonals of U; lu[k, w] is U's diagonal
    # x sits between w leading and kl trailing scratch entries, so every
    # step updates a full column of L or U
    xp = np.zeros(w + n + kl)
    x = xp[w:w + n]
    x[:] = b
    lower, upper = lu[:, w + 1:], lu[:, :w]
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k, p in enumerate(piv.tolist()):
                if p != k:
                    x[k], x[p] = x[p], x[k]
                xp[w + k + 1:w + k + kl + 1] -= lower[k] * x[k]
            for k, u_kk in reversed(list(enumerate(lu[:, w].tolist()))):
                x[k] /= u_kk
                xp[k:k + w] -= upper[k] * x[k]
    except FloatingPointError as exc:
        raise NumericalFailureError(
            f"the solution exceeds the floating-point range ({exc})") from exc
    return x


def gauss_solve(a, b):
    """Solve A x = b for the vector b by Gaussian elimination with partial
    pivoting on band storage (_lu_factor, _lu_solve)."""
    a = as_matrix(a, "a", square=True)
    b = as_vector(b, "rhs")
    if b.size != a.shape[0]:
        raise UsageError(f"rhs length {b.size} does not match {a.shape}")
    return _lu_solve(*_lu_factor(*to_band(a)), b)


def _tridiag_lu(bands, e, thresh, column):
    """Factor the diagonal or tridiagonal matrix D with bands[1 + c - r, r]
    = D[r, c] once and return its solve r -> D^{-1} r (a plain division
    when D is diagonal), which raises NumericalFailureError when the
    solution is not finite.  r is a vector or an n-by-k matrix; the solve
    eliminates the k columns together, a row of them per step, by the
    floating-point operations of a vector solve in the same order, so each
    column is bit-identical to a vector solve.  The elimination overflows
    silently, under any errstate of the caller, as the vector solve on
    Python floats does; the plain division runs under the caller's
    errstate.  The elimination is _lu_factor's partial
    pivoting on D scaled by 2**-e, done as LAPACK's gttrf does it: rows i
    and i+1 are exchanged when the subdiagonal entry exceeds the pivot,
    which gives U a second superdiagonal.  Raises _lu_factor's
    SingularSystemError when a pivot of the scaled D is at most thresh,
    before U is scaled back; column is D's first column in the matrix the
    caller factors."""
    sub, d, du = np.ldexp(bands, -e).tolist()
    du2, w, swap = [0.0] * len(d), [], []
    for i, lo in enumerate(sub[1:]):
        swap.append(abs(lo) > abs(d[i]))
        if swap[i]:  # exchange rows i and i+1
            w.append(d[i] / lo)
            d[i], d[i + 1], du[i], du2[i], du[i + 1] = (
                lo, du[i] - w[i] * d[i + 1], d[i + 1], du[i + 1], -w[i] * du[i + 1])
        else:  # a zero pivot is rejected below, never divided by
            w.append(lo / d[i] if d[i] else 0.0)
            d[i + 1] -= w[i] * du[i]
    small = np.flatnonzero(np.abs(d) <= thresh)
    if small.size:
        k = int(small[0])
        raise _pivot_failure(d[k], thresh, e, column + k)
    diagonal = None if bands[0].any() or bands[2].any() else bands[1].copy()
    if diagonal is None:
        d, du, du2 = _scaled_back(np.array([d, du, du2]), e,
                                  "the LU factors exceed the floating-point range",
                                  pivots=0).tolist()

    def solve(r):
        if diagonal is not None:
            x = (r.T / diagonal).T
        else:
            # the rows of r: floats, or length-k rows eliminated together
            x = r.tolist() if r.ndim == 1 else list(r.copy())
            with np.errstate(all="ignore"):
                for i, (wi, exchanged) in enumerate(zip(w, swap)):
                    if exchanged:
                        x[i], x[i + 1] = x[i + 1], x[i] - wi * x[i + 1]
                    else:
                        x[i + 1] -= wi * x[i]
                x[-1] /= d[-1]
                for i in range(len(x) - 2, -1, -1):
                    ri = x[i] - du[i] * x[i + 1]
                    if du2[i]:
                        ri -= du2[i] * x[i + 2]
                    x[i] = ri / d[i]
            # a vector's Python floats check faster than their array does
            if r.ndim == 1 and all(map(math.isfinite, x)):
                return np.array(x)
            x = np.array(x)
        if not np.isfinite(x).all():
            raise NumericalFailureError("the solution exceeds the floating-point range")
        return x
    return solve


def tridiag_solve(sub, diag, sup, rhs):
    """Solve the tridiagonal system A x = rhs once (see _tridiag_lu), A with
    bands sub, diag, sup; sub and sup have length n-1 (below / above the main
    diagonal).  A is singular, as for band LU, when a pivot of A scaled by a
    power of two to unit magnitude is at most PIVOT_RTOL * |A|_F.  Raises
    NumericalFailureError when the solution leaves the floating-point
    range."""
    rhs = as_vector(rhs, "rhs")
    sub = as_vector(sub, "sub")
    diag = as_vector(diag, "diag")
    sup = as_vector(sup, "super")
    n = diag.size
    if n == 0:
        raise UsageError("empty system")
    if sub.size != n - 1 or sup.size != n - 1:
        raise UsageError("tridiagonal band lengths do not match")
    bands = np.zeros((3, n))
    bands[0, 1:], bands[1], bands[2, :-1] = sub, diag, sup
    solve = _tridiag_lu(bands, *_pivot_scale(bands), 0)
    if rhs.size != n:
        raise UsageError(f"rhs length {rhs.size} does not match {(n, n)}")
    with np.errstate(over="ignore"):
        return solve(rhs)


@dataclass(frozen=True)
class CODFactorization:
    """The complete orthogonal decomposition A P = Q [T 0; 0 0] Z^T, as
    much of it as a solve and the null space read.

    perm is P.  pinv (n x m) is the minimum-norm solution operator
    Z_1 T^-1 Q_1^T of A scaled to unit magnitude, A * 2**-e, and null
    (n x (n-rank)) is Z's trailing columns Z_2, the rows of both in Z's
    order, not permuted (_min_norm_operator).
    """

    perm: np.ndarray
    rank: int
    shape: tuple
    pinv: np.ndarray
    null: np.ndarray
    e: int

    def solve_min_norm(self, b):
        """Minimum-norm least-squares solution of A x ~ b.

        One product of pinv with b scaled by the same power of two as A,
        x[perm] = pinv (b * 2**-e).  b is scaled before the product, not x
        after it, so an intermediate overflows only where x does, and a
        power-of-two multiple of A and b gives the same x bit for bit.
        Raises NumericalFailureError when the solution exceeds the
        floating-point range.  Known limit: an entry of pinv overflows when
        T's inverse exceeds that range (a Kahan-type T of order about 1000
        or more), and every solve on that factorization then raises it.
        b is checked here; _solve, the body, takes a finite b of length m.
        """
        b = as_vector(b, "b")
        if b.size != self.shape[0]:
            raise UsageError(f"rhs length {b.size} does not match {self.shape}")
        return self._solve(b)

    def _solve(self, b):
        x = np.zeros(self.shape[1])
        # an overflow is caught by the check of x below
        with np.errstate(over="ignore", invalid="ignore"):
            x[self.perm] = self.pinv @ np.ldexp(b, -self.e)
        if not np.isfinite(x).all():
            raise NumericalFailureError("the solution exceeds the floating-point range")
        return x

    def null_space(self):
        """Orthonormal basis of the numerical null space of A (n x (n-rank))."""
        n = self.shape[1]
        ns = np.zeros((n, n - self.rank))
        ns[self.perm, :] = self.null
        return ns


def _wy_t(v):
    """The upper-triangular T with H_1 ... H_b = I - V T V^T for the unit
    reflectors H_j = I - 2 v_j v_j^T, v_j column j of v (xLARFT's forward
    recurrence)."""
    b = v.shape[1]
    g = v.T @ v
    t = np.zeros((b, b))
    for j in range(b):
        t[:j, j] = -2.0 * (t[:j, :j] @ g[:j, j])
        t[j, j] = 2.0
    return t


def _form_q(q, p):
    """Overwrite the unit reflectors v_0..v_{p-1}, v_k stored in rows k: of
    column k of q (every other column an identity column; v_k = 0 for
    H_k = I), with Q = H_0 ... H_{p-1}, H_k = I - 2 v_k v_k^T, as LAPACK's
    xORGQR does: from the last panel of at most _PANEL reflectors to the
    first, each panel applied as I - V T V^T (_wy_t).  q is the COD's Q, or
    the view of Hessenberg's Q without its first row and column."""
    for i in reversed(range(0, p, _PANEL)):
        b = min(_PANEL, p - i)
        v = q[i:, i:i + b].copy()
        t = _wy_t(v)
        trailing = q[i:, i + b:]
        trailing -= v @ (t @ (v.T @ trailing))
        # the panel's own columns: (I - V T V^T) applied to identity columns
        q[i:, i:i + b] = -(v @ (t @ v[:b].T))
        q[i:i + b, i:i + b] += np.eye(b)


def _reflection(alpha, sigma):
    """(beta, scale) of the unit reflector v = scale * (x - beta e_1) with
    (I - 2 v v^T) x = beta e_1, for x with first entry alpha and the sum of
    its other entries' squares sigma > 0; beta has the sign opposite to
    alpha, as LAPACK's.  Every reflector of this module comes from it."""
    beta = -math.copysign(math.sqrt(alpha * alpha + sigma), alpha)
    return beta, 1.0 / math.sqrt((alpha - beta) ** 2 + sigma)


def cod_factor(a):
    """Rank-revealing complete orthogonal decomposition.

    Column-pivoted Householder QR followed by right Householder reflections
    that compress the leading rank rows into an upper-triangular core.  The
    numerical rank counts leading diagonal entries above RANK_RTOL times the
    largest revealed diagonal.

    The pivoted loop is LAPACK's xGEQP3 with xLAQPS's panels of at most
    _PANEL reflectors.  Inside a panel, with V its reflectors and F the
    accumulator that makes the block A_j = A_0 - V F^T, only the pivot
    column and the pivot row are brought up to date; the trailing block is
    updated once per panel, by one matrix product.  The squared partial
    norms of the columns, which choose the pivots, are downdated by the
    pivot row's squares, not recomputed.  A downdated norm squared below
    _TOL3Z times its last recomputed value has lost its digits: it ends the
    panel and is recomputed from the updated block.  The loop only stores
    its left reflectors; Q is formed from them afterwards in panels of
    _PANEL by the compact WY form (_form_q).  The right reflections update
    R's columns in place and a contiguous copy of its trailing columns, and
    are kept in panels of _PANEL rows in the compact WY form; Z is never
    formed.  The minimum-norm solution operator and the null basis are
    formed from the unit-scaled factors (_min_norm_operator), so set-up,
    not the first solve, pays for them.  T is then scaled back only to
    check its range; it is not kept, and neither are Q and the panels.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    r, e = _unit_scaled(a)
    # column k of q holds the unit reflector v_k in rows k: until _form_q
    q = np.eye(m)
    perm = np.arange(n)
    kmax = min(m, n)
    norms = np.einsum("ij,ij->j", r, r)
    guard = _TOL3Z * norms
    k = 0
    while k < kmax:
        k0, stop = k, min(kmax, k + _PANEL)
        # row j of ft is F's column j, 2 A_0^T v_j - F (2 V^T v_j), over the
        # columns k0: of r
        ft = np.zeros((stop - k0, n - k0))
        lost = False
        while k < stop and not lost:
            j = k - k0
            p = k + int(np.argmax(norms[k:]))
            if p != k:
                r[:, k], r[:, p] = r[:, p], r[:, k].copy()
                ft[:, j], ft[:, p - k0] = ft[:, p - k0], ft[:, j].copy()
                for swapped in perm, norms, guard:
                    swapped[k], swapped[p] = swapped[p], swapped[k]
            v_done = q[k:, k0:k]
            x = r[k:, k] - v_done @ ft[:j, j]
            alpha, sigma = float(x[0]), float(x[1:] @ x[1:])
            if sigma == 0.0:  # x lies along e_1: H_k = I
                q[k, k] = 0.0
                r[k, k] = alpha
            else:
                r[k, k], scale = _reflection(alpha, sigma)
                x[0] = alpha - r[k, k]
                np.multiply(x, scale, out=q[k:, k])
            r[k + 1:, k] = 0.0
            u = 2.0 * q[k:, k]
            row = ft[j, j + 1:]
            np.matmul(u, r[k:, k + 1:], out=row)
            row -= (u @ v_done) @ ft[:j, j + 1:]
            # the pivot row up to date, and its squares off the partial norms
            pivot_row = r[k, k + 1:]
            pivot_row -= q[k, k0:k + 1] @ ft[:j + 1, j + 1:]
            rest = norms[k + 1:]
            rest -= pivot_row * pivot_row
            lost = bool((rest < guard[k + 1:]).any())
            k += 1
        r[k:, k:] -= q[k:, k0:k] @ ft[:k - k0, k - k0:]
        redo = k + np.flatnonzero(norms[k:] < guard[k:])
        norms[redo] = np.einsum("ij,ij->j", r[k:, redo], r[k:, redo])
        guard[redo] = _TOL3Z * norms[redo]
    _form_q(q, kmax)
    diag = np.abs(np.diag(r[:kmax, :kmax])) if kmax else np.zeros(0)
    rank = 0
    if kmax and diag[0] > 0.0:
        thresh = RANK_RTOL * diag[0]
        while rank < kmax and diag[rank] > thresh:
            rank += 1
    t = r[:rank, :rank]
    panels = []
    if rank < n:
        # the right reflector P_i of row i folds R[i, rank:] into R[i, i],
        # last row first, in panels of _PANEL rows; column j of u holds the
        # panel's j-th reflector on the panel's columns, then on columns
        # rank:; panels keeps each (i0, i1, u, wt), and Z is their product
        # (_min_norm_operator)
        tail = r[:rank, rank:].copy()
        for i1 in range(rank, 0, -_PANEL):
            i0 = max(0, i1 - _PANEL)
            b = i1 - i0
            u = np.zeros((b + n - rank, b))
            for j, i in enumerate(range(i1 - 1, i0 - 1, -1)):
                sigma = float(tail[i] @ tail[i])
                if sigma == 0.0:  # P_i = I
                    continue
                alpha = float(r[i, i])
                r[i, i], scale = _reflection(alpha, sigma)
                v0, v1 = (alpha - r[i, i]) * scale, tail[i] * scale
                s = v0 * r[:i, i] + tail[:i] @ v1
                r[:i, i] -= (2.0 * v0) * s
                tail[:i] -= np.multiply.outer(s, 2.0 * v1)
                u[i - i0, j], u[b:, j] = v0, v1
            panels.append((i0, i1, u, _wy_t(u)))
    pinv, null = _min_norm_operator(q, t, panels, n)
    _scaled_back(t, e, "the COD exceeds the floating-point range",
                 pivots=np.diag_indices(rank))
    return CODFactorization(perm=perm, rank=rank, shape=(m, n), pinv=pinv, null=null, e=e)


def _min_norm_operator(q, t, panels, n):
    """(Z_1 T^-1 Q_1^T (n x m), Z_2 (n x (n-rank))) for the unit-scaled
    rank x rank core t, and Z = H_1 ... H_k, H_p = I - U wt U^T on rows
    i0:i1 and rank: for the p-th of panels (i0, i1, u, wt).

    The operator's first rank rows take W = T^-1 Q_1^T: Q_1^T
    back-substituted in blocks of _PANEL rows, the last block first, each
    by one product with the rows of W already solved and one with the
    inverse of the diagonal block scaled to unit magnitude by _unit_scaled,
    the block's right-hand side scaled by the same power of two before that
    product.  A block is never singular: its diagonal entries are T's, each
    above RANK_RTOL times the largest.  Then Z [W; 0] and Z [0; I] are
    formed in place, the panels applied from the last to the first, so no
    second n x m array is made; at full rank there is no panel, as Z = I.
    An entry that overflows is left to the solve's check.
    """
    rank = t.shape[0]
    x = np.zeros((n, q.shape[0]))
    null = np.eye(n, n - rank, -rank)
    w = x[:rank]
    w[:] = q[:, :rank].T
    with np.errstate(over="ignore", invalid="ignore"):
        for i in reversed(range(0, rank, _PANEL)):
            stop = min(i + _PANEL, rank)
            d, e = _unit_scaled(t[i:stop, i:stop])
            w[i:stop] = np.linalg.inv(d) @ np.ldexp(w[i:stop] - t[i:stop, stop:] @ w[stop:], -e)
        for y in x, null:
            for i0, i1, u, wt in reversed(panels):
                b = i1 - i0
                c = wt @ (u[:b].T @ y[i0:i1] + u[b:].T @ y[rank:])
                y[i0:i1] -= u[:b] @ c
                y[rank:] -= u[b:] @ c
    return x, null


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


def smallest_singular_value_from_entries(n, row, col, val):
    """Smallest singular value of the n x n matrix with entries
    A[row, col] = val, by inverse power iteration on A^T A.  A and A^T are
    factored in band storage straight from the entries, scaled by a power of
    two to unit magnitude, so no dense copy is made.  Raises the LU's
    SingularSystemError when A is numerically singular for it."""
    if n == 0:
        return 0.0
    val, e = _unit_scaled(val)
    fa = _lu_factor(*band_from_entries(n, row, col, val))
    fat = _lu_factor(*band_from_entries(n, col, row, val))
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
    atx = np.bincount(col, weights=val * x[row], minlength=n)
    return float(_scaled_back(np.linalg.norm(atx, keepdims=True), e,
                              "the smallest singular value exceeds the floating-point range")[0])
