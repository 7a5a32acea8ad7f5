"""Matricial form of a nine-point stencil on the interior grid.

The unknown field is U = [u_i^n], i = 1..nx-1, n = 1..nt (rows are space,
columns are time).  Two closure variants are supported:

* ``paper``   -- one equation per interior cell, the stencil centered at
  (i, n) for n = 1..nt; stencil terms beyond the time horizon (m > nt) are
  absent, so the system reads M1 U + U M2 + L(U) = M0 with M1 tridiagonal
  (beta, delta, epsilon), M2 the alpha/gamma time-shift matrix and L the four
  zero-padded diagonal shifts.
* ``causal``  -- equations indexed by the time level they produce, which is
  exactly the time-marching recurrence.  Two-level stencils are centered at
  n = 0..nt-1; three-level stencils take level 1 from the known data
  (cold start) and are centered at n = 1..nt-1.

Everything known (boundaries i = 0 and i = nx, initial level m = 0, and the
causal startup level) is folded, negated, into the right-hand side M0.

A variant's equations live in one stencil table (``stencil_table``): flat
arrays of (equation, node, coefficient, known-flag) terms built by index
arithmetic.  Every action reads it: M0 sums its known terms and the
operator's action, in either closure, its unknown terms, both through one
gather; the vectorized global operator, dense or in band storage, scatters
its unknown terms.  M1 and M2 remain as matrices for Bartels-Stewart and the
spectral diagnosis.

Known data is one node array ``known[i, m]``, i = 0..nx, m = 0..nt (the
shape ``advect.sample_nodes`` returns); only the nodes the variant folds
into M0 are read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import UsageError
from .schemes import stencil_nodes

VARIANTS = ("paper", "causal")


def _check_variant(variant):
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def build_m1(s, disc):
    """(nx-1)x(nx-1) tridiagonal space operator: diag beta, super delta,
    sub epsilon."""
    m = disc.nx - 1
    return (np.diag(np.full(m, s.beta))
            + np.diag(np.full(m - 1, s.delta), 1)
            + np.diag(np.full(m - 1, s.epsilon), -1))


def build_m2(s, disc):
    """nt x nt time-shift operator: zero diagonal, super gamma, sub alpha."""
    n = disc.nt
    return (np.diag(np.full(n - 1, s.gamma), 1)
            + np.diag(np.full(n - 1, s.alpha), -1))


def check_known(known, disc):
    """The node array ``known`` as float64, checked to be (nx+1) x (nt+1)
    and finite."""
    known = linalg.as_matrix(known, "known")
    if known.shape != (disc.nx + 1, disc.nt + 1):
        raise UsageError(f"known node array shape {known.shape} does not match "
                         f"grid nodes {(disc.nx + 1, disc.nt + 1)}")
    return known


@dataclass(frozen=True)
class StencilTable:
    """Every stencil term of one closure variant as flat arrays, sorted by
    equation and in stencil order within each equation.

    Equation eq sits at row eq % (nx-1), column eq // (nx-1) of the
    (nx-1) x nt layout (column-major, the vec order).  Each term couples
    coefficient coef with grid node (i, m); known terms read known[i, m] and
    move, negated, into M0, the others reference U[i-1, m-1].
    """

    eq: np.ndarray
    i: np.ndarray
    m: np.ndarray
    coef: np.ndarray
    known: np.ndarray


@functools.lru_cache(maxsize=8)
def stencil_table(s, disc, variant):
    """The StencilTable of the chosen variant, built by index arithmetic;
    M0, the operator's action and the global operator all read it.

    Memoized on (scheme, grid, variant): a sweep reads the same table for
    every signal.  The arrays are shared, so they are read-only."""
    _check_variant(variant)
    nx, nt = disc.nx, disc.nt
    rows = nx - 1
    if variant == "paper":
        centers, first_col = np.arange(1, nt + 1), 0
    else:
        first_col = 1 if s.is_three_level else 0
        centers = np.arange(first_col, nt)
    coef, di, dn = (np.array(v) for v in zip(*stencil_nodes(s, 0, 0)))
    nonzero = coef != 0.0
    coef, di, dn = coef[nonzero], di[nonzero], dn[nonzero]
    # one row per equation (centers in column-major order), one column per term
    ci = np.tile(np.arange(1, nx), centers.size)[:, None]
    cn = np.repeat(centers, rows)[:, None]
    i, m = ci + di, cn + dn
    eq = np.broadcast_to(first_col * rows + np.arange(ci.size)[:, None], i.shape)
    keep = m <= nt  # terms beyond the time horizon (paper closure) are absent
    parts = [(eq[keep], i[keep], m[keep],
              np.broadcast_to(coef, i.shape)[keep],
              ((i == 0) | (i == nx) | (m == 0))[keep])]
    if variant == "causal" and s.is_three_level:
        # cold start: U[i-1, 0] - known[i, 1] = 0 pins level 1 to the known data
        i = np.repeat(np.arange(1, nx), 2)
        parts.insert(0, (i - 1, i, np.ones_like(i),
                         np.tile([1.0, -1.0], rows), np.tile([False, True], rows)))
    table = StencilTable(*(np.concatenate(cols) for cols in zip(*parts)))
    for column in vars(table).values():
        column.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _terms(s, disc, variant, known):
    """(eq, node, coef) of the table's known terms (known=True) or unknown
    terms, in table order; node is the vec (column-major) index of the
    term's node in the node array or in U.  Memoized and read-only like the
    table."""
    t = stencil_table(s, disc, variant)
    k = t.known if known else ~t.known
    if known:
        node = t.m[k] * (disc.nx + 1) + t.i[k]
    else:
        node = (t.m[k] - 1) * (disc.nx - 1) + t.i[k] - 1
    terms = (t.eq[k], node, t.coef[k])
    for column in terms:
        column.flags.writeable = False
    return terms


def _gather(s, disc, variant, known, values):
    """Per-equation sums of coef * values[node] over the known or unknown
    terms, added in table order, as an (nx-1) x nt matrix."""
    eq, node, coef = _terms(s, disc, variant, known)
    shape = (disc.nx - 1, disc.nt)
    sums = np.bincount(eq, weights=coef * values.ravel(order="F")[node],
                       minlength=shape[0] * shape[1])
    return sums.reshape(shape, order="F")


def build_m0(s, disc, known, variant="paper"):
    """Right-hand-side matrix carrying initial and boundary data: minus the
    sum of every known term, gathered from the node array."""
    known = check_known(known, disc)
    m0 = np.zeros((disc.nx - 1, disc.nt))
    m0 -= _gather(s, disc, variant, True, known)
    return m0


def apply_operator(s, disc, u, variant="paper"):
    """Action of the variant's interior operator on a field U: the sum of
    every unknown term, gathered from U."""
    u = linalg.as_matrix(u, "u")
    shape = (disc.nx - 1, disc.nt)
    if u.shape != shape:
        raise UsageError(f"field shape {u.shape} does not match {shape}")
    out = np.zeros_like(u)
    out += _gather(s, disc, variant, False, u)
    return out


def residual(s, disc, known, u, variant="paper"):
    """operator(U) - M0; zero exactly when U solves the variant's system."""
    return apply_operator(s, disc, u, variant) - build_m0(s, disc, known, variant)


def operator_entries(s, disc, variant):
    """(size, row, col, coef) of the variant's vectorized operator: every
    unknown term of the stencil table at G[row, col], vec stacking columns.
    The global operator, dense or in band storage, scatters them; the
    diagnosis's smallest singular value factors them without a dense G."""
    _check_variant(variant)
    size = (disc.nx - 1) * disc.nt
    if size > linalg.MAX_VEC_SIZE:
        raise UsageError(
            f"vectorized operator of size {size} exceeds limit {linalg.MAX_VEC_SIZE}")
    return (size, *_terms(s, disc, variant, False))


def global_operator(s, disc, variant="paper"):
    """Vectorized operator G with G vec(U) = vec(operator(U)), vec stacking
    columns.  For the paper variant with L = 0 this equals
    kron_vec_operator(M1, M2)."""
    size, row, col, coef = operator_entries(s, disc, variant)
    g = np.zeros((size, size))
    g[row, col] = coef
    return g


def band_operator(s, disc, variant="paper"):
    """The global operator in band storage, (ab, kl) as linalg.to_band
    returns it, scattered straight from the stencil table: O(N*nx) memory
    instead of O(N^2)."""
    return linalg.band_from_entries(*operator_entries(s, disc, variant))
