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

A variant's equations live in one stencil table (``stencil_table``), built
by index arithmetic and memoized: a pair of (equation, node, coefficient)
triples, one for the known terms and one for the unknown terms.  Every
action reads it: M0 sums the known terms and the operator's action, in
either closure, the unknown terms, both through one gather; the dense
global operator scatters them, and ``operator_entries`` hands them to
linalg's band storage.  M1 and M2 remain as matrices for Bartels-Stewart
and the spectral diagnosis.

Known data is one node array ``known[i, m]``, i = 0..nx, m = 0..nt (the
shape ``advect.sample_nodes`` returns); only the nodes the variant folds
into M0 are read.
"""

from __future__ import annotations

import functools

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


def check_known(known, disc, stack=False):
    """The node array ``known`` as float64, checked to be (nx+1) x (nt+1)
    and finite; with stack=True a k x (nx+1) x (nt+1) stack of node arrays
    passes too."""
    known = linalg.as_matrix(known, "known", stack=stack)
    if known.shape[-2:] != (disc.nx + 1, disc.nt + 1):
        raise UsageError(f"known node array shape {known.shape} does not match "
                         f"grid nodes {(disc.nx + 1, disc.nt + 1)}")
    return known


@functools.lru_cache(maxsize=8)
def stencil_table(s, disc, variant):
    """The variant's stencil terms as a pair of (eq, node, coef) triples,
    built by index arithmetic: the known terms, which M0 sums, with node the
    column-major index into the (nx+1) x (nt+1) node array, then the unknown
    terms, the operator's entries, with node the vec index into U.  Equation
    eq is U's entry (eq % (nx-1), eq // (nx-1)); each triple is sorted by
    equation, in stencil order within one equation.

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
    coef = np.broadcast_to(coef, i.shape)
    keep = m <= nt  # terms beyond the time horizon (paper closure) are absent
    known = keep & ((i == 0) | (i == nx) | (m == 0))
    unknown = keep & ~known
    parts = ([(eq[known], m[known] * (nx + 1) + i[known], coef[known])],
             [(eq[unknown], (m[unknown] - 1) * rows + i[unknown] - 1, coef[unknown])])
    if variant == "causal" and s.is_three_level:
        # cold start: U[i-1, 0] - known[i, 1] = 0 pins level 1 to the known data
        cold = np.arange(rows)
        parts[0].insert(0, (cold, cold + nx + 2, np.full(rows, -1.0)))
        parts[1].insert(0, (cold, cold, np.ones(rows)))
    table = tuple(tuple(np.concatenate(cols) for cols in zip(*part)) for part in parts)
    for column in table[0] + table[1]:
        column.flags.writeable = False
    return table


def _gather(terms, disc, values):
    """Per-equation sums of coef * values[node] over (eq, node, coef)
    terms, added in table order, as an (nx-1) x nt matrix."""
    eq, node, coef = terms
    shape = (disc.nx - 1, disc.nt)
    sums = np.bincount(eq, weights=coef * values.ravel(order="F")[node],
                       minlength=shape[0] * shape[1])
    return sums.reshape(shape, order="F")


def build_m0(s, disc, known, variant="paper"):
    """Right-hand-side matrix carrying initial and boundary data: minus the
    sum of every known term, gathered from the node array."""
    known = check_known(known, disc)
    # subtracting from fresh zeros, not negating the gather, makes M0 row-major
    # (np.sum in the residual follows memory order) and keeps -0.0 out of it
    m0 = np.zeros((disc.nx - 1, disc.nt))
    m0 -= _gather(stencil_table(s, disc, variant)[0], disc, known)
    return m0


def apply_operator(s, disc, u, variant="paper"):
    """Action of the variant's interior operator on a field U: the sum of
    every unknown term, gathered from U."""
    u = linalg.as_matrix(u, "u")
    shape = (disc.nx - 1, disc.nt)
    if u.shape != shape:
        raise UsageError(f"field shape {u.shape} does not match {shape}")
    # adding into fresh zeros gives the result U's memory order, not the
    # gather's column-major one, and turns any -0.0 into +0.0
    out = np.zeros_like(u)
    out += _gather(stencil_table(s, disc, variant)[1], disc, u)
    return out


def residual(s, disc, known, u, variant="paper"):
    """operator(U) - M0; zero exactly when U solves the variant's system."""
    return apply_operator(s, disc, u, variant) - build_m0(s, disc, known, variant)


def operator_entries(s, disc, variant):
    """(size, row, col, coef) of the variant's vectorized operator: every
    unknown term of the stencil table at G[row, col], vec stacking columns.
    The global operator and linalg's band storage scatter them; the
    diagnosis's smallest singular value factors them without a dense G."""
    _check_variant(variant)
    size = (disc.nx - 1) * disc.nt
    if size > linalg.MAX_VEC_SIZE:
        raise UsageError(
            f"vectorized operator of size {size} exceeds limit {linalg.MAX_VEC_SIZE}")
    return (size, *stencil_table(s, disc, variant)[1])


def global_operator(s, disc, variant="paper"):
    """Vectorized operator G with G vec(U) = vec(operator(U)), vec stacking
    columns.  For the paper variant with L = 0 this equals
    kron_vec_operator(M1, M2)."""
    size, row, col, coef = operator_entries(s, disc, variant)
    g = np.zeros((size, size))
    g[row, col] = coef
    return g
