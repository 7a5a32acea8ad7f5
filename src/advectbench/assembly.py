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
  n = 0..nt-1; three-level stencils take level 1 from the known-value
  provider (cold start) and are centered at n = 1..nt-1.

Everything known (boundaries i = 0 and i = nx, initial level m = 0, and the
causal startup level) is folded, negated, into the right-hand side M0.

A variant's equations live in one stencil table (``stencil_table``): flat
arrays of (equation, node, coefficient, known-flag) terms built by index
arithmetic.  M0, the causal operator action and the vectorized global
operator, dense or in band storage, all read it.

A known-value provider is any callable (i, m) -> value defined on the nodes
the chosen variant needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AssemblyError, UsageError
from .schemes import Discretization, SchemeCoefficients, stencil_nodes

VARIANTS = ("paper", "causal")


def _check_variant(variant):
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class AssembledProblem:
    """The matrices of one closure variant, bound to their scheme and grid."""

    m1: np.ndarray
    m2: np.ndarray
    m0: np.ndarray
    scheme: SchemeCoefficients
    disc: Discretization
    variant: str

    @property
    def shape(self):
        return (self.disc.nx - 1, self.disc.nt)


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


def apply_l(s, u):
    """The diagonal-shift operator L(U) = L1 + L2 + L3 + L4.

    Entry (i, n): zeta*u_{i+1}^{n+1} + eta*u_{i-1}^{n-1}
    + theta*u_{i-1}^{n+1} + vartheta*u_{i+1}^{n-1}, zero-padded at the edges.
    """
    u = linalg.as_matrix(u, "u")
    out = np.zeros_like(u)
    if s.zeta != 0.0:
        out[:-1, :-1] += s.zeta * u[1:, 1:]
    if s.eta != 0.0:
        out[1:, 1:] += s.eta * u[:-1, :-1]
    if s.theta != 0.0:
        out[1:, :-1] += s.theta * u[:-1, 1:]
    if s.vartheta != 0.0:
        out[:-1, 1:] += s.vartheta * u[1:, :-1]
    return out


def sample_known(known, i, m):
    try:
        v = float(known(i, m))
    except Exception as exc:
        raise AssemblyError(f"known-value provider failed at node (i={i}, m={m}): {exc}") from exc
    if not np.isfinite(v):
        raise AssemblyError(f"known-value provider returned {v!r} at node (i={i}, m={m})")
    return v


@dataclass(frozen=True)
class StencilTable:
    """Every stencil term of one closure variant as flat arrays, sorted by
    equation and in stencil order within each equation.

    Equation eq sits at row eq % (nx-1), column eq // (nx-1) of the
    (nx-1) x nt layout (column-major, the vec order).  Each term couples
    coefficient coef with grid node (i, m); known terms are sampled from the
    provider and moved, negated, into M0, the others reference U[i-1, m-1].
    """

    eq: np.ndarray
    i: np.ndarray
    m: np.ndarray
    coef: np.ndarray
    known: np.ndarray


@functools.lru_cache(maxsize=8)
def stencil_table(s, disc, variant):
    """The StencilTable of the chosen variant, built by index arithmetic.

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
        # cold start: U[i-1, 0] - known(i, 1) = 0 pins level 1 to the provider
        i = np.repeat(np.arange(1, nx), 2)
        parts.insert(0, (i - 1, i, np.ones_like(i),
                         np.tile([1.0, -1.0], rows), np.tile([False, True], rows)))
    table = StencilTable(*(np.concatenate(cols) for cols in zip(*parts)))
    for column in vars(table).values():
        column.flags.writeable = False
    return table


def build_m0(s, disc, known, variant="paper"):
    """Right-hand-side matrix carrying initial and boundary data: minus the
    sum of every known term, sampled in table order."""
    t = stencil_table(s, disc, variant)
    k = t.known
    values = np.array([sample_known(known, i, m)
                       for i, m in zip(t.i[k].tolist(), t.m[k].tolist())])
    rows = disc.nx - 1
    m0 = np.zeros((rows, disc.nt))
    np.subtract.at(m0, (t.eq[k] % rows, t.eq[k] // rows), t.coef[k] * values)
    return m0


def assemble(s, disc, known, variant="paper"):
    """Build the full AssembledProblem for one scheme/grid/variant."""
    _check_variant(variant)
    return AssembledProblem(
        m1=build_m1(s, disc),
        m2=build_m2(s, disc),
        m0=build_m0(s, disc, known, variant),
        scheme=s,
        disc=disc,
        variant=variant,
    )


def apply_operator(prob, u):
    """Action of the variant's interior operator on a field U."""
    u = linalg.as_matrix(u, "u")
    if u.shape != prob.shape:
        raise UsageError(f"field shape {u.shape} does not match {prob.shape}")
    if prob.variant == "paper":
        return prob.m1 @ u + u @ prob.m2 + apply_l(prob.scheme, u)
    t = stencil_table(prob.scheme, prob.disc, prob.variant)
    k = ~t.known
    rows = prob.disc.nx - 1
    out = np.zeros_like(u)
    np.add.at(out, (t.eq[k] % rows, t.eq[k] // rows),
              t.coef[k] * u[t.i[k] - 1, t.m[k] - 1])
    return out


def residual(prob, u):
    """operator(U) - M0; zero exactly when U solves the variant's system."""
    return apply_operator(prob, u) - prob.m0


def _operator_entries(s, disc, variant):
    """(size, row, col, coef) of the variant's vectorized operator: every
    unknown term of the stencil table at G[row, col], vec stacking columns."""
    _check_variant(variant)
    rows, cols = disc.nx - 1, disc.nt
    size = rows * cols
    if size > linalg.MAX_VEC_SIZE:
        raise UsageError(
            f"vectorized operator of size {size} exceeds limit {linalg.MAX_VEC_SIZE}")
    t = stencil_table(s, disc, variant)
    k = ~t.known
    return size, t.eq[k], (t.m[k] - 1) * rows + t.i[k] - 1, t.coef[k]


def global_operator(s, disc, variant="paper"):
    """Vectorized operator G with G vec(U) = vec(operator(U)), vec stacking
    columns.  For the paper variant with L = 0 this equals
    kron_vec_operator(M1, M2)."""
    size, row, col, coef = _operator_entries(s, disc, variant)
    g = np.zeros((size, size))
    g[row, col] = coef
    return g


def band_operator(s, disc, variant="paper"):
    """The global operator in band storage, (ab, kl) as linalg.to_band
    returns it, scattered straight from the stencil table: O(N*nx) memory
    instead of O(N^2)."""
    return linalg.band_from_entries(*_operator_entries(s, disc, variant))
