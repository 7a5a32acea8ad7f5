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

Every stencil term is a scaled shift of the node field, and one helper,
``_shifted_terms``, is all that knows a closure's geometry: laid over a
zero-padded (nx+1) x (nt+2) node array, the stencil is at most nine
shifted views, one per nonzero term.  ``StencilSums`` sums them over U for
the operator's action and over the known nodes for M0, laid out once for
many calls.  ``stencil_table`` reads the operator's entries off them over
an array of vec indices; the dense global operator scatters those entries
and linalg's band storage reads them.  ``March`` solves a closure that is
block triangular in time on the same views: the simulator and the causal
and two-level paper eliminations of kron and Bartels-Stewart.  M1 and M2
remain as matrices for Bartels-Stewart and the spectral diagnosis.

Known data is one node array ``known[i, m]``, i = 0..nx, m = 0..nt (the
shape ``advect.sample_nodes`` returns); only the nodes the variant folds
into M0 are read.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import NumericalFailureError, UsageError
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


def _shifted_terms(s, disc, variant, padded):
    """The closure's geometry over ``padded``: node (i, m) at [i, m] of a
    zero-padded (nx+1) x (nt+2) array, level nt+1 the paper horizon (a
    trailing axis of k stacked arrays rides along).  Returns (first, terms),
    terms the (c, m, view) of each nonzero stencil term in stencil order, m
    its time offset (-1, 0 or 1) from the stencil's center: equation column
    n >= first sums c * view[:, n - first]; first = 1 leaves column 0 to
    the causal three-level cold start."""
    _check_variant(variant)
    first = int(variant == "causal" and s.is_three_level)
    # equation column n is centered at level n + 1 (paper) or n (causal)
    a = first + (variant == "paper")
    return first, [(c, m, padded[i:i + disc.nx - 1, a + m:a + m + disc.nt - first])
                   for c, i, m in stencil_nodes(s, 1, 0) if c != 0.0]


def _add_terms(out, terms):
    """out += c * view over the terms, in order, under one errstate switch; a
    result that is not finite recomputes the products, so that one that
    overflows answers to the caller's errstate, and a sum is the caller's."""
    with np.errstate(over="ignore", invalid="ignore"):
        for c, _, view in terms:
            out += c * view
    if not np.isfinite(out).all():
        for c, _, view in terms:
            c * view  # an overflow raises or warns as the caller's errstate asks


class March:
    """Column-by-column solve of K vec(X) = vec(R), factored once, for the
    closures whose K is block triangular in time: causal, first column to
    last (a three-level stencil's column 0 is the cold start
    X[:, 0] = R[:, 0], copied, not eliminated), and a two-level stencil's
    paper closure, last to first.

    Column n solves the level matrix, tridiag(theta, alpha, zeta) causal or
    M1 paper, once the other terms, shifted slices of the columns already
    solved, are subtracted from R's.  The level matrix is factored by
    linalg._tridiag_lu under band LU's rule on the stencil's rows of K: a
    pivot is at most PIVOT_RTOL * |K|_F, on K scaled to unit magnitude.
    |K|_F comes from the coefficients and the unknown nodes each term reads
    (its view of ones at the unknowns), so no entry of K is built.  The cold
    start's unit rows take no part: they are copied, not eliminated, and
    without them the rule does not change when the stencil is scaled.  A
    failure names K's column first*(nx-1) + k."""

    def __init__(self, s, disc, variant):
        self._geometry = (s, disc, variant)
        self._lead = int(variant == "causal")  # the level matrix's time offset
        rows = disc.nx - 1
        ones = np.zeros((disc.nx + 1, disc.nt + 2))
        ones[1:-1, 1:-1] = 1.0
        first, terms = _shifted_terms(s, disc, variant, ones)
        counts = [(c, float(view.sum())) for c, _, view in terms]
        e = math.frexp(max(abs(c) for c, count in counts if count))[1]
        thresh = linalg.PIVOT_RTOL * math.sqrt(
            sum(count * math.ldexp(c, -e) ** 2 for c, count in counts))
        bands = np.zeros((3, rows))
        bands[0, 1:], bands[1], bands[2, :-1] = (
            (s.theta, s.alpha, s.zeta) if self._lead else (s.epsilon, s.beta, s.delta))
        self._level = linalg._tridiag_lu(bands, e, thresh, first * rows)
        self._steps = None

    def _march(self, shape):
        """(shape, first, x, steps) for R's trailing shape: x the interior of
        a zero-padded node array, and steps, per column n in march order, n
        and the (c, slice of the array) of its off-level terms.  Kept for
        the last shape, so a sweep of solves slices the array once; solves
        share it, one at a time."""
        if self._steps is None or self._steps[0] != shape:
            s, disc, variant = self._geometry
            padded = np.zeros((disc.nx + 1, disc.nt + 2) + shape)
            first, terms = _shifted_terms(s, disc, variant, padded)
            off = [(c, view) for c, m, view in terms if m != self._lead]
            columns = range(first, disc.nt) if self._lead else range(disc.nt - 1, -1, -1)
            self._steps = (shape, first, padded[1:-1, 1:-1],
                           [(n, [(c, view[:, n - first]) for c, view in off]) for n in columns])
        return self._steps

    def solve(self, rhs):
        """X for one (nx-1) x nt R, or the stack of the k solutions of a
        k x (nx-1) x nt stack of them, marched together on a trailing axis,
        each layer bit-identical to its own march.  A column that overflows
        raises NumericalFailureError naming its time level, n + 1."""
        r = np.moveaxis(rhs, 0, -1) if rhs.ndim == 3 else rhs
        _, first, x, steps = self._march(r.shape[2:])
        x[:, :first] = r[:, :first]
        try:
            with np.errstate(over="raise", invalid="raise"):
                for n, off in steps:
                    b = r[:, n]
                    for c, column in off:
                        b = b - c * column
                    x[:, n] = self._level(b)
        except (FloatingPointError, NumericalFailureError) as exc:
            raise NumericalFailureError(
                f"the march overflows at time level {n + 1}: {exc}") from exc
        return np.moveaxis(x, -1, 0).copy() if rhs.ndim == 3 else x.copy()


def stencil_table(s, disc, variant):
    """The operator's entries as one (eq, node, coef) triple, read off the
    stencil's views of an array of vec indices: equation eq is U's entry
    (eq % (nx-1), eq // (nx-1)) and node the vec index of the unknown its
    term reads.  Sorted by equation, in stencil order within one equation."""
    nx, nt = disc.nx, disc.nt
    rows = nx - 1
    index = np.full((nx + 1, nt + 2), -1)  # -1: a known or absent node
    index[1:-1, 1:-1] = np.arange(rows * nt).reshape(nt, rows).T
    first, terms = _shifted_terms(s, disc, variant, index)
    # equations in column-major order, one term per entry of the last axis
    node = np.stack([view.T for _, _, view in terms], axis=-1)
    eq = np.broadcast_to(index[1:-1, 1 + first:-1].T[..., None], node.shape)
    coef = np.broadcast_to([c for c, _, _ in terms], node.shape)
    unknown = node >= 0
    cold = np.arange(first * rows)  # cold start: U[i-1, 0] - known[i, 1] = 0
    return (np.concatenate([cold, eq[unknown]]), np.concatenate([cold, node[unknown]]),
            np.concatenate([np.ones(cold.size), coef[unknown]]))


class StencilSums:
    """The stencil sums of one (scheme, grid, variant), the operator's action
    and M0 (see apply_operator and build_m0), each over the views of its own
    zero-padded node array, laid out once (M0's for the last trailing shape
    of a stack), so a solver's signals reuse them.  Results are fresh.
    action, m0 and residual check their arrays; a solver calls _action and _m0."""

    def __init__(self, s, disc, variant):
        self._geometry, self._disc = (s, disc, variant), disc
        self._action_views, self._m0_views = self._layout((), 1.0), self._layout((), -1.0)

    def _layout(self, shape, sign):
        padded = np.zeros((self._disc.nx + 1, self._disc.nt + 2) + shape)
        first, terms = _shifted_terms(*self._geometry, padded)
        return shape, padded, first, [(sign * c, m, view) for c, m, view in terms]

    def m0(self, known):
        nx, nt = self._disc.nx, self._disc.nt
        known = linalg.as_matrix(known, "known", stack=True)
        if known.shape[-2:] != (nx + 1, nt + 1):
            raise UsageError(f"known node array shape {known.shape} does not match "
                             f"grid nodes {(nx + 1, nt + 1)}")
        return self._m0(known)

    def _m0(self, known):
        nodes = np.moveaxis(known, 0, -1) if known.ndim == 3 else known
        if self._m0_views[0] != nodes.shape[2:]:
            self._m0_views = self._layout(nodes.shape[2:], -1.0)
        _, padded, first, terms = self._m0_views
        padded[:, :-1] = nodes
        padded[1:-1, 1:-1] = 0.0
        # fresh zeros: M0 row-major (np.sum follows memory order), no -0.0
        m0 = np.zeros((self._disc.nx - 1, self._disc.nt) + nodes.shape[2:])
        m0[:, :first] += nodes[1:-1, 1:first + 1]  # the cold start's level 1
        _add_terms(m0[:, first:], terms)
        return np.moveaxis(m0, -1, 0) if known.ndim == 3 else m0

    def action(self, u):
        u = linalg.as_matrix(u, "u")
        shape = (self._disc.nx - 1, self._disc.nt)
        if u.shape != shape:
            raise UsageError(f"field shape {u.shape} does not match {shape}")
        return self._action(u)

    def _action(self, u):
        _, padded, first, terms = self._action_views
        padded[1:-1, 1:-1] = u
        # fresh zeros: the result in U's memory order, any -0.0 made +0.0
        out = np.zeros_like(u)
        out[:, :first] += u[:, :first]  # the cold start's U[:, 0]
        _add_terms(out[:, first:], terms)
        return out

    def residual(self, known, u):
        return self.action(u) - self.m0(known)


def build_m0(s, disc, known, variant="paper"):
    """Right-hand-side matrix carrying initial and boundary data: minus the
    stencil sums over the node array with its unknowns zeroed.  A stack of
    k node arrays gives the stack of their k M0s, each bit-identical to its
    own, summed with the arrays on a trailing axis."""
    return StencilSums(s, disc, variant).m0(known)


def apply_operator(s, disc, u, variant="paper"):
    """Action of the variant's interior operator on a field U: the stencil
    sums over U, zero-padded."""
    return StencilSums(s, disc, variant).action(u)


def residual(s, disc, known, u, variant="paper"):
    """operator(U) - M0; zero exactly when U solves the variant's system."""
    return StencilSums(s, disc, variant).residual(known, u)


def operator_entries(s, disc, variant):
    """(size, row, col, coef) of the variant's vectorized operator: every
    entry of the stencil table at G[row, col], vec stacking columns.
    The global operator and linalg's band storage scatter them; the
    diagnosis's smallest singular value factors them without a dense G."""
    _check_variant(variant)
    size = (disc.nx - 1) * disc.nt
    if size > linalg.MAX_VEC_SIZE:
        raise UsageError(
            f"vectorized operator of size {size} exceeds limit {linalg.MAX_VEC_SIZE}")
    return (size, *stencil_table(s, disc, variant))


def global_operator(s, disc, variant="paper"):
    """Vectorized operator G with G vec(U) = vec(operator(U)), vec stacking
    columns.  For the paper variant with L = 0 this equals
    kron_vec_operator(M1, M2)."""
    size, row, col, coef = operator_entries(s, disc, variant)
    g = np.zeros((size, size))
    g[row, col] = coef
    return g
