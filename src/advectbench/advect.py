"""Exact-solution sampling, direct time stepping and error norms.

This is the ground-truth side of the workbench: the advected sinusoid, a
simulator that marches any solvable stencil (explicit or implicit), and the
error statistics reported by the sweeps.  Sampling and the march take one
signal or a stack of them: a sweep samples all of its signals into one
k x (nx+1) x (nt+1) array and marches them together, level by level, each
signal's field bit-identical to its own march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly, linalg
from .errors import NumericalFailureError, UsageError
from .schemes import Discretization, SignalSpec


@dataclass(frozen=True)
class FieldMatrix:
    """(nx-1) x nt field over the interior grid i = 1..nx-1, n = 1..nt."""

    values: np.ndarray
    disc: Discretization

    def __post_init__(self):
        v = linalg.as_matrix(self.values, "field")
        expected = (self.disc.nx - 1, self.disc.nt)
        if v.shape != expected:
            raise UsageError(f"field shape {v.shape} does not match grid {expected}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ErrorSummary:
    """Norms of an error field: plain Frobenius, grid-weighted L2
    (sqrt(h*tau) * Frobenius), its square, and the max entry magnitude."""

    frob: float
    grid_l2: float
    grid_l2_squared: float
    max_abs: float


def sample_nodes(disc, signal):
    """Exact solution on every grid node, i = 0..nx by m = 0..nt: the known
    data of the simulator and of M0.  ``signal`` is one SignalSpec, or a
    sequence of k of them sampled together into a k x (nx+1) x (nt+1) stack
    whose node arrays are each bit-identical to one signal's.  Raises
    UsageError when a phase overflows, naming the first such signal."""
    single = isinstance(signal, SignalSpec)
    signals = [signal] if single else list(signal)
    x = np.arange(disc.nx + 1)[:, None] * disc.h
    t = np.arange(disc.nt + 1)[None, :] * disc.tau
    with np.errstate(over="ignore", invalid="ignore"):
        wavenumbers = np.array([2.0 * np.pi / sig.wavelength for sig in signals])
        phase = wavenumbers[:, None, None] * (x - disc.c * t)
    finite = np.isfinite(phase).all(axis=(1, 2))
    if not finite.all():
        bad = signals[int(np.argmin(finite))]
        raise UsageError(f"the phase 2*pi/wavelength*(x - c*t) of wavelength "
                         f"{bad.wavelength:g} exceeds the floating-point range")
    nodes = np.cos(phase, out=phase)
    return nodes[0] if single else nodes


def sample_exact(disc, signal):
    """Exact solution over the interior grid as a FieldMatrix."""
    return FieldMatrix(values=sample_nodes(disc, signal)[1:-1, 1:], disc=disc)


def time_step_simulate(s, disc, known):
    """March the stencil causally and return the interior field.

    ``known`` is a node array as ``sample_nodes`` returns it, or a stack of
    k of them, which are marched together; a node array is a stack of one.
    Level n+1 solves the stencil centered at n for all interior i of all k
    arrays at once, with the level matrix tridiag(theta, alpha, zeta),
    factored once per march (a division by alpha when zeta = theta = 0),
    whose solve takes the k right-hand sides as the columns of one matrix.
    Every operation acts on each array as it would on that array alone, so
    each field is bit-identical to its own march.  The march overwrites the
    interior of a copy of ``known``, so only level 0, the boundaries and,
    for three-level stencils, level 1 are read from it.  A level that
    overflows in any array raises ``NumericalFailureError`` naming it.
    Returns a FieldMatrix, or for a stack the list of the k fields in stack
    order.
    """
    nx, nt = disc.nx, disc.nt
    coef_scale = max(abs(v) for v in s.as_tuple())
    if not s.is_implicit and abs(s.alpha) <= linalg.PIVOT_RTOL * coef_scale:
        raise NumericalFailureError(
            "explicit update is degenerate: |alpha| is negligible")

    known = assembly.check_known(known, disc, stack=True)
    u = np.array(known, ndmin=3)  # a copy; a node array is a stack of one
    solve = linalg.tridiag_factor(np.full(nx - 2, s.theta), np.full(nx - 1, s.alpha),
                                  np.full(nx - 2, s.zeta))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1 if s.is_three_level else 0, nt):
                rhs = -(s.beta * u[:, 1:nx, n] + s.delta * u[:, 2:, n]
                        + s.epsilon * u[:, :nx - 1, n])
                if s.is_three_level:
                    rhs -= (s.gamma * u[:, 1:nx, n - 1] + s.eta * u[:, :nx - 1, n - 1]
                            + s.vartheta * u[:, 2:, n - 1])
                rhs[:, 0] -= s.theta * u[:, 0, n + 1]
                rhs[:, -1] -= s.zeta * u[:, nx, n + 1]
                u[:, 1:nx, n + 1] = solve(rhs.T).T
    except (FloatingPointError, NumericalFailureError) as exc:
        raise NumericalFailureError(
            f"the march overflows at time level {n + 1}: {exc}") from exc
    fields = [FieldMatrix(values=v, disc=disc) for v in u[:, 1:nx, 1:]]
    return fields if known.ndim == 3 else fields[0]


def error_matrix(u, u_exact):
    """E = U - U_exact over matching grids."""
    if u.disc != u_exact.disc:
        raise UsageError("fields live on different discretizations")
    return FieldMatrix(values=u.values - u_exact.values, disc=u.disc)


def error_summary(e):
    """All four error statistics of an error field."""
    if not isinstance(e, FieldMatrix):
        raise UsageError("error_summary needs a FieldMatrix (grid weights)")
    values = e.values
    frob = linalg.frobenius_norm(values)
    grid_l2 = math.sqrt(e.disc.h * e.disc.tau) * frob
    return ErrorSummary(frob=frob,
                        grid_l2=grid_l2,
                        grid_l2_squared=grid_l2 * grid_l2,
                        max_abs=float(np.max(np.abs(values))) if values.size else 0.0)
