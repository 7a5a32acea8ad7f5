"""Exact-solution sampling, direct time stepping and error norms.

This is the ground-truth side of the workbench: the advected sinusoid, a
simulator that marches any solvable stencil (explicit or implicit), and the
error statistics reported by the sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly, linalg
from .errors import NumericalFailureError, UsageError
from .schemes import Discretization


def exact_solution(x, t, c, wavelength):
    """Advected sinusoid cos(2*pi/wavelength * (x - c*t))."""
    if not wavelength > 0.0:
        raise UsageError(f"wavelength must be positive, got {wavelength}")
    return math.cos(2.0 * math.pi / wavelength * (x - c * t))


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
    data of the simulator and of M0."""
    x = np.arange(disc.nx + 1)[:, None] * disc.h
    t = np.arange(disc.nt + 1)[None, :] * disc.tau
    return np.cos(2.0 * np.pi / signal.wavelength * (x - disc.c * t))


def sample_exact(disc, signal):
    """Exact solution over the interior grid as a FieldMatrix."""
    return FieldMatrix(values=sample_nodes(disc, signal)[1:-1, 1:], disc=disc)


def time_step_simulate(s, disc, known):
    """March the stencil causally and return the interior field.

    ``known`` is a node array as ``sample_nodes`` returns it.  Level n+1
    solves the stencil centered at n for all interior i at once: an explicit
    divide by alpha when zeta = theta = 0, otherwise one tridiagonal solve
    per step with bands (theta, alpha, zeta).  The march overwrites the
    interior of a copy of ``known``, so only level 0, the boundaries and,
    for three-level stencils, level 1 are read from it.
    """
    nx, nt = disc.nx, disc.nt
    coef_scale = max(abs(v) for v in s.as_tuple())
    if not s.is_implicit and abs(s.alpha) <= 1e-14 * coef_scale:
        raise NumericalFailureError(
            "explicit update is degenerate: |alpha| is negligible")

    u = assembly.check_known(known, disc).copy()
    for n in range(1 if s.is_three_level else 0, nt):
        rhs = -(s.beta * u[1:nx, n] + s.delta * u[2:, n] + s.epsilon * u[:nx - 1, n])
        if s.is_three_level:
            rhs -= (s.gamma * u[1:nx, n - 1] + s.eta * u[:nx - 1, n - 1]
                    + s.vartheta * u[2:, n - 1])
        if s.is_implicit:
            rhs[0] -= s.theta * u[0, n + 1]
            rhs[-1] -= s.zeta * u[nx, n + 1]
            m = nx - 1
            u[1:nx, n + 1] = linalg.tridiag_solve(np.full(m - 1, s.theta),
                                                  np.full(m, s.alpha),
                                                  np.full(m - 1, s.zeta), rhs)
        else:
            u[1:nx, n + 1] = rhs / s.alpha
    return FieldMatrix(values=u[1:nx, 1:], disc=disc)


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
