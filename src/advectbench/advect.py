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


def exact_provider(disc, signal):
    """Known-value provider sampling the exact solution at grid nodes."""
    def sample(i, m):
        return exact_solution(i * disc.h, m * disc.tau, disc.c, signal.wavelength)
    return sample


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


def sample_exact(disc, signal):
    """Exact solution sampled over the interior grid as a FieldMatrix."""
    x = np.arange(1, disc.nx)[:, None] * disc.h
    t = np.arange(1, disc.nt + 1)[None, :] * disc.tau
    values = np.cos(2.0 * np.pi / signal.wavelength * (x - disc.c * t))
    return FieldMatrix(values=values, disc=disc)


def time_step_simulate(s, disc, known):
    """March the stencil causally and return the interior field.

    Level n+1 solves the stencil centered at n for all interior i at once:
    an explicit divide by alpha when zeta = theta = 0, otherwise one
    tridiagonal solve per step with bands (theta, alpha, zeta).  Level 0,
    the boundaries, and level 1 for three-level stencils come from the
    known-value provider.
    """
    nx, nt = disc.nx, disc.nt
    coef_scale = max(abs(v) for v in s.as_tuple())
    if not s.is_implicit and abs(s.alpha) <= 1e-14 * coef_scale:
        raise NumericalFailureError(
            "explicit update is degenerate: |alpha| is negligible")

    # levels[m] holds u_i^m for i = 0..nx (boundaries included)
    levels = {0: np.array([assembly.sample_known(known, i, 0) for i in range(nx + 1)])}
    start = 0
    if s.is_three_level:
        levels[1] = np.array([assembly.sample_known(known, i, 1) for i in range(nx + 1)])
        start = 1

    out = np.zeros((nx - 1, nt))
    if s.is_three_level:
        out[:, 0] = levels[1][1:nx]
    for n in range(start, nt):
        cur = levels[n]
        rhs = -(s.beta * cur[1:nx] + s.delta * cur[2:] + s.epsilon * cur[:nx - 1])
        if s.is_three_level:
            prev = levels[n - 1]
            rhs -= (s.gamma * prev[1:nx] + s.eta * prev[:nx - 1]
                    + s.vartheta * prev[2:])
        nxt = np.empty(nx + 1)
        nxt[0] = assembly.sample_known(known, 0, n + 1)
        nxt[nx] = assembly.sample_known(known, nx, n + 1)
        if s.is_implicit:
            rhs[0] -= s.theta * nxt[0]
            rhs[-1] -= s.zeta * nxt[nx]
            m = nx - 1
            nxt[1:nx] = linalg.tridiag_solve(np.full(m - 1, s.theta),
                                             np.full(m, s.alpha),
                                             np.full(m - 1, s.zeta), rhs)
        else:
            nxt[1:nx] = rhs / s.alpha
        levels[n + 1] = nxt
        del levels[n - 1 if s.is_three_level else n]
        out[:, n] = nxt[1:nx]
    return FieldMatrix(values=out, disc=disc)


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
