"""Exact-solution sampling, direct time stepping and error norms.

This is the ground-truth side of the workbench: the advected sinusoid, a
simulator that marches any solvable stencil (explicit or implicit), and the
error statistics reported by the sweeps.  The simulator is causal kron's
march (assembly.March), run on M0 of the known data.  Sampling and the
march take one signal or a stack of them: a sweep samples all of its
signals into one k x (nx+1) x (nt+1) array and marches them together,
each signal's field bit-identical to its own march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly, linalg
from .errors import UsageError
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
    signals = None if single else list(signal)
    x = np.arange(disc.nx + 1)[:, None] * disc.h
    t = np.arange(disc.nt + 1)[None, :] * disc.tau
    with np.errstate(over="ignore", invalid="ignore"):
        wavenumber = (2.0 * np.pi / signal.wavelength if single else
                      np.array([2.0 * np.pi / sig.wavelength for sig in signals])[:, None, None])
        phase = wavenumber * (x - disc.c * t)
    if not np.isfinite(phase).all():
        bad = signal if single else signals[np.isfinite(phase).all(axis=(1, 2)).argmin()]
        raise UsageError(f"the phase 2*pi/wavelength*(x - c*t) of wavelength "
                         f"{bad.wavelength:g} exceeds the floating-point range")
    return np.cos(phase, out=phase)


def sample_exact(disc, signal):
    """Exact solution over the interior grid as a FieldMatrix."""
    return FieldMatrix(values=sample_nodes(disc, signal)[1:-1, 1:], disc=disc)


def time_step_simulate(s, disc, known):
    """March the stencil causally and return the interior field: the
    causal closure's solve (assembly.March) of M0 of ``known``.

    ``known`` is a node array as ``sample_nodes`` returns it, or a stack of
    k of them, which are marched together, each field bit-identical to its
    own march.  Only level 0, the boundaries and, for three-level stencils,
    level 1 are read from it.  A singular level matrix raises
    SingularSystemError, and a level that overflows in any array
    NumericalFailureError naming it.  Returns a FieldMatrix, or for a stack
    the list of the k fields in stack order, whose values are the layers of
    one k x (nx-1) x nt array.
    """
    u = _simulate(s, disc, known)
    fields = [FieldMatrix(values=v, disc=disc) for v in u.reshape(-1, *u.shape[-2:])]
    return fields if u.ndim == 3 else fields[0]


def _simulate(s, disc, known):
    """time_step_simulate's march, its fields unwrapped: the (nx-1) x nt
    array, or for a stack the one k x (nx-1) x nt array of the k fields."""
    m0 = assembly.build_m0(s, disc, known, "causal")
    return assembly.March(s, disc, "causal").solve(m0)


def error_matrix(u, u_exact):
    """E = U - U_exact over matching grids."""
    if u.disc != u_exact.disc:
        raise UsageError("fields live on different discretizations")
    return FieldMatrix(values=u.values - u_exact.values, disc=u.disc)


def error_summary(e):
    """All four error statistics of an error field, which its FieldMatrix checked."""
    if not isinstance(e, FieldMatrix):
        raise UsageError("error_summary needs a FieldMatrix (grid weights)")
    values = e.values
    return ErrorSummary(*_grid_norms(linalg._frobenius(values), e.disc),
                        max_abs=float(np.max(np.abs(values))) if values.size else 0.0)


def _grid_norms(frob, disc):
    """(frob, grid_l2, grid_l2_squared) of a field of Frobenius norm frob."""
    grid_l2 = math.sqrt(disc.h * disc.tau) * frob
    return frob, grid_l2, grid_l2 * grid_l2
