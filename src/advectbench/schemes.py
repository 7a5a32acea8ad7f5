"""Nine-coefficient stencil family for the 1-D linear transport equation.

A scheme couples u at the nine grid nodes (i, i+-1) x (n, n+-1):

    alpha*u_i^{n+1} + beta*u_i^n + gamma*u_i^{n-1}
      + delta*u_{i+1}^n + epsilon*u_{i-1}^n
      + zeta*u_{i+1}^{n+1} + eta*u_{i-1}^{n-1}
      + theta*u_{i-1}^{n+1} + vartheta*u_{i+1}^{n-1} = 0

The built-in catalog covers leapfrog, Lax, Lax-Wendroff and Crank-Nicolson.
Note: the Crank-Nicolson coefficients are kept exactly as catalogued (c/h**2
space terms and an eta backward coupling).  They are dimensionally odd for a
transport discretization and the stencil does not annihilate constants; use
custom_scheme to supply corrected coefficients if that matters for your use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .errors import InvalidSchemeError, UsageError

COEFF_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon",
               "zeta", "eta", "theta", "vartheta")

BUILTIN_SCHEMES = ("leapfrog", "lax", "lax-wendroff", "crank-nicolson")


@dataclass(frozen=True)
class SchemeCoefficients:
    """The nine stencil weights, stored as plain reals after substitution."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    epsilon: float = 0.0
    zeta: float = 0.0
    eta: float = 0.0
    theta: float = 0.0
    vartheta: float = 0.0

    def __post_init__(self):
        for name in COEFF_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise UsageError(f"coefficient {name} is not finite: {v!r}")
        if self.alpha == 0.0 and self.zeta == 0.0 and self.theta == 0.0:
            raise InvalidSchemeError(
                "alpha, zeta and theta are all zero: the stencil has no "
                "u^{n+1} level and cannot advance in time")

    def as_tuple(self):
        return tuple(getattr(self, name) for name in COEFF_NAMES)

    @property
    def is_three_level(self):
        """True when the stencil reaches back to time level n-1."""
        return self.gamma != 0.0 or self.eta != 0.0 or self.vartheta != 0.0

    @property
    def has_corner_terms(self):
        """True when the diagonal-shift operator L is nonzero."""
        return (self.zeta != 0.0 or self.eta != 0.0
                or self.theta != 0.0 or self.vartheta != 0.0)


@dataclass(frozen=True)
class Discretization:
    """Grid geometry: nx space steps of size h, nt time steps of size tau,
    advection speed c.  The CFL number sigma = c*tau/h is derived."""

    nx: int
    nt: int
    h: float
    tau: float
    c: float

    def __post_init__(self):
        if self.nx < 3:
            raise UsageError(f"nx must be >= 3, got {self.nx}")
        if self.nt < 2:
            raise UsageError(f"nt must be >= 2, got {self.nt}")
        # every command builds the (nx+1) x (nt+1) node array, M1 or M2 in
        # float64, and numpy sizes no array of more than sys.maxsize bytes
        if 8 * max((self.nx + 1) * (self.nt + 1), self.nx ** 2, self.nt ** 2) > sys.maxsize:
            raise UsageError(f"an nx={self.nx} by nt={self.nt} grid is too large: "
                             "numpy cannot size its arrays")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise UsageError(f"h must be positive, got {self.h}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise UsageError(f"tau must be positive, got {self.tau}")
        if self.c == 0.0 or not math.isfinite(self.c):
            raise UsageError(f"c must be nonzero, got {self.c}")

    @property
    def sigma(self):
        return self.c * self.tau / self.h

    @classmethod
    def from_cfl(cls, nx, nt, h, sigma, c):
        """Construct from the CFL number instead of the time step
        tau = sigma*h/c."""
        if sigma == 0.0 or not math.isfinite(sigma):
            raise UsageError(f"sigma must be nonzero, got {sigma}")
        unit = cls(nx=nx, nt=nt, h=h, tau=1.0, c=c)  # checks all but tau
        tau = sigma * h / c
        if not (tau > 0.0 and math.isfinite(tau)):
            raise UsageError(
                "tau = sigma*h/c must be positive and finite, so sigma must have "
                f"the sign of c; sigma={sigma:g}, h={h:g} and c={c:g} give {tau:g}")
        return replace(unit, tau=tau)


@dataclass(frozen=True)
class SignalSpec:
    """Sinusoidal signal described by its wavelength and the cells-per-
    wavelength count n_lambda = wavelength / h of the bound discretization."""

    wavelength: float
    n_lambda: float

    def __post_init__(self):
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise UsageError(f"wavelength must be positive, got {self.wavelength}")
        if not (self.n_lambda > 0.0 and math.isfinite(self.n_lambda)):
            raise UsageError(f"n_lambda must be positive, got {self.n_lambda}")

    @classmethod
    def from_cells_per_wavelength(cls, n_lambda, disc):
        return cls(wavelength=n_lambda * disc.h, n_lambda=n_lambda)

    @classmethod
    def from_wavelength(cls, wavelength, disc):
        return cls(wavelength=wavelength, n_lambda=wavelength / disc.h)


def builtin_scheme(name, disc):
    """Catalogued coefficients evaluated at the discretization's c, h, tau."""
    key = str(name).strip().lower()
    c, h, tau = disc.c, disc.h, disc.tau
    sigma = disc.sigma
    if key == "leapfrog":
        return SchemeCoefficients(alpha=1.0 / (2.0 * tau),
                                  gamma=-1.0 / (2.0 * tau),
                                  delta=c / (2.0 * h),
                                  epsilon=-c / (2.0 * h))
    if key == "lax":
        return SchemeCoefficients(alpha=1.0 / tau,
                                  delta=-1.0 / (2.0 * tau) + c / (2.0 * h),
                                  epsilon=-1.0 / (2.0 * tau) - c / (2.0 * h))
    if key == "lax-wendroff":
        return SchemeCoefficients(alpha=1.0 / tau,
                                  beta=-1.0 / tau + c * c * tau / (h * h),
                                  delta=(1.0 - sigma) * c / (2.0 * h),
                                  epsilon=-(1.0 + sigma) * c / (2.0 * h))
    if key == "crank-nicolson":
        w = c / (h * h)
        return SchemeCoefficients(alpha=1.0 / tau + w,
                                  beta=-1.0 / tau + w,
                                  delta=-w,
                                  epsilon=-w,
                                  eta=-w,
                                  theta=-w)
    raise UsageError(
        f"unknown scheme {name!r}; valid names: {', '.join(BUILTIN_SCHEMES)}")


def custom_scheme(raw):
    """SchemeCoefficients from nine raw values in catalog order
    (alpha, beta, gamma, delta, epsilon, zeta, eta, theta, vartheta)."""
    vals = [float(v) for v in raw]
    if len(vals) != 9:
        raise UsageError(f"expected 9 coefficients, got {len(vals)}")
    return SchemeCoefficients(*vals)


def stencil_nodes(s, i, n):
    """The nine (coefficient, space index, time index) stencil terms at cell
    (i, n), including zero-weight ones."""
    return [
        (s.alpha, i, n + 1),
        (s.beta, i, n),
        (s.gamma, i, n - 1),
        (s.delta, i + 1, n),
        (s.epsilon, i - 1, n),
        (s.zeta, i + 1, n + 1),
        (s.eta, i - 1, n - 1),
        (s.theta, i - 1, n + 1),
        (s.vartheta, i + 1, n - 1),
    ]


def stencil_residual_at(s, u, i, n):
    """Left-hand side of the stencil relation at cell (i, n); u is a sampler
    u(l, m) defined on the nine stencil nodes."""
    return sum(coef * u(l, m) for coef, l, m in stencil_nodes(s, i, n)
               if coef != 0.0)
