"""Stencil catalog and grid-parameter tests."""

import math
import sys

import numpy as np
import pytest

from advectbench.errors import InvalidSchemeError, UsageError
from advectbench.schemes import (BUILTIN_SCHEMES, Discretization, SignalSpec,
                                 builtin_scheme, custom_scheme,
                                 stencil_residual_at)

# Of the four catalogued schemes, three are consistent transport
# discretizations.  The crank-nicolson row is kept exactly as catalogued and
# is NOT consistent (its coefficient sum is -2c/h**2, so it does not
# annihilate constants); it is asserted separately below.
CONSISTENT_SCHEMES = ("leapfrog", "lax", "lax-wendroff")


def disc(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0):
    return Discretization.from_cfl(nx=nx, nt=nt, h=h, sigma=sigma, c=c)


def test_lax_substitution():
    s = builtin_scheme("lax", Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=1.0))
    assert s.as_tuple() == (4.0, 0.0, 0.0, -1.0, -3.0, 0.0, 0.0, 0.0, 0.0)


def test_lax_wendroff_substitution_at_sigma_1():
    s = builtin_scheme("lax-wendroff",
                       Discretization(nx=4, nt=3, h=1.0, tau=1.0, c=1.0))
    assert s.as_tuple() == (1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0)


def test_leapfrog_substitution():
    s = builtin_scheme("leapfrog",
                       Discretization(nx=4, nt=3, h=1.0, tau=0.5, c=1.0))
    assert s.as_tuple() == (1.0, 0.0, -1.0, 0.5, -0.5, 0.0, 0.0, 0.0, 0.0)


def test_crank_nicolson_as_catalogued():
    d = Discretization(nx=4, nt=3, h=2.0, tau=0.5, c=1.0)
    s = builtin_scheme("crank-nicolson", d)
    w = d.c / d.h ** 2
    assert s.alpha == 1.0 / d.tau + w
    assert s.beta == -1.0 / d.tau + w
    assert s.delta == s.epsilon == s.eta == s.theta == -w
    assert s.is_three_level and s.has_corner_terms


def test_scheme_name_case_insensitive():
    d = disc()
    assert builtin_scheme("LAX", d) == builtin_scheme("lax", d)


def test_unknown_scheme_lists_valid_names():
    with pytest.raises(UsageError) as info:
        builtin_scheme("upwind", disc())
    for name in BUILTIN_SCHEMES:
        assert name in str(info.value)


def test_custom_scheme_valid_and_invalid():
    s = custom_scheme((1, -1, 0, 0, 0, 0, 0, 0, 0))
    assert s.alpha == 1.0 and s.beta == -1.0
    with pytest.raises(InvalidSchemeError):
        custom_scheme((0, 1, 0, 1, 1, 0, 0, 0, 0))
    with pytest.raises(UsageError):
        custom_scheme((1.0,) * 8)


def test_custom_scheme_roundtrips_builtin_lax():
    d = Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=1.0)
    assert custom_scheme(builtin_scheme("lax", d).as_tuple()) == builtin_scheme("lax", d)


def test_stencil_residual_constants_lax_and_leapfrog():
    u = lambda l, m: 1.0
    lax = builtin_scheme("lax", Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=1.0))
    assert stencil_residual_at(lax, u, 2, 1) == 0.0
    lf = builtin_scheme("leapfrog", Discretization(nx=4, nt=3, h=1.0, tau=0.5, c=1.0))
    assert stencil_residual_at(lf, u, 2, 1) == 0.0


def test_stencil_residual_lax_sigma_1_on_exact_sinusoid():
    d = Discretization(nx=20, nt=20, h=1.0, tau=1.0, c=1.0)
    s = builtin_scheme("lax", d)
    lam = 9.0
    u = lambda l, m: math.cos(2.0 * math.pi / lam * (l * d.h - d.c * m * d.tau))
    for i, n in ((1, 1), (7, 3), (18, 19)):
        assert abs(stencil_residual_at(s, u, i, n)) <= 1e-12


def test_consistent_schemes_annihilate_constants():
    d = disc()
    const = 3.7
    u = lambda l, m: const
    for name in CONSISTENT_SCHEMES:
        s = builtin_scheme(name, d)
        bound = 1e-13 * abs(const) * max(abs(v) for v in s.as_tuple())
        assert abs(stencil_residual_at(s, u, 5, 5)) <= bound, name


def test_crank_nicolson_does_not_annihilate_constants():
    d = disc()
    s = builtin_scheme("crank-nicolson", d)
    # the catalogued row sums to -2c/h**2 exactly, a documented oddity
    res = stencil_residual_at(s, lambda l, m: 1.0, 5, 5)
    assert res == pytest.approx(-2.0 * d.c / d.h ** 2, rel=1e-14)


def test_lax_coefficients_scale_as_inverse_time_at_fixed_sigma():
    base = Discretization(nx=4, nt=3, h=1.0, tau=0.5, c=1.0)
    for k in (2.0, 5.0, 0.25):
        scaled = Discretization(nx=4, nt=3, h=k * base.h, tau=k * base.tau, c=1.0)
        s0 = np.array(builtin_scheme("lax", base).as_tuple())
        s1 = np.array(builtin_scheme("lax", scaled).as_tuple())
        assert np.allclose(s1, s0 / k, rtol=1e-14, atol=0)


def test_discretization_invariants():
    with pytest.raises(UsageError):
        Discretization(nx=2, nt=3, h=1.0, tau=1.0, c=1.0)
    with pytest.raises(UsageError):
        Discretization(nx=4, nt=1, h=1.0, tau=1.0, c=1.0)
    with pytest.raises(UsageError):
        Discretization(nx=4, nt=3, h=-1.0, tau=1.0, c=1.0)
    with pytest.raises(UsageError):
        Discretization(nx=4, nt=3, h=1.0, tau=0.0, c=1.0)
    with pytest.raises(UsageError):
        Discretization(nx=4, nt=3, h=1.0, tau=1.0, c=0.0)
    d = Discretization(nx=4, nt=3, h=0.5, tau=0.25, c=2.0)
    assert d.sigma == d.c * d.tau / d.h


@pytest.mark.parametrize("nx, nt", [(6, None), (None, 6)])
def test_grid_numpy_cannot_size_is_refused(nx, nt):
    """The largest grid whose float64 M1 or M2 numpy can size is accepted
    (no array is built here), one step more is refused."""
    edge = math.isqrt(sys.maxsize // 8)
    make = lambda n: Discretization(nx=nx or n, nt=nt or n, h=1.0, tau=1.0, c=1.0)
    make(edge)
    with pytest.raises(UsageError, match="too large: numpy cannot size its arrays"):
        make(edge + 1)


def test_from_cfl_roundtrip():
    d = Discretization.from_cfl(nx=10, nt=10, h=0.5, sigma=0.8, c=2.0)
    assert d.sigma == pytest.approx(0.8, rel=1e-15)
    with pytest.raises(UsageError):
        Discretization.from_cfl(nx=10, nt=10, h=0.5, sigma=0.0, c=2.0)


@pytest.mark.parametrize("h, sigma, c", [(0.5, 0.8, -2.0), (1e10, 1e300, 1.0),
                                          (1e-300, 1e-300, 1.0)])
def test_from_cfl_names_sigma_h_and_c_when_tau_is_unusable(h, sigma, c):
    """tau = sigma*h/c is negative, overflows or underflows to 0."""
    with pytest.raises(UsageError, match=r"^tau = sigma\*h/c must be positive and "
                       r"finite, so sigma must have the sign of c; sigma=.* h=.* c="):
        Discretization.from_cfl(nx=10, nt=10, h=h, sigma=sigma, c=c)


def test_from_cfl_checks_h_and_c_before_dividing():
    with pytest.raises(UsageError, match="c must be nonzero"):
        Discretization.from_cfl(nx=10, nt=10, h=0.5, sigma=0.8, c=0.0)
    with pytest.raises(UsageError, match="h must be positive"):
        Discretization.from_cfl(nx=10, nt=10, h=-0.5, sigma=0.8, c=2.0)
    d = Discretization.from_cfl(nx=10, nt=10, h=0.5, sigma=-0.8, c=-2.0)
    assert d.tau == 0.2


def test_signal_spec_constructors():
    d = disc(h=0.5)
    s = SignalSpec.from_cells_per_wavelength(9.8, d)
    assert s.wavelength == 9.8 * 0.5
    t = SignalSpec.from_wavelength(4.9, d)
    assert t.n_lambda == pytest.approx(9.8, rel=1e-15)
    with pytest.raises(UsageError):
        SignalSpec(wavelength=-1.0, n_lambda=1.0)
