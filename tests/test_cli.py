"""Command-line interface tests: exit codes, CSV determinism, config files."""

import math
import re
import warnings

import numpy as np
import pytest

from advectbench import advect, assembly, cli, linalg, sylvester
from advectbench.errors import SingularSystemError
from advectbench.schemes import Discretization, SignalSpec, builtin_scheme, custom_scheme


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ simulate


def test_simulate_sigma_1_exactness(capsys):
    code, out, _ = run(capsys, "simulate", "--scheme", "lax", "--nx", "20",
                       "--nt", "20", "--sigma", "1", "--n-lambda", "10")
    assert code == 0
    grid_l2 = float(out.split("grid_l2=")[1].split()[0])
    assert grid_l2 <= 1e-11


def test_simulate_missing_scheme_is_usage_error(capsys):
    code, _, err = run(capsys, "simulate")
    assert code == 1
    assert "--scheme" in err


def test_simulate_matches_library_pipeline(capsys):
    code, out, _ = run(capsys, "simulate", "--scheme", "lax",
                       "--sigma", "0.5", "--n-lambda", "10")
    assert code == 0
    d = Discretization.from_cfl(nx=20, nt=20, h=1.0, sigma=0.5, c=1.0)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    s = builtin_scheme("lax", d)
    u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
    want = advect.error_summary(
        advect.error_matrix(u, advect.sample_exact(d, signal))).grid_l2
    got = float(out.split("grid_l2=")[1].split()[0])
    assert got == want  # repr round-trip: exact equality


def test_simulate_writes_field_and_error_csv(tmp_path, capsys):
    out_csv = tmp_path / "u.csv"
    code, _, _ = run(capsys, "simulate", "--scheme", "lax",
                     "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists() and (tmp_path / "u_error.csv").exists()
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 20  # header + 19 interior rows
    # round-trip: values re-read equal the library field bit for bit
    d = Discretization.from_cfl(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    u = advect.time_step_simulate(builtin_scheme("lax", d), d,
                                  advect.sample_nodes(d, signal))
    back = np.array([[float(v) for v in line.split(",")[1:]]
                     for line in lines[1:]])
    assert np.array_equal(back, u.values)


def test_mutually_exclusive_flags(capsys):
    assert run(capsys, "simulate", "--scheme", "lax", "--sigma", "0.5",
               "--tau", "0.5")[0] == 1
    assert run(capsys, "simulate", "--scheme", "lax", "--n-lambda", "9",
               "--lambda", "9")[0] == 1
    assert run(capsys, "simulate", "--scheme", "lax",
               "--coeffs", "1,0,0,0,0,0,0,0,0")[0] == 1


def test_unknown_command_and_no_command(capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys)[0] == 1


def test_custom_coeffs_accepted(capsys):
    code, out, _ = run(capsys, "simulate", "--coeffs",
                       "1.25,-1.25,0,0.5,-0.5,0,0,0,0")
    assert code == 0 and "grid_l2=" in out


def test_non_numeric_coeffs_is_usage_error(capsys):
    code, _, err = run(capsys, "simulate", "--coeffs", "1,x,0,0,0,0,0,0,0")
    assert code == 1 and err.startswith("error: bad --coeffs value")


@pytest.mark.parametrize("coeffs", ["1,1e10,0,0,0,0,0,0,0",      # explicit
                                    "1,1e10,0,0,0,0.1,0,0.1,0"])  # implicit
def test_overflowing_march_is_numerical_failure(capsys, coeffs):
    code, out, err = run(capsys, "simulate", "--coeffs", coeffs,
                         "--nx", "6", "--nt", "40")
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: the march overflows at time level 31")


@pytest.mark.parametrize("command", ["simulate", "solve-error"])
@pytest.mark.parametrize("signal", [("--n-lambda", "1e-320"),
                                    ("--h", "1e300", "--lambda", "1e-10")])
def test_overflowing_phase_names_the_wavelength(capsys, command, signal):
    """2*pi/wavelength*(x - c*t) overflows: a usage error naming the
    wavelength, not warnings and a complaint about the node array."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--scheme", "lax", "--nx", "6",
                             "--nt", "6", *signal)
    assert (code, out) == (1, "")
    assert err.startswith("error: the phase ")
    assert "of wavelength " in err


@pytest.mark.parametrize("argv", [("solve-error", "--c", "-1", "--method", "kron"),
                                  ("simulate", "--sigma", "1e300", "--h", "1e10")])
def test_unusable_derived_time_step_names_sigma_h_and_c(capsys, argv):
    code, out, err = run(capsys, argv[0], "--scheme", "lax", "--nx", "6", "--nt", "6",
                         *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: tau = sigma*h/c must be positive and finite, so "
                          "sigma must have the sign of c; sigma=")
    code, out, err = run(capsys, "simulate", "--scheme", "lax", "--nx", "6", "--nt", "6",
                         "--sigma", "-0.8", "--c", "-1")
    assert (code, err) == (0, "")


def test_implicit_march_overflow_names_its_level(capsys):
    """alpha = 1, beta = zeta = 1e10 at nx = 31: the level matrix
    tridiag(0, 1, 1e10) passes K's pivot rule, but its solve grows 1e10 a
    row, so level 1 reaches about 1e300 and level 2 overflows.  Causal kron
    marches the same recurrence and names the same level."""
    stencil = ("--coeffs", "1,1e10,0,0,0,1e10,0,0,0", "--nx", "31", "--nt", "6")
    for argv in (("simulate",), ("solve-error", "--variant", "causal", "--method", "kron")):
        code, out, err = run(capsys, argv[0], *stencil, *argv[1:])
        assert (code, out) == (2, "")
        assert err == ("numerical failure: the march overflows at time level 2: "
                       "overflow encountered in multiply\n")


@pytest.mark.parametrize("coeffs, column", [
    ("1e-300,1,1,0,0,0,0,0,0", 5),         # explicit, three-level: after the cold start
    ("1e-300,1,0,0,0,1e-300,0,0,0", 0)])   # implicit, two-level
def test_simulate_and_causal_kron_give_one_verdict(capsys, coeffs, column):
    """The simulator is causal kron's march: a level matrix whose pivot is
    below K's threshold is one singular verdict, at one column of K."""
    stencil = ("--coeffs", coeffs, "--nx", "6", "--nt", "6")
    errs = []
    for argv in (("simulate",), ("solve-error", "--variant", "causal", "--method", "kron")):
        code, out, err = run(capsys, argv[0], *stencil, *argv[1:])
        assert (code, out) == (3, "")
        assert re.fullmatch(rf"singular system: pivot \S+ below \S+ at column {column}\n", err)
        errs.append(err)
    assert errs[0] == errs[1]


@pytest.mark.parametrize("stencil", [
    ("--coeffs", "5e13,0,-5e13,4e13,-4e13,0,0,0,0", "--nx", "8", "--nt", "8"),
    ("--coeffs", "5e-15,0,-5e-15,4e-15,-4e-15,0,0,0,0", "--nx", "8", "--nt", "8"),
    ("--scheme", "leapfrog", "--nx", "100", "--nt", "100", "--h", "1e12"),
    ("--scheme", "crank-nicolson", "--nx", "100", "--nt", "100", "--h", "1e12"),
])
def test_scaled_three_level_stencil_marches_in_simulate_and_causal_kron(capsys, stencil):
    """Three-level stencils far above and below unit scale: the cold
    start's unit rows of K are copied, not eliminated, so they take no
    pivot and no part in the pivot rule, and causal kron agrees with
    simulate as at unit scale."""
    code, sim_out, err = run(capsys, "simulate", *stencil)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "solve-error", *stencil, "--variant", "causal",
                         "--method", "kron")
    assert (code, err) == (0, "")
    sim = float(sim_out.split("frob=")[1].split()[0])
    mtx = float(out.split("frob=")[1].split()[0])
    assert abs(sim - mtx) <= 1e-14 * sim


def test_sweep_fails_in_order_set_up_march_solves(capsys, monkeypatch):
    """A sweep sets up its solver, marches all of its signals at once, then
    solves them one by one; the first failing step ends it."""
    calls = []
    march, solve = advect.time_step_simulate, sylvester.ErrorEquationSolver.solve
    monkeypatch.setattr(advect, "time_step_simulate",
                        lambda *args: calls.append("march") or march(*args))
    monkeypatch.setattr(sylvester.ErrorEquationSolver, "solve",
                        lambda self, signal: calls.append("solve") or solve(self, signal))
    grid = ("--nx", "6", "--nt", "40")
    # M1 = tridiag(1e10, 0, 1e10) of order 5 is singular, and the march overflows
    singular = ("--coeffs", "1,0,0,1e10,1e10,0,0,0,0", *grid)
    assert run(capsys, "simulate", *singular)[0] == 2
    calls.clear()
    code, out, err = run(capsys, "sweep", *singular, "--method", "kron")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("singular system: pivot")
    # the march overflows at the level simulate names, before any solve
    growing = ("--coeffs", "1,1e10,0,0,0,0,0,0,0", *grid)
    code, out, err = run(capsys, "simulate", *growing)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: the march overflows at time level 31: ")
    calls.clear()
    assert run(capsys, "sweep", *growing) == (2, "", err)
    assert calls == ["march"]
    calls.clear()
    code, out, _ = run(capsys, "sweep", "--scheme", "lax", "--nx", "6", "--nt", "6",
                       "--nl-step", "4")
    assert code == 0
    assert calls == ["march"] + ["solve"] * (len(out.splitlines()) - 1)


def test_implicit_march_exchanges_rows(capsys):
    """Each level matrix is tridiag(1, 0, 1) of order 20: nonsingular, but
    its first pivot is zero unless rows are exchanged.  The march agrees
    with the causal matrix solve."""
    stencil = ("--coeffs", "0,1,0,0,0,1,0,1,0", "--nx", "21", "--nt", "10")
    code, sim_out, err = run(capsys, "simulate", *stencil)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "solve-error", *stencil, "--variant", "causal",
                         "--method", "kron")
    assert (code, err) == (0, "")
    sim = float(sim_out.split("frob=")[1].split()[0])
    mtx = float(out.split("frob=")[1].split()[0])
    assert abs(sim - mtx) <= 1e-14 * sim


def test_singular_level_matrix_gets_band_lus_verdict(capsys):
    """Each level matrix is tridiag(1, 0, 1) of order 19, which is singular:
    the march and causal kron both reject its pivot at column 18 as band LU
    does."""
    stencil = ("--coeffs", "0,1,0,0,0,1,0,1,0", "--nx", "20", "--nt", "10")
    for argv in (("simulate",), ("solve-error", "--variant", "causal", "--method", "kron")):
        code, out, err = run(capsys, argv[0], *stencil, *argv[1:])
        assert (code, out) == (3, "")
        assert re.fullmatch(r"singular system: pivot 0\.000e\+00 below \S+ at column 18\n",
                            err)


def test_causal_kron_runs_past_the_operator_size_guard(capsys):
    """N = 22350 exceeds MAX_VEC_SIZE, which guards band and dense storage;
    the march builds neither, so causal kron solves and matches the
    simulator to criterion 5's tolerance, while paper kron still stops."""
    stencil = ("--scheme", "leapfrog", "--nx", "150", "--nt", "150")
    code, sim_out, err = run(capsys, "simulate", *stencil)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "solve-error", *stencil, "--variant", "causal",
                         "--method", "kron")
    assert (code, err) == (0, "")
    sim = float(sim_out.split("frob=")[1].split()[0])
    mtx = float(out.split("frob=")[1].split()[0])
    assert abs(sim - mtx) <= 1e-11 * sim
    code, out, err = run(capsys, "solve-error", *stencil, "--method", "kron")
    assert (code, out) == (1, "")
    assert "exceeds limit 20000" in err


def test_causal_kron_follows_the_march_where_band_lu_pivots_across_time(capsys):
    """alpha = 0.05 makes the march amplify fast (|E| is about 7e17 at 9^2).
    Band LU with partial pivoting took its pivots from later time columns
    and met one below PIVOT_RTOL at column 70; causal kron is the march,
    which pivots only within each time column, and agrees with simulate."""
    stencil = ("--coeffs", "0.05,0.5,0,0.1,-0.8,0,0,0.4,0", "--nx", "9", "--nt", "9")
    code, sim_out, err = run(capsys, "simulate", *stencil)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "solve-error", *stencil, "--variant", "causal",
                         "--method", "kron")
    assert (code, err) == (0, "")
    sim = float(sim_out.split("frob=")[1].split()[0])
    mtx = float(out.split("frob=")[1].split()[0])
    assert abs(sim - mtx) <= 1e-11 * sim


def test_huge_finite_error_prints_finite_norms(capsys):
    # the field reaches 1e200: finite, but its squares overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", "--coeffs", "1,1e5,0,0,0,0,0,0,0",
                             "--nx", "6", "--nt", "40")
    assert (code, err) == (0, "")
    norms = dict(tok.split("=") for tok in out.split(":")[1].split())
    assert float(norms["max_abs"]) > 1e199
    assert math.isfinite(float(norms["frob"]))
    assert math.isfinite(float(norms["grid_l2"]))


HUGE = ("--coeffs", "1,0,0,1e200,1e200,0,0,0,0", "--nx", "6", "--nt", "6")


@pytest.mark.parametrize("argv, want_code", [
    (("solve-error", "--method", "kron"), 3),
    (("solve-error", "--method", "kron", "--variant", "causal"), 3),
    (("solve-error", "--method", "bartels-stewart"), 3),
    (("solve-error", "--method", "min-norm"), 0),
    (("diagnose",), 0),
])
def test_coefficients_whose_products_overflow(capsys, argv, want_code):
    """Entries of 1e200 square past the float range; the spectra, the
    factorizations and the verdict are still computed, without warnings.
    The odd zero-diagonal M1 shares the eigenvalue 0 with the nilpotent M2,
    so the unique-solution methods report a singular system."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, *HUGE)
    assert code == want_code
    if want_code == 3:
        assert err.startswith("singular system: ")
    else:
        assert err == ""
    if argv[0] == "diagnose":
        assert "-1.385640646055e+200+0.000000000000e+00j" in out
        assert "+1.385640646055e+200+0.000000000000e+00j" in out
        assert "unique=false" in out
    elif code == 0:
        assert "rank=24 of 30" in out


def test_diagnose_converges_on_tiny_coefficients(capsys):
    code, out, err = run(capsys, "diagnose", "--coeffs",
                         "1e-200,0,0,1e-200,1e-200,0,0,0,0", "--nx", "6", "--nt", "6")
    assert (code, err) == (0, "")
    assert "+1.385640646055e-200+0.000000000000e+00j" in out
    assert "unique=false" in out


def test_min_norm_on_1e300_coefficients_is_warning_free(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", "--coeffs",
                             "1,1e300,0,1e300,0,0,0,0,0", "--nx", "6", "--nt", "6")
    assert (code, err) == (0, "")
    assert "rank=30 of 30" in out


HUGE_PAIR = ("--coeffs", "1,0,0,1e308,-1e308,0,0,0,0", "--nx", "6", "--nt", "6")


def test_unbounded_residual_is_numerical_failure(capsys):
    """min-norm returns a field, but its operator residual overflows: no
    success is reported."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", *HUGE_PAIR)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: ")
    assert "residual" in err


def test_overflowing_solve_is_numerical_failure(capsys):
    """The band LU factors, but the truncation residual overflows: the
    floating-point failure is reported, not leaked as a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", "--method", "kron", "--coeffs",
                             "1,1.7e308,0,1.7e308,0,0,0,0,0", "--nx", "6", "--nt", "6")
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: the solve leaves the floating-point range")


def test_min_norm_pivot_that_underflows_is_numerical_failure(capsys):
    """Subnormal coefficients: a diagonal entry of the COD's T underflows to
    0 when scaled back, which the factorization reports before any solve."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", "--coeffs",
                             "1.5e-323,5e-324,0,5e-324,0,0,0,0,0", "--nx", "5", "--nt", "5")
    assert (code, out) == (2, "")
    assert err == "numerical failure: the COD exceeds the floating-point range\n"


@pytest.mark.parametrize("coeffs, method, message", [
    *[("1e307,1.7e308,1e307,0,0,0,0,0,0", method,
       "the solve leaves the floating-point range (overflow encountered in subtract)")
      for method in ("bartels-stewart", "kron", "min-norm")],
    ("1e308,1e308,0,1e308,-1e308,0,0,0,0", "bartels-stewart",
     "the LU factors exceed the floating-point range")])
def test_near_float_limit_solve_fails_with_only_its_message(capsys, coeffs, method,
                                                            message):
    """The spectral distances and the Hessenberg reduction run in unit-scaled
    units, so the only output is the solve's own numerical failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", "--coeffs", coeffs, "--nx", "6",
                             "--nt", "6", "--method", method)
    assert (code, out) == (2, "")
    assert err == f"numerical failure: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("--coeffs=2,2,1e308,0,2,1e-300,1,1e-300,1e308",),
     "the right-hand side exceeds the floating-point range"),
    (("--coeffs=-1e308,1e-300,1e308,0,0,0,-1e308,-1,-1",),
     "the operator residual of the solution is inf"),
    (("--coeffs=-1e308,0,1,-1e308,0,1,0,-1,1e308", "--variant", "causal", "--method", "kron"),
     "the operator residual of the solution is inf")])
def test_a_stencil_sum_that_overflows_is_numerical_failure(capsys, argv, message):
    """Finite products whose sum overflows, in the right-hand side or in the
    residual check, are a numerical failure that names what overflowed, not
    a usage error about a non-finite matrix."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", *argv, "--nx", "5", "--nt", "4")
    assert (code, out, err) == (2, "", f"numerical failure: {message}\n")


def test_band_lu_pivot_threshold_stays_finite(capsys):
    """|A|_F overflows, but the elimination runs on A scaled to unit
    magnitude, so the singular verdict rests on a finite threshold."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", "--method", "kron", *HUGE_PAIR)
    assert (code, out) == (3, "")
    assert err.startswith("singular system: pivot 0.000e+00 below ")
    assert "at column 4" in err
    assert "inf" not in err


def test_bartels_stewart_verdict_bound_stays_finite(capsys):
    """|M1|_F overflows; the spectra, 1.7e308 apart, are still separated."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve-error", "--coeffs", "1,1.7e308,0,0,0,0,0,0,0",
                             "--nx", "6", "--nt", "6", "--method", "bartels-stewart")
    assert (code, err) == (0, "")
    assert "unique=true min_separation=1.7e+308" in out


def test_diagnose_smallest_singular_value_of_tiny_operator(capsys):
    """Crank-Nicolson in units 1e-150 times the usual: the inverse iteration
    runs on the unit-scaled operator, so sigma_min is 1e-150 times that of
    the unscaled stencil."""
    tiny = "2.25e-150,-0.25e-150,0,-1e-150,-1e-150,0,-1e-150,-1e-150,0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "diagnose", "--coeffs", tiny, "--nx", "6",
                             "--nt", "6")
        _, unit_out, _ = run(capsys, "diagnose", "--coeffs",
                             "2.25,-0.25,0,-1,-1,0,-1,-1,0", "--nx", "6", "--nt", "6")
    assert (code, err) == (0, "")
    key = "smallest singular value of the vectorized operator: "
    got = float(out.split(key)[1].split()[0])
    want = float(unit_out.split(key)[1].split()[0])
    assert abs(got - 1e-150 * want) <= 1e-12 * got


def test_spectrum_beyond_float_range_is_numerical_failure(capsys):
    code, _, err = run(capsys, "diagnose", "--coeffs",
                       "1,0,0,1.7e308,1.7e308,0,0,0,0", "--nx", "6", "--nt", "6")
    assert code == 2
    assert "exceeds the floating-point range" in err


# --------------------------------------------------------------- solve-error


def test_solve_error_causal_matches_simulate(capsys):
    _, sim_out, _ = run(capsys, "simulate", "--scheme", "lax-wendroff",
                        "--sigma", "0.8")
    code, out, _ = run(capsys, "solve-error", "--scheme", "lax-wendroff",
                       "--sigma", "0.8", "--variant", "causal",
                       "--method", "kron")
    assert code == 0
    sim = float(sim_out.split("frob=")[1].split()[0])
    mtx = float(out.split("frob=")[1].split()[0])
    assert abs(sim - mtx) <= 1e-9 * max(1.0, sim)


def test_solve_error_paper_lax_bartels_stewart_exits_3(capsys):
    code, _, err = run(capsys, "solve-error", "--scheme", "lax",
                       "--method", "bartels-stewart")
    assert code == 3
    assert "eigenvalue" in err


def test_solve_error_paper_lax_wendroff_one_verdict_for_both_eliminations(capsys):
    """Lax-Wendroff's paper K at 100^2 is singular to the pivot threshold;
    Bartels-Stewart on its nilpotent M2 is kron's march, so both refuse it
    with the same message."""
    results = [run(capsys, "solve-error", "--scheme", "lax-wendroff", "--nx", "100",
                   "--nt", "100", "--method", method)
               for method in ("bartels-stewart", "kron")]
    assert results[0] == results[1]
    code, _, err = results[0]
    assert code == 3 and "at column 98" in err


def test_solve_error_writes_field_csv(tmp_path, capsys):
    out_csv = tmp_path / "e.csv"
    code, out, _ = run(capsys, "solve-error", "--scheme", "leapfrog", "--method",
                       "kron", "--nx", "9", "--nt", "7", "--out", str(out_csv))
    assert code == 0 and out.endswith(f"wrote {out_csv}\n")
    d = Discretization.from_cfl(nx=9, nt=7, h=1.0, sigma=0.8, c=1.0)
    solver = sylvester.ErrorEquationSolver(builtin_scheme("leapfrog", d), d,
                                           variant="paper", method="kron")
    e, _, _ = solver.solve(SignalSpec.from_cells_per_wavelength(10.0, d))
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "i," + ",".join(f"n{n}" for n in range(1, 8))
    back = np.array([[float(v) for v in line.split(",")[1:]]
                     for line in lines[1:]])
    assert np.array_equal(back, e.values)


def test_solve_error_min_norm_prints_rank_and_residual(capsys):
    code, out, _ = run(capsys, "solve-error", "--scheme", "lax",
                       "--method", "min-norm")
    assert code == 0
    assert "unique=false" in out
    assert "residual=" in out and "rank=" in out


@pytest.mark.parametrize("method, verdict", [("kron", "march"), ("min-norm", "cod")])
def test_causal_solve_prints_its_kernels_verdict(capsys, method, verdict):
    """Lax's causal K at 20^2 is nonsingular: the march solves it and the COD
    finds full rank, though M1 and -M2 share the eigenvalue 0.  The verdict
    line names the kernel and prints no spectral number, and no notes."""
    code, out, err = run(capsys, "solve-error", "--scheme", "lax", "--variant", "causal",
                         "--method", method)
    assert (code, err) == (0, "")
    assert f"\nunique=true verdict={verdict}\n" in out
    assert "min_separation" not in out and "sep_tol" not in out and "notes:" not in out


def test_crank_nicolson_paper_min_norm_prints_the_cod_verdict(capsys):
    code, out, _ = run(capsys, "solve-error", "--scheme", "crank-nicolson",
                       "--method", "min-norm")
    assert code == 0
    assert out.splitlines()[1] == "unique=true verdict=cod"
    assert "rank=380 of 380" in out


@pytest.mark.parametrize("argv, line", [
    (("--scheme", "leapfrog", "--method", "bartels-stewart"),
     "unique=true min_separation=0.0026857807184469396 sep_tol=1e-10"),
    (("--scheme", "lax", "--method", "kron", "--nx", "11", "--nt", "11"),
     "unique=true min_separation=0.10673612870496385 sep_tol=1e-10")])
def test_paper_sylvester_form_keeps_its_spectral_verdict_line(capsys, argv, line):
    """L = 0 paper requests print the spectral verdict, byte for byte as
    before the kernels' verdicts: one line, no notes."""
    code, out, _ = run(capsys, "solve-error", *argv)
    lines = out.splitlines()
    assert code == 0
    assert lines[1] == line and lines[2].startswith("residual=")


# --------------------------------------------------------------------- sweep


def test_sweep_step_1_has_17_rows_and_monotone_endpoints(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--scheme", "lax", "--nl-step", "1",
                     "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 18  # header + 17 rows
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[0]) == 4.0 and float(last[0]) == 20.0
    assert float(last[1]) < float(first[1])  # err_sim_frob shrinks


def test_sweep_empty_range_is_usage_error(capsys):
    assert run(capsys, "sweep", "--scheme", "lax", "--nl-min", "9",
               "--nl-max", "4")[0] == 1
    assert run(capsys, "sweep", "--scheme", "lax", "--nl-step", "0")[0] == 1


def test_sweep_bad_range_exits_before_building_the_solver(capsys, monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("solver built for an invalid sweep range")
    monkeypatch.setattr(sylvester, "ErrorEquationSolver", no_solver)
    for bad in (("--nl-step", "0"), ("--nl-step", "-1"),
                ("--nl-min", "9", "--nl-max", "4")):
        code, _, err = run(capsys, "sweep", "--scheme", "leapfrog", "--nx", "30",
                           "--nt", "30", *bad)
        assert code == 1, bad
        assert err.startswith("error: "), bad


@pytest.mark.parametrize("flag,value", [("--nl-max", "inf"), ("--nl-min", "nan"),
                                        ("--nl-step", "inf")])
def test_sweep_bound_that_is_not_finite_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "sweep", "--scheme", "lax", "--nx", "6", "--nt", "6",
                         flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be finite, got {value}\n"


def test_sweep_step_count_that_is_not_finite_is_usage_error(capsys):
    """(1e300 - 4) / 1e-300 overflows: the step count is not an integer."""
    code, out, err = run(capsys, "sweep", "--scheme", "lax", "--nx", "6", "--nt", "6",
                         "--nl-max", "1e300", "--nl-step", "1e-300")
    assert (code, out) == (1, "")
    assert err.startswith("error: --nl-step 1e-300 ")
    assert "not finite" in err


@pytest.mark.parametrize("nl_max, want", [
    ("1e12", "Unable to allocate 7.11 PiB"),    # 1e15 values
    ("1e300", "Maximum allowed size exceeded")])
def test_sweep_count_beyond_memory_fails_before_allocating(capsys, nl_max, want):
    """numpy refuses the array of n_lambda values before touching memory."""
    code, out, err = run(capsys, "sweep", "--scheme", "lax", "--nx", "6", "--nt", "6",
                         "--nl-max", nl_max, "--nl-step", "1e-3")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: out of memory ({want}")


def test_sweep_bound_from_config_file_must_be_finite(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = lax\nnx = 6\nnt = 6\nnl_max = inf\n")
    code, _, err = run(capsys, "sweep", "--config", str(cfg))
    assert (code, err) == (1, "error: --nl-max must be finite, got inf\n")


def test_out_of_memory_is_exit_1_without_traceback(capsys, monkeypatch):
    # a real allocation failure depends on the kernel's overcommit setting
    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")
    monkeypatch.setattr(advect, "sample_nodes", no_memory)
    code, out, err = run(capsys, "simulate", "--scheme", "lax", "--nx", "6",
                         "--nt", "6")
    assert (code, out) == (1, "")
    assert err == "error: out of memory (Unable to allocate 7.28 TiB)\n"


@pytest.mark.parametrize("command", ["simulate", "solve-error", "sweep", "diagnose"])
@pytest.mark.parametrize("nx, nt", [("6", "4000000000000000000"),
                                    ("10000000000000000000", "6")])
def test_grid_numpy_cannot_size_is_one_error_line(capsys, monkeypatch, command, nx, nt):
    """Refused while the grid is validated, before any array is built (numpy
    itself would raise ValueError: array is too big, or maximum allowed
    size or dimension exceeded)."""
    monkeypatch.setattr(np, "zeros", None)
    monkeypatch.setattr(np, "full", None)
    monkeypatch.setattr(np, "arange", None)
    code, out, err = run(capsys, command, "--scheme", "lax", "--nx", nx, "--nt", nt)
    assert (code, out) == (1, "")
    assert err == (f"error: an nx={nx} by nt={nt} grid is too large: "
                   "numpy cannot size its arrays\n")


def test_sweep_columns_and_row_format():
    assert cli.SWEEP_COLUMNS == (
        "n_lambda",
        "err_sim_frob", "err_sim_grid_l2", "err_sim_grid_l2_squared",
        "err_mtx_frob", "err_mtx_grid_l2", "err_mtx_grid_l2_squared",
        "unique", "min_separation")
    rec = cli.SweepRecord(4.2, 1.0, 0.5, 0.25, 2.0, 1e-17, 1e-34, np.bool_(True), 0.1)
    assert rec.csv_row() == "4.2,1.0,0.5,0.25,2.0,1e-17,1e-34,true,0.1"
    rec = cli.SweepRecord(4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, math.inf)
    assert rec.csv_row() == "4.0,0.0,0.0,0.0,0.0,0.0,0.0,false,inf"


def test_sweep_rows_include_both_figure_cases(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--scheme", "lax", "--out", str(out_csv))
    assert code == 0
    values = [float(line.split(",")[0])
              for line in out_csv.read_text().splitlines()[1:]]
    assert any(abs(v - 9.0) < 1e-9 for v in values)
    assert any(abs(v - 9.8) < 1e-9 for v in values)
    assert values == sorted(values)


def test_sweep_byte_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--scheme", "leapfrog", "--nl-step", "2",
        "--out", str(a))
    run(capsys, "sweep", "--scheme", "leapfrog", "--nl-step", "2",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    run(capsys, "sweep", "--scheme", "lax", "--nl-step", "4",
        "--out", str(out_csv))
    for line in out_csv.read_text().splitlines()[1:]:
        for tok in line.split(","):
            if tok in ("true", "false"):
                continue
            assert repr(float(tok)) == tok  # shortest round-trip form


def test_sweep_svg_and_iso_outputs(tmp_path, capsys):
    svg, iso = tmp_path / "chart.svg", tmp_path / "iso.csv"
    code, _, _ = run(capsys, "sweep", "--scheme", "lax", "--nl-step", "4",
                     "--out", str(tmp_path / "s.csv"), "--svg", str(svg),
                     "--iso", str(iso))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<polyline") == 2
    lines = iso.read_text().splitlines()
    assert lines[0].startswith("n_lambda,n1,") and len(lines) == 6


# the causal march multiplies the field by 1e12 a level: the squares of the
# last two error columns, about 1e312 and 1e336, overflow
GROWING_SWEEP = ("sweep", "--coeffs", "1e-12,1,0,0,0,0,0,0,0", "--variant", "causal",
                 "--method", "kron", "--nx", "6", "--nt", "14", "--nl-min", "5",
                 "--nl-max", "9", "--nl-step", "2")


def test_sweep_iso_norms_whose_squares_overflow(tmp_path, capsys):
    """A column whose squares overflow gets frobenius_norm's rescaled norm;
    every other column keeps the plain sum of squares, bit for bit."""
    iso = tmp_path / "iso.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *GROWING_SWEEP, "--out", str(tmp_path / "s.csv"),
                           "--iso", str(iso))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in iso.read_text().splitlines()[1:]]
    d = Discretization.from_cfl(nx=6, nt=14, h=1.0, sigma=0.8, c=1.0)
    s = custom_scheme([1e-12, 1, 0, 0, 0, 0, 0, 0, 0])
    for row, n_lambda in zip(rows, (5.0, 7.0, 9.0), strict=True):
        signal = SignalSpec.from_cells_per_wavelength(n_lambda, d)
        u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
        e = advect.error_matrix(u, advect.sample_exact(d, signal)).values
        got = [float(v) for v in row[1:]]
        assert got[:12] == np.sqrt(np.sum(e[:, :12] ** 2, axis=0)).tolist()
        for j in (12, 13):
            assert got[j] == linalg.frobenius_norm(e[:, j:j + 1])
            assert math.isclose(got[j], math.hypot(*e[:, j]), rel_tol=1e-14)
        assert 1e156 < got[12] < 1e157 and 1e168 < got[13] < 1e169


def test_sweep_iso_norms_whose_squares_underflow(tmp_path, capsys, monkeypatch):
    """Nodes scaled by 2**-600 scale every error exactly, and its squares
    underflow: a nonzero column still gets its norm times 2**-600, and
    leapfrog's first column, exactly zero, stays 0."""
    argv = ("sweep", "--scheme", "leapfrog", "--nx", "6", "--nt", "6", "--nl-step", "4",
            "--out", str(tmp_path / "s.csv"), "--iso", str(tmp_path / "iso.csv"))

    def iso_grid():
        assert run(capsys, *argv)[0] == 0
        return [[float(v) for v in line.split(",")[1:]]
                for line in (tmp_path / "iso.csv").read_text().splitlines()[1:]]

    want = iso_grid()
    sample = advect.sample_nodes
    monkeypatch.setattr(advect, "sample_nodes", lambda *args: np.ldexp(sample(*args), -600))
    got = iso_grid()
    assert all(row[0] == 0.0 for row in want + got)
    for got_row, want_row in zip(got, want, strict=True):
        for g, w in zip(got_row[1:], want_row[1:], strict=True):
            assert w > 1e-3 and math.isclose(math.ldexp(g, 600), w, rel_tol=1e-14)


def test_sweep_svg_of_a_value_beyond_float_range_is_numerical_failure(tmp_path, capsys):
    """grid_l2_squared is about 2e336: the CSV prints inf, the chart is
    refused before its file is opened."""
    out, svg = tmp_path / "s.csv", tmp_path / "chart.svg"
    code, stdout, err = run(capsys, *GROWING_SWEEP, "--out", str(out), "--svg", str(svg))
    assert code == 2
    assert err == ("numerical failure: err_sim_grid_l2_squared exceeds the floating-point "
                   "range at n_lambda 5.0; the chart cannot plot it\n")
    assert stdout == f"wrote {out} (3 rows)\n"
    assert not svg.exists()
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    column = header.index("err_sim_grid_l2_squared")
    assert [row[column] for row in rows] == ["inf"] * 3


def test_sweep_chart_refused_leaves_csv_and_iso(tmp_path, capsys):
    """The isovalue grid is written before the chart: a chart refused with
    exit 2 leaves the same CSV and iso files as a run without it."""
    out, svg, iso = tmp_path / "s.csv", tmp_path / "chart.svg", tmp_path / "iso.csv"
    code, stdout, err = run(capsys, *GROWING_SWEEP, "--out", str(out), "--svg", str(svg),
                            "--iso", str(iso))
    assert code == 2
    assert err.startswith("numerical failure: err_sim_grid_l2_squared exceeds")
    assert stdout == f"wrote {out} (3 rows)\n"
    assert not svg.exists()
    want_out, want_iso = tmp_path / "want.csv", tmp_path / "want_iso.csv"
    assert run(capsys, *GROWING_SWEEP, "--out", str(want_out), "--iso", str(want_iso))[0] == 0
    assert out.read_text() == want_out.read_text()
    assert iso.read_text() == want_iso.read_text()


def test_sweep_computes_isovalue_norms_only_for_iso(tmp_path):
    argv = ["sweep", "--scheme", "leapfrog", "--nx", "6", "--nt", "6", "--nl-step", "4"]

    def config(*extra):
        return cli._resolve(cli.build_parser().parse_args([*argv, *extra]))
    records, iso = cli.run_sweep(config())
    assert iso == []
    records_iso, iso = cli.run_sweep(config("--iso", str(tmp_path / "iso.csv")))
    assert records_iso == records
    assert [nl for nl, _ in iso] == [r.n_lambda for r in records]


def per_signal_sweep_norms(cfg):
    """The simulator's norms as the sweep took them one signal at a time:
    err_sim_* from error_summary of each error's FieldMatrix, and each
    isovalue the root of its column's sum of squares, or frobenius_norm of
    the column where that sum overflows or underflows in a nonzero column."""
    signals = [SignalSpec.from_cells_per_wavelength(nl, cfg.disc)
               for nl in cli.sweep_values(cfg.nl_min, cfg.nl_max, cfg.nl_step)]
    stack = advect.sample_nodes(cfg.disc, signals)
    rows = []
    for nodes, u in zip(stack, advect.time_step_simulate(cfg.scheme, cfg.disc, stack)):
        error = u.values - nodes[1:-1, 1:]
        e_sim = advect.error_summary(advect.FieldMatrix(error, cfg.disc))
        assert e_sim.frob == linalg.frobenius_norm(error)
        with np.errstate(over="ignore"):
            squares = np.sum(error ** 2, axis=0)
        norms = np.sqrt(squares)
        for j in np.flatnonzero(np.isinf(squares) | ((squares < np.finfo(float).tiny)
                                                     & error.any(axis=0))):
            norms[j] = linalg.frobenius_norm(error[:, j:j + 1])
        rows.append(((e_sim.frob, e_sim.grid_l2, e_sim.grid_l2_squared), norms))
    return rows


@pytest.mark.parametrize("scale", [0, -600])
@pytest.mark.parametrize("stencil", [
    *[("--scheme", name, "--nx", str(nx), "--nt", str(nt))
      for name in ("leapfrog", "lax", "lax-wendroff", "crank-nicolson")
      for nx, nt in ((6, 6), (11, 11), (20, 20), (7, 13))],
    GROWING_SWEEP[1:11], HUGE_PAIR])
def test_sweep_norms_the_stack_as_each_signal_alone(monkeypatch, tmp_path, stencil, scale):
    """Every err_sim_* column and every isovalue of run_sweep, which norms
    the simulator's errors over their stack, equals the per-signal norms
    byte for byte.  The growing causal march's squares overflow, and node
    arrays scaled by 2**-600 give sums that underflow: both take the
    rescaled path.  HUGE_PAIR's causal level matrix is singular to the
    pivot rule, so its sweep fails at the march, before any norm, as the
    per-signal march does."""
    sample = advect.sample_nodes
    monkeypatch.setattr(advect, "sample_nodes", lambda *args: np.ldexp(sample(*args), scale))
    cfg = cli._resolve(cli.build_parser().parse_args(
        ["sweep", *stencil, "--nl-min", "4", "--nl-max", "20", "--nl-step", "0.4",
         "--iso", str(tmp_path / "iso.csv")]))
    if stencil == HUGE_PAIR:
        with pytest.raises(SingularSystemError) as want:
            per_signal_sweep_norms(cfg)
        with pytest.raises(SingularSystemError, match=re.escape(str(want.value))):
            cli.run_sweep(cfg)
        return
    records, iso = cli.run_sweep(cfg)
    want = per_signal_sweep_norms(cfg)
    for record, (nl, norms), (sim, want_norms) in zip(records, iso, want, strict=True):
        got = (record.err_sim_frob, record.err_sim_grid_l2, record.err_sim_grid_l2_squared)
        assert np.array(got).tobytes() == np.array(sim).tobytes(), nl
        assert norms.tobytes() == want_norms.tobytes(), nl


def test_error_csv_path_keeps_directory_dots(tmp_path, capsys):
    run_dir = tmp_path / "run.d"
    run_dir.mkdir()
    code, _, _ = run(capsys, "simulate", "--scheme", "lax", "--nx", "6",
                     "--nt", "6", "--out", str(run_dir / "field"))
    assert code == 0
    assert sorted(p.name for p in run_dir.iterdir()) == ["field", "field_error"]
    assert cli._derived_path("field.csv", "_error") == "field_error.csv"
    assert cli._derived_path("field", "_error") == "field_error"


@pytest.mark.parametrize("argv", [
    ("simulate", "--scheme", "lax"),
    ("solve-error", "--scheme", "leapfrog", "--method", "kron"),
    ("sweep", "--scheme", "lax", "--nl-step", "8"),
])
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--nx", "6", "--nt", "6",
                       "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 1
    assert err.startswith("error: ") and "missing" in err


def test_sweep_stdout_when_no_out(capsys):
    code, out, _ = run(capsys, "sweep", "--scheme", "lax", "--nl-min", "8",
                       "--nl-max", "9", "--nl-step", "1")
    assert code == 0
    assert out.splitlines()[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(out.splitlines()) == 3


def test_causal_sweep_keeps_its_header_and_leaves_min_separation_empty(capsys):
    code, out, _ = run(capsys, "sweep", "--scheme", "lax", "--variant", "causal",
                       "--method", "kron", "--nl-min", "8", "--nl-max", "10", "--nl-step", "1")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == ",".join(cli.SWEEP_COLUMNS)
    assert len(rows) == 3
    assert all(row.endswith(",true,") and row.count(",") == 8 for row in rows)


# ------------------------------------------------------------------ diagnose


def test_diagnose_leapfrog_spectra_purely_imaginary(capsys):
    code, out, _ = run(capsys, "diagnose", "--scheme", "leapfrog")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("  ") and line.endswith("j"):
            z = complex(line.strip())
            # alpha*gamma < 0 and delta*epsilon < 0: spectra on the
            # imaginary axis up to rounding
            assert abs(z.real) <= 1e-9


def test_diagnose_spectra_are_tau_normalized(capsys):
    # leapfrog at sigma = 0.8, h = 1: tau*alpha = 1/2 and tau*gamma = -1/2,
    # so the normalized -M2 has eigenvalues +-i*cos(k*pi/(nt+1))
    code, out, _ = run(capsys, "diagnose", "--scheme", "leapfrog")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("spectrum of normalized -M2:") + 1
    got = sorted(complex(line.strip()).imag for line in lines[start:start + 20])
    want = sorted(math.cos(k * math.pi / 21) for k in range(1, 21))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9


def test_diagnose_lax_reports_non_unique(capsys):
    code, out, _ = run(capsys, "diagnose", "--scheme", "lax")
    assert code == 0
    assert "unique=false" in out


def test_diagnose_crank_nicolson_reports_operator_smallest_singular(capsys):
    code, out, _ = run(capsys, "diagnose", "--scheme", "crank-nicolson",
                       "--nx", "10", "--nt", "10")
    assert code == 0
    assert "smallest singular value" in out
    assert "L != 0" in out


def test_diagnose_builds_no_dense_operator(capsys, monkeypatch):
    """sigma_min factors A and A^T straight from the stencil table's
    entries, so diagnose stays O(N*nx) in memory."""
    def dense(*args):
        raise AssertionError("global_operator called")

    monkeypatch.setattr(assembly, "global_operator", dense)
    code, out, err = run(capsys, "diagnose", "--scheme", "crank-nicolson",
                         "--nx", "20", "--nt", "20")
    assert (code, err) == (0, "")
    assert "smallest singular value of the vectorized operator: " in out


def test_diagnose_size_guard_comes_before_the_report(capsys):
    """A corner stencil whose operator exceeds MAX_VEC_SIZE is a usage error
    that prints nothing to stdout, like every other usage error."""
    code, out, err = run(capsys, "diagnose", "--scheme", "crank-nicolson",
                         "--nx", "150", "--nt", "150")
    assert (code, out) == (1, "")
    assert err == "error: vectorized operator of size 22350 exceeds limit 20000\n"


def test_diagnose_singular_lu_is_not_a_smallest_singular_value_of_zero(capsys):
    """At 60^2 the LU of the Crank-Nicolson operator meets a pivot below
    PIVOT_RTOL; diagnose says so instead of printing sigma_min = 0.0, and
    30^2, above the threshold, still prints the measured value."""
    code, out, err = run(capsys, "diagnose", "--scheme", "crank-nicolson",
                         "--nx", "60", "--nt", "60")
    assert (code, err) == (0, "")
    assert ("smallest singular value of the vectorized operator: "
            "below the LU pivot threshold (pivot ") in out
    assert not any(line.endswith(": 0.0") for line in out.splitlines())
    code, out, _ = run(capsys, "diagnose", "--scheme", "crank-nicolson",
                       "--nx", "30", "--nt", "30")
    assert code == 0
    assert ("smallest singular value of the vectorized operator: "
            "4.838227277276047e-13\n") in out


def test_diagnose_structural_notes_for_two_level_scheme(capsys):
    _, out, _ = run(capsys, "diagnose", "--scheme", "lax")
    assert "initial data" in out
    assert "truncated" in out


# ----------------------------------------------------------------- flag sets

FLAG_VALUES = {"--scheme": "lax", "--coeffs": "1,0.5,-0.3,0,0,0,0,0,0",
               "--nx": "6", "--nt": "6", "--h": "1", "--sigma": "0.5",
               "--tau": "0.5", "--c": "1", "--n-lambda": "9", "--lambda": "9",
               "--variant": "causal", "--method": "kron", "--nl-min": "4",
               "--nl-max": "8", "--nl-step": "2", "--out": "o.csv",
               "--svg": "o.svg", "--iso": "i.csv", "--config": "run.cfg"}
STENCIL_GRID = {"--scheme", "--coeffs", "--nx", "--nt", "--h", "--sigma",
                "--tau", "--c", "--config"}
READS = {
    "simulate": STENCIL_GRID | {"--n-lambda", "--lambda", "--out"},
    "solve-error": STENCIL_GRID | {"--n-lambda", "--lambda", "--variant",
                                   "--method", "--out"},
    "sweep": STENCIL_GRID | {"--variant", "--method", "--nl-min", "--nl-max",
                             "--nl-step", "--out", "--svg", "--iso"},
    "diagnose": STENCIL_GRID,
}


def test_flag_set_sizes():
    assert [len(READS[c]) for c in READS] == [12, 14, 17, 9]


@pytest.mark.parametrize("command", list(READS))
@pytest.mark.parametrize("flag", list(FLAG_VALUES))
def test_command_accepts_only_the_flags_it_reads(capsys, command, flag):
    value = FLAG_VALUES[flag]
    if flag in READS[command]:
        args = cli.build_parser().parse_args([command, flag, value])
        dest = "wavelength" if flag == "--lambda" else flag[2:].replace("-", "_")
        assert getattr(args, dest) is not None  # flags default to None
    else:
        code, out, err = run(capsys, command, flag, value)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: unrecognized arguments: {flag} {value}\n")


def test_usage_error_leaves_the_cached_parser_as_fresh(capsys):
    """main builds its parser once per process; after a usage error the next
    call prints what a freshly built parser's call prints."""
    argv = ("sweep", "--scheme", "lax", "--nx", "6", "--nt", "6", "--nl-step", "4")

    def fresh(*args):
        cli.build_parser.cache_clear()
        return run(capsys, *args)
    assert cli.build_parser() is cli.build_parser()
    for bad in (("diagnose", "--scheme", "lax", "--variant", "causal"),
                ("sweep", "--scheme", "lax", "--nx", "x"),
                ("solve-error", "--method", "lu"), ("bogus",), ()):
        error = fresh(*bad)
        assert error[0] == 1 and error[2].startswith("error: ")
        assert run(capsys, *argv) == fresh(*argv)
        assert run(capsys, *bad) == error


def test_unrecognized_flag_prints_the_command_usage(capsys):
    code, out, err = run(capsys, "diagnose", "--scheme", "lax",
                         "--variant", "causal")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --variant causal" in err
    assert "usage: advectbench diagnose" in err


# -------------------------------------------------------------------- config


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# study configuration\nscheme = lax\nsigma = 1.0\n"
                   "n_lambda = 10\n")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert float(out.split("grid_l2=")[1].split()[0]) <= 1e-11
    # flag overrides the file value
    code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                       "--sigma", "0.5")
    assert float(out.split("grid_l2=")[1].split()[0]) > 1e-3


COEFFS = "1,0.5,-0.3,0.2,0.1,0.05,0.04,0.03,0.02"
EXCLUSIVE_PAIRS = [(("sigma", "0.5"), ("tau", "0.3")),
                   (("scheme", "lax"), ("coeffs", COEFFS)),
                   (("n_lambda", "7"), ("lambda", "9.8"))]


def exclusive_run(capsys, cfg, file_keys, flag_keys):
    """simulate on a 9x9 grid with file_keys in the config file and
    flag_keys on the command line; --scheme lax unless the pair is the
    scheme's."""
    cfg.write_text("".join(f"{k}={v}\n" for k, v in file_keys))
    argv = ["simulate", "--nx", "9", "--nt", "9"]
    if not any(k in ("scheme", "coeffs") for k, _ in file_keys + flag_keys):
        argv += ["--scheme", "lax"]
    for k, v in flag_keys:
        argv += ["--" + k.replace("_", "-"), v]
    return run(capsys, *argv, "--config", str(cfg))


@pytest.mark.parametrize("pair", EXCLUSIVE_PAIRS)
@pytest.mark.parametrize("flag_side", [0, 1])
def test_config_key_yields_to_exclusive_flag(tmp_path, capsys, pair, flag_side):
    """A flag given on the command line drops the file's value for its
    mutually exclusive counterpart."""
    flag, other = pair[flag_side], pair[1 - flag_side]
    code, out, err = exclusive_run(capsys, tmp_path / "run.cfg", [other], [flag])
    assert (code, err) == (0, "")
    want = exclusive_run(capsys, tmp_path / "empty.cfg", [], [flag])
    assert want[0] == 0 and out == want[1]


@pytest.mark.parametrize("pair", EXCLUSIVE_PAIRS)
def test_config_exclusive_pair_still_conflicts(tmp_path, capsys, pair):
    cfg = tmp_path / "run.cfg"
    for file_keys, flag_keys in ((list(pair), []), ([pair[0]], list(pair))):
        code, _, err = exclusive_run(capsys, cfg, file_keys, flag_keys)
        assert code == 1 and "exactly one of" in err, (file_keys, flag_keys)


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=lax\nwavelenght=9\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "wavelenght" in err


def test_config_keys_the_command_does_not_read_are_ignored(tmp_path, capsys):
    """One study file serves several commands: diagnose ignores the signal,
    method and output keys (an exclusive pair included), simulate the
    method and sweep keys."""
    cfg = tmp_path / "study.cfg"
    cfg.write_text("scheme=lax\nnx=9\nnt=9\nvariant=causal\nmethod=kron\n"
                   "n_lambda=7\nlambda=9.8\nnl_step=0\nsvg=chart.svg\n")
    code, out, err = run(capsys, "diagnose", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert out == run(capsys, "diagnose", "--scheme", "lax", "--nx", "9",
                      "--nt", "9")[1]
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--n-lambda", "7")
    assert (code, err) == (0, "")
    assert out == run(capsys, "simulate", "--scheme", "lax", "--nx", "9",
                      "--nt", "9", "--n-lambda", "7")[1]


def test_config_bad_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=lax\nnx = 20.5\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and f"{cfg}:2: bad value for nx" in err


def test_config_bad_line_and_missing_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme lax\n")
    assert run(capsys, "simulate", "--config", str(cfg))[0] == 1
    assert run(capsys, "simulate", "--config",
               str(tmp_path / "nope.cfg"))[0] == 1


def test_config_accepts_lambda_alias(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=lax\nlambda=9.8\n")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
