"""Command-line interface tests: exit codes, CSV determinism, config files."""

import math
import warnings

import numpy as np
import pytest

from advectbench import advect, cli, sylvester
from advectbench.schemes import Discretization, SignalSpec, builtin_scheme


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
