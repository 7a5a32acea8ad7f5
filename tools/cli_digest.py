"""One digest of the command line's observable behaviour.

    python3 tools/cli_digest.py [--list] [SRC]

Runs a fixed matrix of invocations in-process through
``advectbench.cli.main``, with the package imported from SRC (default: this
checkout's ``src``), one BLAS thread, and each invocation in a fresh
temporary directory, into which the file its ``--config`` names is first
written from CONFIGS.  Prints the invocation count, the exit-code
histogram and one sha256 over every invocation's argv, exit code, stdout,
stderr and written files (names and bytes).  Two commits behave identically on the
matrix when they print the same three lines; run it once per checkout, with
the same numpy/BLAS build, and compare.  The path of SRC is replaced by
``<src>`` in stdout and stderr before hashing, so a leaked warning, which
names its source file, hashes alike in any checkout directory.  After the
total come one sha256 per (command, variant, method) group, a dash standing
for a flag the command was not given, so a change that moves some outputs
shows which groups it leaves byte-identical.  With --list, one line per
invocation follows: the first 12 hex digits of its record's sha256, its exit
code and its argv, so that two checkouts' listings, diffed, name the records
a change moves.  Every invocation but one usage error passes only flags that
its command reads.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

# One BLAS/OpenMP thread, fixed before numpy is loaded, so that fields are
# bit-reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SCHEMES = ("leapfrog", "lax", "lax-wendroff", "crank-nicolson")
VARIANTS = ("paper", "causal")
METHODS = ("bartels-stewart", "kron", "min-norm")
GRIDS = (6, 11, 20, 30)
MIN_NORM_MAX_GRID = 20      # the dense COD takes seconds beyond 20^2
COEFFS = "1,0.5,-0.3,0.2,0.1,0.05,0.04,0.03,0.02"
# config files by name: a study file that sets every key, a file with an
# unknown key, one whose sigma yields to --tau, one with both sigma and tau
CONFIGS = {
    "study.cfg": "# every key of the flag table\n"
                 "scheme = leapfrog\ncoeffs = " + COEFFS + "\nnx = 8\nnt = 7\nh = 0.5\n"
                 "sigma = 0.6\ntau = 0.25\nc = 1.5\nn-lambda = 9\nlambda = 4.5\n"
                 "variant = causal\nmethod = kron\nnl_min = 5\nnl_max = 9\n"
                 "nl_step = 0.5\nout = sweep.csv\nsvg = sweep.svg\niso = iso.csv\n",
    "unknown.cfg": "scheme = lax\nnx = 6\nnt = 6\nupwind = 1\n",
    "sigma.cfg": "scheme = leapfrog\nnx = 6\nnt = 6\nsigma = 0.8\n",
    "both.cfg": "scheme = lax\nnx = 6\nnt = 6\nsigma = 0.8\ntau = 0.5\n",
}


def _solves(stencil):
    return [["solve-error", *stencil, "--variant", variant, "--method", method,
             "--out", "error.csv"] for method in METHODS for variant in VARIANTS]


def matrix():
    runs = []
    for scheme in SCHEMES:
        for n in GRIDS:
            stencil = ["--scheme", scheme, "--nx", str(n), "--nt", str(n)]
            runs.append(["simulate", *stencil, "--out", "field.csv"])
            runs.append(["diagnose", *stencil])
            runs += [argv for argv in _solves(stencil)
                     if "min-norm" not in argv or n <= MIN_NORM_MAX_GRID]
            runs += [["sweep", *stencil, "--variant", variant, "--method", "kron",
                      "--out", "sweep.csv", "--svg", "sweep.svg", "--iso", "iso.csv"]
                     for variant in VARIANTS]
        runs.append(["sweep", "--scheme", scheme])
    custom = ["--coeffs", COEFFS, "--nx", "11", "--nt", "11"]
    runs += [["simulate", *custom, "--out", "field.csv"], ["diagnose", *custom]]
    runs += _solves(custom)
    # a non-square grid with an explicit time step and wavelength
    odd = ["--scheme", "leapfrog", "--nx", "9", "--nt", "14", "--tau", "0.4"]
    runs.append(["simulate", *odd, "--lambda", "7.5", "--out", "field.csv"])
    runs += [["solve-error", *odd, "--lambda", "7.5", "--variant", variant,
              "--method", "kron", "--out", "error.csv"] for variant in VARIANTS]
    # usage errors: bad sweep range, sweep bounds or a step count that are
    # not finite, exclusive pair, unknown scheme, a CFL number whose time
    # step sigma*h/c is negative or overflows
    runs += [["sweep", "--scheme", "lax", "--nl-min", "9", "--nl-max", "4"],
             ["sweep", "--scheme", "lax", "--nx", "6", "--nt", "6", "--nl-max", "inf"],
             ["sweep", "--scheme", "lax", "--nx", "6", "--nt", "6", "--nl-step", "inf"],
             ["sweep", "--scheme", "lax", "--nx", "6", "--nt", "6", "--nl-max", "1e300",
              "--nl-step", "1e-300"],
             ["simulate", "--scheme", "lax", "--sigma", "0.5", "--tau", "0.5"],
             ["diagnose", "--scheme", "upwind"],
             ["solve-error", "--scheme", "lax", "--nx", "6", "--nt", "6", "--c", "-1",
              "--method", "kron"],
             ["simulate", "--scheme", "lax", "--nx", "6", "--nt", "6", "--sigma", "1e300",
              "--h", "1e10"]]
    # an implicit stencil whose level matrix tridiag(1, 0, 1) needs row
    # exchanges at even order and is singular at odd order; coefficients near
    # the float limits; Crank-Nicolson in units 1e-150 times the usual; an
    # implicit level matrix whose pivots 1e-300 are below the threshold
    for nx in ("21", "20"):
        pivoting = ["--coeffs", "0,1,0,0,0,1,0,1,0", "--nx", nx, "--nt", "10"]
        runs += [["simulate", *pivoting, "--out", "field.csv"],
                 ["solve-error", *pivoting, "--variant", "causal", "--method", "kron",
                  "--out", "error.csv"]]
    runs += [["solve-error", "--coeffs", "1,1.7e308,0,0,0,0,0,0,0", "--nx", "6",
              "--nt", "6", "--method", "bartels-stewart", "--out", "error.csv"],
             ["diagnose", "--coeffs",
              "2.25e-150,-0.25e-150,0,-1e-150,-1e-150,0,-1e-150,-1e-150,0",
              "--nx", "6", "--nt", "6"],
             ["simulate", "--coeffs", "1e-300,1,0,0,0,1e-300,0,0,0", "--nx", "6",
              "--nt", "6", "--out", "field.csv"]]
    # an implicit level matrix tridiag(0, 1, 1e10) whose solve grows 1e10 a
    # row, so the march overflows at level 1, in simulate and causal kron alike
    overflowing = ["--coeffs", "1,1e10,0,0,0,1e10,0,0,0", "--nx", "32", "--nt", "6"]
    # a leapfrog-like stencil at about 1e14 and 1e-14 scale: the cold start's
    # unit rows are copied, not eliminated, so they take no part in the
    # pivot rule
    scaled = [["--coeffs", f"5e{p},0,-5e{p},4e{p},-4e{p},0,0,0,0", "--nx", "8", "--nt", "8"]
              for p in (13, -15)]
    runs += [[command, *stencil, *flags] for stencil in (overflowing, *scaled)
             for command, *flags in (("simulate",),
                                     ("solve-error", "--variant", "causal", "--method", "kron"))]
    # phases 2*pi/wavelength*(x - c*t) that overflow; an M2 with real
    # eigenvalues (alpha*gamma > 0) for Bartels-Stewart; sigma_min at 40^2,
    # just above the LU pivot threshold, and at 60^2, below it
    runs += [["simulate", "--scheme", "lax", "--nx", "6", "--nt", "6",
              "--n-lambda", "1e-320"],
             ["simulate", "--scheme", "lax", "--nx", "6", "--nt", "6",
              "--h", "1e300", "--lambda", "1e-10"],
             ["solve-error", "--coeffs", "1,0.5,0.3,0.2,0.1,0,0,0,0", "--nx", "20",
              "--nt", "20", "--method", "bartels-stewart", "--out", "error.csv"],
             ["diagnose", "--scheme", "crank-nicolson", "--nx", "40", "--nt", "40"],
             ["diagnose", "--scheme", "crank-nicolson", "--nx", "60", "--nt", "60"]]
    # Lax-Wendroff's paper K, singular to the pivot threshold at 100^2, under
    # both of its eliminations; the three-level, non-normal pair that is
    # the command line's route into Hessenberg-Schur, at 11^2
    runs += [["solve-error", "--scheme", "lax-wendroff", "--nx", "100", "--nt", "100",
              "--method", method] for method in ("bartels-stewart", "kron")]
    runs.append(["solve-error", "--coeffs", "1,0.5,0.3,0.2,0.1,0,0,0,0", "--nx", "11",
                 "--nt", "11", "--method", "bartels-stewart"])
    # causal kron past MAX_VEC_SIZE, which guards only band and dense storage
    runs.append(["solve-error", "--scheme", "leapfrog", "--nx", "150", "--nt", "150",
                 "--variant", "causal", "--method", "kron"])
    # a subnormal operator whose COD pivot underflows when scaled back;
    # spectra and Hessenberg reductions near 1e308; diagnose's size guard on
    # a corner stencil, which comes before the report
    runs.append(["solve-error", "--coeffs", "1.5e-323,5e-324,0,5e-324,0,0,0,0,0",
                 "--nx", "5", "--nt", "5", "--method", "min-norm", "--out", "error.csv"])
    runs += [["solve-error", "--coeffs", coeffs, "--nx", "6", "--nt", "6",
              "--method", method, "--out", "error.csv"]
             for coeffs, methods in (("1e307,1.7e308,1e307,0,0,0,0,0,0", METHODS),
                                     ("1e308,1e308,0,1e308,-1e308,0,0,0,0",
                                      ("bartels-stewart",)))
             for method in methods]
    runs.append(["diagnose", "--scheme", "crank-nicolson", "--nx", "150", "--nt", "150"])
    # the stencil sums near the float limit, as tests/test_cli.py runs them:
    # a min-norm residual that overflows, in one solve and in a 3-signal
    # sweep; products and sums that overflow in the right-hand side; finite
    # products whose sum overflows, in the right-hand side (min-norm) and in
    # the residual check (min-norm, causal kron)
    huge_pair = ["--coeffs", "1,0,0,1e308,-1e308,0,0,0,0", "--nx", "6", "--nt", "6"]
    runs += [["solve-error", *huge_pair, "--method", "min-norm"],
             ["sweep", *huge_pair, "--nl-min", "5", "--nl-max", "9", "--nl-step", "2"]]
    runs += [["solve-error", "--coeffs", coeffs, "--nx", "6", "--nt", "6", "--method", method]
             for coeffs, methods in (("1e307,1.7e308,1e307,0,0,0,0,0,0", METHODS),
                                     ("1,1.7e308,0,1.7e308,0,0,0,0,0", ("kron",)))
             for method in methods]
    # (a coefficient list that starts with a minus sign needs the --coeffs=
    # form; it comes last, so that the flags before it pair up in group())
    runs += [["solve-error", "--nx", "5", "--nt", "4", *flags, f"--coeffs={coeffs}"]
             for coeffs, flags in (("2,2,1e308,0,2,1e-300,1,1e-300,1e308", ()),
                                   ("-1e308,1e-300,1e308,0,0,0,-1e308,-1,-1", ()),
                                   ("-1e308,0,1,-1e308,0,1,0,-1,1e308",
                                    ("--variant", "causal", "--method", "kron")))]
    # config files: the study file's --scheme and --tau drop its coeffs and
    # sigma, and sweep ignores its n_lambda and lambda
    runs += [["sweep", "--config", "study.cfg", "--scheme", "leapfrog", "--tau", "0.25"],
             ["simulate", "--config", "unknown.cfg"],
             ["solve-error", "--config", "sigma.cfg", "--tau", "0.5", "--method", "kron"],
             ["diagnose", "--config", "both.cfg"]]
    # a flag the command does not read; a sweep count numpy cannot size
    runs += [["diagnose", "--scheme", "lax", "--out", "field.csv"],
             ["sweep", "--scheme", "lax", "--nx", "6", "--nt", "6", "--nl-max", "1e300",
              "--nl-step", "1e-3"]]
    # a causal march that grows 1e12 a level: the squares of the last two
    # isovalue columns overflow, and grid_l2_squared, which the chart plots,
    # exceeds the float range; the refused chart leaves the CSV and iso files
    growing = ["sweep", "--coeffs", "1e-12,1,0,0,0,0,0,0,0", "--variant", "causal",
               "--method", "kron", "--nx", "6", "--nt", "14", "--nl-min", "5",
               "--nl-max", "9", "--nl-step", "2"]
    runs += [[*growing, "--out", "sweep.csv", "--iso", "iso.csv"],
             [*growing, "--svg", "sweep.svg"],
             [*growing, "--out", "sweep.csv", "--svg", "sweep.svg", "--iso", "iso.csv"]]
    # grids whose arrays numpy cannot size
    runs += [[command, "--scheme", "lax", "--nx", nx, "--nt", nt]
             for nx, nt in (("6", "4000000000000000000"), ("10000000000000000000", "6"))
             for command in ("simulate", "solve-error", "sweep", "diagnose")]
    return runs


def run(cli, argv):
    """(exit code, stdout, stderr, [(file name, sha256)]) of one invocation
    in a fresh directory; an exception escaping main is recorded by name."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    config = dict(zip(argv[1::2], argv[2::2])).get("--config")
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            Path(tmp, config).write_text(CONFIGS[config], encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                code = cli.main(list(argv))
        except Exception as exc:  # record it and go on with the matrix
            code = f"raised {type(exc).__name__}"
        finally:
            os.chdir(cwd)
        files = [(p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                 for p in sorted(Path(tmp).iterdir())]
    return code, out.getvalue(), err.getvalue(), files


def group(argv):
    """(command, variant, method) of one invocation, "-" for an absent flag."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    return (argv[0], flags.get("--variant", "-"), flags.get("--method", "-"))


def main(argv):
    listing = "--list" in argv
    argv = [arg for arg in argv if arg != "--list"]
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src")
    if not (src / "advectbench" / "__init__.py").is_file():
        print(f"error: no advectbench sources under {src}", file=sys.stderr)
        return 2
    root = str(src.resolve())
    sys.path.insert(0, root)
    from advectbench import cli

    total, codes, groups, lines = hashlib.sha256(), Counter(), {}, []
    runs = matrix()
    for args in runs:
        code, out, err, files = run(cli, args)
        out, err = out.replace(root, "<src>"), err.replace(root, "<src>")
        codes[code] += 1
        record = (json.dumps([args, code, out, err, files]) + "\n").encode()
        total.update(record)
        groups.setdefault(group(args), hashlib.sha256()).update(record)
        lines.append(f"{hashlib.sha256(record).hexdigest()[:12]} {code} {shlex.join(args)}")
    print(f"invocations: {len(runs)}")
    print("exit codes: " + " / ".join(f"{n}x{code}" for code, n in
                                      sorted(codes.items(), key=lambda kv: str(kv[0]))))
    print(f"sha256: {total.hexdigest()}")
    for key, digest in sorted(groups.items()):
        print(f"  {' '.join(key)}: {digest.hexdigest()}")
    if listing:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
