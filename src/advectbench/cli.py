"""Command-line front end.

Subcommands:

* ``simulate``    -- time-step a scheme, report error norms, optionally dump
  the field and error matrices as CSV.
* ``solve-error`` -- solve the matricial error equation and report norms,
  the uniqueness verdict (sylvester.SolvabilityReport) and the residual.
* ``sweep``       -- sweep cells-per-wavelength, writing one CSV row per
  point (simulation and matrix-equation error norms side by side) and an
  optional SVG line chart.
* ``diagnose``    -- print the normalized operator spectra and the
  uniqueness verdict of the paper closure, plus structural notes.

A command accepts ``--config`` and only the flags it reads; any other flag is
a usage error.  All take the stencil and grid flags ``--scheme``/``--coeffs``,
``--nx``, ``--nt``, ``--h``, ``--sigma``/``--tau`` and ``--c``, which are all
``diagnose`` reads.  ``simulate`` adds ``--n-lambda``/``--lambda`` and
``--out``; ``solve-error`` adds those and ``--variant``, ``--method``;
``sweep`` adds ``--variant``, ``--method``, ``--nl-min``, ``--nl-max``,
``--nl-step``, ``--out``, ``--svg`` and ``--iso``.

Exit codes: 0 success, 1 usage error (an output path that cannot be
written included), 2 numerical failure, 3 singular system without the
min-norm method.

Flags override an optional ``key=value`` config file (``--config``), and a
flag of an exclusive pair (``--sigma``/``--tau``, ``--scheme``/``--coeffs``,
``--n-lambda``/``--lambda``) drops the file's value for the other.  A config
file may set any key of the flag table, so that one study file serves several
commands; keys the running command does not read are ignored, unknown keys
are errors.  Floats are written with round-trip precision so identical
configurations produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import advect, assembly, linalg, sylvester
from .errors import AdvectBenchError, NumericalFailureError, SingularSystemError, UsageError
from .schemes import (BUILTIN_SCHEMES, Discretization, SignalSpec,
                      builtin_scheme, custom_scheme)


_Flag = namedtuple("_Flag", "flag type default help choices", defaults=(None,))

# config key -> flag: the argparse flags, the config-file value types and the
# defaults all come from here.  The sigma and n_lambda defaults apply only
# when their exclusive partner is unset.
_FLAGS = {
    "scheme": _Flag("--scheme", str, None, "built-in scheme name: " + ", ".join(BUILTIN_SCHEMES)),
    "coeffs": _Flag("--coeffs", str, None, "nine custom stencil coefficients a,b,g,d,e,z,h,t,v"),
    "nx": _Flag("--nx", int, 20, "space steps"),
    "nt": _Flag("--nt", int, 20, "time steps"),
    "h": _Flag("--h", float, 1.0, "mesh size"),
    "sigma": _Flag("--sigma", float, 0.8, "CFL number"),
    "tau": _Flag("--tau", float, None, "time step (alternative to --sigma)"),
    "c": _Flag("--c", float, 1.0, "advection speed"),
    "n_lambda": _Flag("--n-lambda", float, 10.0, "cells per wavelength"),
    "wavelength": _Flag("--lambda", float, None, "wavelength (alternative to --n-lambda)"),
    "variant": _Flag("--variant", str, "paper", "closure variant", assembly.VARIANTS),
    "method": _Flag("--method", str, "min-norm", "error-equation method", sylvester.METHODS),
    "nl_min": _Flag("--nl-min", float, 4.0, "sweep lower bound on n_lambda"),
    "nl_max": _Flag("--nl-max", float, 20.0, "sweep upper bound on n_lambda"),
    "nl_step": _Flag("--nl-step", float, 0.2, "sweep step on n_lambda"),
    "out": _Flag("--out", str, None, "output CSV path"),
    "svg": _Flag("--svg", str, None, "output SVG path"),
    "iso": _Flag("--iso", str, None, "isovalue CSV grid path: per-time-column error norms"),
}
_STENCIL_GRID = ("scheme", "coeffs", "nx", "nt", "h", "sigma", "tau", "c")

# a flag of one of these pairs drops the config file's value for the other;
# both given on the command line, or both in the file, is a usage error
_EXCLUSIVE = (("sigma", "tau"), ("scheme", "coeffs"), ("n_lambda", "wavelength"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _fmt(x):
    """Round-trip decimal representation of a float."""
    return repr(float(x))


def _read_config(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "wavelength"
        if key not in _FLAGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _FLAGS[key].type(raw.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge(args):
    """Layer command-line flags over the optional config file, keeping only
    the keys the command reads: those its parser set on ``args``."""
    config = _read_config(args.config) if args.config else {}
    merged = {key: value for key, value in config.items() if hasattr(args, key)}
    flags = {key: getattr(args, key) for key in _FLAGS
             if getattr(args, key, None) is not None}
    for pair in _EXCLUSIVE:
        for key, other in (pair, pair[::-1]):
            if key in flags:
                merged.pop(other, None)
    merged.update(flags)
    return merged


def _resolve(args):
    m = _merge(args)
    get = lambda key: m.get(key, _FLAGS[key].default)
    nx, nt, h, c = get("nx"), get("nt"), get("h"), get("c")
    for key, other in _EXCLUSIVE:
        if key in m and other in m:
            raise UsageError(f"give exactly one of {_FLAGS[key].flag} "
                             f"and {_FLAGS[other].flag}")
    if "tau" in m:
        disc = Discretization(nx=nx, nt=nt, h=h, tau=m["tau"], c=c)
    else:
        disc = Discretization.from_cfl(nx=nx, nt=nt, h=h,
                                       sigma=get("sigma"), c=c)
    if "coeffs" in m:
        parts = [p for p in m["coeffs"].replace(",", " ").split() if p]
        try:
            scheme = custom_scheme([float(p) for p in parts])
        except ValueError as exc:
            raise UsageError(f"bad --coeffs value: {exc}") from exc
    elif "scheme" in m:
        scheme = builtin_scheme(m["scheme"], disc)
    else:
        raise UsageError(
            f"a scheme is required: --scheme {{{','.join(BUILTIN_SCHEMES)}}} "
            "or --coeffs a,b,g,d,e,z,h,t,v")
    if "wavelength" in m:
        signal = SignalSpec.from_wavelength(m["wavelength"], disc)
    else:
        signal = SignalSpec.from_cells_per_wavelength(get("n_lambda"), disc)
    # the run: scheme, grid and signal, and each other setting or its default
    return argparse.Namespace(scheme=scheme, disc=disc, signal=signal, **{
        key: get(key) for key in _FLAGS if key not in _STENCIL_GRID})


def _write_field_csv(path, values):
    rows, cols = values.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("i," + ",".join(f"n{n}" for n in range(1, cols + 1)) + "\n")
        for r in range(rows):
            fh.write(",".join([str(r + 1)] + [_fmt(v) for v in values[r]]) + "\n")


def _print_summary(label, summary):
    print(f"{label}: frob={_fmt(summary.frob)} grid_l2={_fmt(summary.grid_l2)} "
          f"grid_l2_squared={_fmt(summary.grid_l2_squared)} "
          f"max_abs={_fmt(summary.max_abs)}")


def _derived_path(path, suffix):
    stem, ext = os.path.splitext(path)
    return stem + suffix + ext


def cmd_simulate(args):
    cfg = _resolve(args)
    known = advect.sample_nodes(cfg.disc, cfg.signal)
    u = advect.time_step_simulate(cfg.scheme, cfg.disc, known)
    e = advect.error_matrix(u, advect.FieldMatrix(known[1:-1, 1:], cfg.disc))
    _print_summary("error", advect.error_summary(e))
    if cfg.out:
        _write_field_csv(cfg.out, u.values)
        _write_field_csv(_derived_path(cfg.out, "_error"), e.values)
        print(f"wrote {cfg.out} and {_derived_path(cfg.out, '_error')}")
    return 0


def _print_report(report):
    """The verdict line: a kernel's names it and prints no spectral number."""
    why = (f"min_separation={_fmt(report.min_separation)} sep_tol={_fmt(report.sep_tol)}"
           if report.verdict == "spectral" else f"verdict={report.verdict}")
    print(f"unique={'true' if report.unique else 'false'} {why}")


def cmd_solve_error(args):
    cfg = _resolve(args)
    solver = sylvester.ErrorEquationSolver(cfg.scheme, cfg.disc,
                                           variant=cfg.variant, method=cfg.method)
    e, report, residual = solver.solve(cfg.signal)
    _print_summary("error", advect.error_summary(e))
    _print_report(report)
    print(f"residual={_fmt(residual)}")
    if cfg.method == "min-norm":
        fac = solver.factorization
        print(f"rank={fac.rank} of {fac.size}")
    if cfg.out:
        _write_field_csv(cfg.out, e.values)
        print(f"wrote {cfg.out}")
    return 0


@dataclass(frozen=True)
class SweepRecord:
    """One row of the cells-per-wavelength study; the fields are the CSV
    columns, in order."""

    n_lambda: float
    err_sim_frob: float
    err_sim_grid_l2: float
    err_sim_grid_l2_squared: float
    err_mtx_frob: float
    err_mtx_grid_l2: float
    err_mtx_grid_l2_squared: float
    unique: bool
    min_separation: float  # None, an empty cell, for a kernel's verdict

    def csv_row(self):
        values = (getattr(self, name) for name in SWEEP_COLUMNS)
        return ",".join("" if v is None else ("true" if v else "false")
                        if isinstance(v, (bool, np.bool_)) else _fmt(v) for v in values)


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def sweep_values(nl_min, nl_max, nl_step):
    for flag, value in (("min", nl_min), ("max", nl_max), ("step", nl_step)):
        if not np.isfinite(value):
            raise UsageError(f"--nl-{flag} must be finite, got {value}")
    if not nl_step > 0.0:
        raise UsageError(f"--nl-step must be positive, got {nl_step}")
    if nl_min > nl_max:
        raise UsageError(f"empty sweep range: {nl_min} > {nl_max}")
    steps = (nl_max - nl_min) / nl_step + 1e-9
    if not np.isfinite(steps):
        raise UsageError(f"--nl-step {nl_step:g} is too small for the range "
                         f"[{nl_min:g}, {nl_max:g}]: the step count is not finite")
    count = int(np.floor(steps))
    try:
        return (nl_min + np.arange(count + 1) * nl_step).tolist()
    except ValueError as exc:  # a count numpy cannot even size
        raise MemoryError(exc) from exc


def run_sweep(cfg):
    """Evaluate both error paths over the n_lambda grid, ordered ascending:
    the solver's set-up, then one sampling and one march of all the
    signals, then one error-equation solve per signal, in n_lambda order;
    the first failure of these steps ends the sweep.  The simulation errors
    are one subtraction in place of the march's stack, normed over it at once.

    Returns (records, iso) where iso maps each n_lambda to the per-time-column
    Euclidean norms of the simulation error (the isovalue grid) if cfg.iso.
    """
    n_lambdas = sweep_values(cfg.nl_min, cfg.nl_max, cfg.nl_step)
    solver = sylvester.ErrorEquationSolver(cfg.scheme, cfg.disc,
                                           variant=cfg.variant, method=cfg.method)
    signals = [SignalSpec.from_cells_per_wavelength(nl, cfg.disc) for nl in n_lambdas]
    known = advect.sample_nodes(cfg.disc, signals)
    errors = advect.time_step_simulate(cfg.scheme, cfg.disc, known)[0].values.base
    errors -= known[:, 1:-1, 1:]  # U - U_exact, in the fields' one stack
    # the roots of each field's sum of squares, or frobenius_norm's rescaled
    # path where a sum leaves the normal floats; so for each time column
    with np.errstate(over="ignore"):
        totals = np.sum(errors * errors, axis=(1, 2))
    sim_frobs = np.sqrt(totals)
    for k in np.flatnonzero(np.isinf(totals) | (totals < linalg._TINY)):
        sim_frobs[k] = linalg._frobenius(errors[k])
    records, iso = [], []
    if cfg.iso:
        with np.errstate(over="ignore"):
            sums = np.sum(errors * errors, axis=1)
        columns = np.sqrt(sums)
        for k, j in zip(*np.nonzero(np.isinf(sums) | ((sums < linalg._TINY)
                                                      & errors.any(axis=1)))):
            columns[k, j] = linalg._frobenius(errors[k, :, j:j + 1])
        iso = list(zip(n_lambdas, columns))
    for nl, signal, sim_frob in zip(n_lambdas, signals, sim_frobs.tolist()):
        e_field, report, _ = solver.solve(signal)
        e_mtx = advect.error_summary(e_field)
        records.append(SweepRecord(nl, *advect._grid_norms(sim_frob, cfg.disc),
                                   e_mtx.frob, e_mtx.grid_l2, e_mtx.grid_l2_squared,
                                   report.unique, report.min_separation))
    return records, iso


def write_sweep_csv(records, stream):
    stream.write(",".join(SWEEP_COLUMNS) + "\n")
    for rec in records:
        stream.write(rec.csv_row() + "\n")


def write_sweep_svg(records, path):
    """Self-contained line chart: grid_l2_squared of both paths vs n_lambda;
    a value beyond the float range raises NumericalFailureError before path is opened."""
    for column in ("err_sim_grid_l2_squared", "err_mtx_grid_l2_squared"):
        beyond = [r.n_lambda for r in records if not np.isfinite(getattr(r, column))]
        if beyond:
            raise NumericalFailureError(f"{column} exceeds the floating-point range at "
                                        f"n_lambda {_fmt(beyond[0])}; the chart cannot plot it")
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 20, 50
    xs = [r.n_lambda for r in records]
    series = [("simulation", "#1f77b4", [r.err_sim_grid_l2_squared for r in records]),
              ("matrix equation", "#d62728", [r.err_mtx_grid_l2_squared for r in records])]
    x0, x1 = min(xs), max(xs)
    ymax = max(max(ys) for _, _, ys in series) or 1.0
    xspan = (x1 - x0) or 1.0

    def px(x):
        return ml + (x - x0) / xspan * (width - ml - mr)

    def py(y):
        return height - mb - y / ymax * (height - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
             f'<text x="{(ml + width - mr) / 2}" y="{height - 12}" text-anchor="middle" '
             f'font-size="13">cells per wavelength</text>',
             f'<text x="14" y="{(mt + height - mb) / 2}" text-anchor="middle" font-size="13" '
             f'transform="rotate(-90 14 {(mt + height - mb) / 2})">squared grid L2 error</text>']
    for k in range(5):
        xv = x0 + k * xspan / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{height - mb + 16}" text-anchor="middle" '
                     f'font-size="11">{xv:g}</text>')
        yv = ymax * k / 4
        parts.append(f'<text x="{ml - 6}" y="{py(yv):.1f}" text-anchor="end" '
                     f'font-size="11">{yv:.3g}</text>')
    for idx, (label, color, ys) in enumerate(series):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 18 * idx
        parts.append(f'<line x1="{width - 190}" y1="{ly - 4}" x2="{width - 165}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - 160}" y="{ly}" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def write_iso_csv(iso, path):
    """Isovalue grid: one row per n_lambda, one column per time level, entries
    the Euclidean norm over space of that error column."""
    cols = len(iso[0][1]) if iso else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n_lambda," + ",".join(f"n{n}" for n in range(1, cols + 1)) + "\n")
        for nl, row in iso:
            fh.write(",".join([_fmt(nl)] + [_fmt(v) for v in row]) + "\n")


def cmd_sweep(args):
    cfg = _resolve(args)
    records, iso = run_sweep(cfg)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            write_sweep_csv(records, fh)
        print(f"wrote {cfg.out} ({len(records)} rows)")
    else:
        write_sweep_csv(records, sys.stdout)
    if cfg.iso:  # before the chart, which may refuse to plot
        write_iso_csv(iso, cfg.iso)
    if cfg.svg:
        write_sweep_svg(records, cfg.svg)
        print(f"wrote {cfg.svg}")
    if cfg.iso:
        print(f"wrote {cfg.iso}")
    return 0


def _fmt_complex(z):
    return f"{z.real:+.12e}{z.imag:+.12e}j"


def cmd_diagnose(args):
    cfg = _resolve(args)
    s, d = cfg.scheme, cfg.disc
    # the size guard comes before the report, so a usage error prints nothing
    entries = assembly.operator_entries(s, d, "paper") if s.has_corner_terms else None
    # the CFL normalization: the whole system scaled by h*sigma/c = tau
    report = sylvester.diagnose(sylvester.SylvesterProblem(
        d.tau * assembly.build_m1(s, d), d.tau * assembly.build_m2(s, d),
        np.zeros((d.nx - 1, d.nt))))
    key = lambda z: (z.real, z.imag)
    print("spectrum of normalized M1:")
    for z in sorted(report.spectrum_a, key=key):
        print(f"  {_fmt_complex(z)}")
    print("spectrum of normalized -M2:")
    for z in sorted(report.spectrum_neg_b, key=key):
        print(f"  {_fmt_complex(z)}")
    _print_report(report)
    if entries is not None:
        try:
            smin = _fmt(linalg.smallest_singular_value_from_entries(*entries))
        except SingularSystemError as exc:
            smin = f"below the LU pivot threshold ({exc})"
        print("note: L != 0, so uniqueness diagnostics apply to the "
              "vectorized global operator")
        print(f"smallest singular value of the vectorized operator: {smin}")
    if not s.is_three_level:
        print("note: two-level stencil, so the initial data u_i^0 never "
              "enters the interior columns of M0 in the paper closure")
    print("note: the paper closure's final time column is a truncated "
          "stencil (future terms beyond the horizon are absent)")
    return 0


@functools.cache
def build_parser():
    parser = _Parser(prog="advectbench",
                     description="finite-difference scheme workbench for the "
                                 "1-D transport equation")
    sub = parser.add_subparsers(dest="command", metavar="command")
    signal = ("n_lambda", "wavelength")
    for name, func, desc, keys in (
            ("simulate", cmd_simulate, "time-step a scheme and report error norms",
             _STENCIL_GRID + signal + ("out",)),
            ("solve-error", cmd_solve_error, "solve the matricial error equation",
             _STENCIL_GRID + signal + ("variant", "method", "out")),
            ("sweep", cmd_sweep, "sweep cells per wavelength",
             _STENCIL_GRID + ("variant", "method", "nl_min", "nl_max", "nl_step",
                              "out", "svg", "iso")),
            ("diagnose", cmd_diagnose,
             "operator spectra and uniqueness verdict of the paper closure",
             _STENCIL_GRID)):
        p = sub.add_parser(name, help=desc, description=desc)
        for key in keys:
            f = _FLAGS[key]
            default = "" if f.default is None else f" (default {f.default})"
            p.add_argument(f.flag, dest=key, type=f.type, choices=f.choices,
                           help=f.help + default)
        p.add_argument("--config", help="key=value config file; flags override")
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the usage of the command that was given
            getattr(args, "parser", parser).error(
                f"unrecognized arguments: {' '.join(extra)}")
        if not getattr(args, "func", None):
            raise UsageError(parser.format_usage())
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 1
    except SingularSystemError as exc:
        print(f"singular system: {exc}", file=sys.stderr)
        return 3
    except AdvectBenchError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
