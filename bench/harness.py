"""Workloads, timing loop, output checks and the result line.

A workload is a list of requests, each the argv a user would type after
``advectbench``, driven in-process through ``advectbench.cli.main`` by one
closed-loop client: each request starts when the previous one has ended.
One pass runs the whole list; a run repeats passes for the given number of
seconds and reports medians over passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gauge
import oracle
import spans
from advectbench import cli, sylvester

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3           # untraced passes per run, whatever the budget
MIN_TRACED_PAIRS = 2     # (untraced, traced) pass pairs per traced run
IMPORT_SAMPLES = 3       # fresh-process imports behind cli.import_s

SWEEP_SCHEMES = ("leapfrog", "lax", "lax-wendroff", "crank-nicolson")
# Grid ladder per method for the refinement workload.  No rung exceeds the
# size at which today's code still finishes (kron 40^2, bartels-stewart
# 60^2, min-norm 30^2); kron 40^2 (6 s a request) and min-norm 30^2 (4 s)
# are left out so that several passes fit in one run.  The ladder starts at
# 20^2 for kron and bartels-stewart because the Lax-Wendroff defect only
# shows from there on (at 10^2 its residual is 1e-8, a pass).
REFINE_SCHEMES = ("leapfrog", "lax-wendroff")
REFINE_LADDER = (("kron", (20, 30)),
                 ("bartels-stewart", (20, 40, 60)),
                 ("min-norm", (10, 20)))


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the number of signals it solves."""

    command: str
    flags: tuple            # ((flag, value), ...) in argv order
    signals: int

    @property
    def argv(self):
        out = [self.command]
        for flag, value in self.flags:
            out += [f"--{flag}", value]
        return out

    def flag(self, name, default=None):
        return dict(self.flags).get(name, default)

    @property
    def known_defect(self):
        """Lax-Wendroff, paper closure, kron or Bartels-Stewart: the solve
        exits 0 with a meaningless field (ROADMAP open item 2)."""
        return (self.flag("scheme") == "lax-wendroff"
                and self.flag("variant", "paper") == "paper"
                and self.flag("method", "min-norm") in ("kron", "bartels-stewart"))

    def label(self):
        return " ".join(self.argv)


def _num(x):
    return repr(float(x))


def _sweep(scheme, nl_min, nl_step, rows, **flags):
    # nl_max sits half a step past the last row, so the row count does not
    # hinge on rounding
    nl_max = nl_min + (rows - 0.5) * nl_step
    pairs = [("scheme", scheme)] + [(k.replace("_", "-"), str(v)) for k, v in flags.items()]
    pairs += [("nl-min", _num(nl_min)), ("nl-max", _num(nl_max)),
              ("nl-step", _num(nl_step))]
    return Request("sweep", tuple(pairs), rows)


def _solve(scheme, method, n, n_lambda):
    return Request("solve-error", (
        ("scheme", scheme), ("variant", "paper"), ("method", method),
        ("nx", str(n)), ("nt", str(n)), ("n-lambda", _num(n_lambda))), 1)


def sweep_requests(rng):
    """The default user request on every catalogue scheme: paper closure,
    min-norm, 20^2, a fine n_lambda grid offset by the seed."""
    nl_min = 4.0 + 0.1 * rng.random()
    return [_sweep(s, nl_min, 0.1, 161) for s in SWEEP_SCHEMES]


def refine_requests(rng):
    """One solve-error per scheme, method and rung, each with its own signal."""
    return [_solve(s, method, n, 6.0 + 10.0 * rng.random())
            for s in REFINE_SCHEMES
            for method, sizes in REFINE_LADDER for n in sizes]


def causal_requests(rng):
    """The causal closure through kron at 20^2 and 30^2 on a coarse grid."""
    nl_min = 4.0 + 2.0 * rng.random()
    return [_sweep(s, nl_min, 2.0, 9, variant="causal", method="kron", nx=n, nt=n)
            for n in (20, 30) for s in SWEEP_SCHEMES]


def smoke_requests(rng):
    """Tiny requests for the benchmark's own test, one known-bad among them."""
    return [_solve("lax-wendroff", "kron", 20, 9.0 + rng.random()),
            _solve("leapfrog", "bartels-stewart", 8, 9.0 + rng.random()),
            _sweep("lax", 4.0 + rng.random(), 4.0, 3, nx=6, nt=6),
            _sweep("crank-nicolson", 4.0 + rng.random(), 4.0, 3,
                   variant="causal", method="kron", nx=6, nt=6)]


WORKLOADS = {"sweep": sweep_requests, "refine": refine_requests,
             "causal": causal_requests, "smoke": smoke_requests}


def warmup_requests(requests):
    """The workload's distinct request kinds at 6^2, for imports and
    first-call set-up."""
    seen, out = set(), []
    for req in requests:
        key = (req.command, req.flag("scheme"), req.flag("variant"), req.flag("method"))
        if key in seen:
            continue
        seen.add(key)
        flags = dict(req.flags, nx="6", nt="6")
        if req.command == "sweep":
            flags["nl-step"] = "4.0"
        out.append(Request(req.command, tuple(flags.items()), 0))
    return out


# ---------------------------------------------------------------- passes


@dataclass
class Solve:
    """One captured solve.  It keeps the solver's inputs, not the solver,
    whose dense operators would otherwise stay alive and inflate the peak
    memory."""

    request: int
    scheme: object
    disc: object
    variant: str
    method: str
    signal: object
    values: np.ndarray


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    request_wall: list       # seconds per request
    request_setup: list      # solver set-up seconds per request
    request_gauge: list      # host gauge reading around each request
    outputs: list            # (exit code or None, stdout, stderr) per request
    solves: list
    tracer: object = None
    matches_first: bool = True

    @property
    def bytes_written(self):
        return sum(len(out.encode()) + len(err.encode()) for _, out, err in self.outputs)

    @property
    def traced(self):
        return self.tracer is not None


class Probe:
    """The two hooks every pass carries: solver set-up time (one timer pair
    per ErrorEquationSolver construction) and a copy of each solve's field
    for the output check."""

    def __init__(self):
        self.request = -1
        self.setup_s = 0.0
        self.solves = []

    def installed(self):
        cls = sylvester.ErrorEquationSolver
        init, solve = cls.__dict__["__init__"], cls.__dict__["solve"]
        probe = self

        def timed_init(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                init(self, *args, **kwargs)
            finally:
                probe.setup_s += time.perf_counter() - start

        def captured_solve(self, signal):
            result = solve(self, signal)
            probe.solves.append(Solve(probe.request, self.scheme, self.disc,
                                      self.variant, self.method, signal,
                                      result[0].values))
            return result

        return spans.patched([(cls, "__init__", timed_init),
                              (cls, "solve", captured_solve)])


def call_cli(argv):
    """(exit code, stdout, stderr); an exception escaping main counts as a
    crashed request with exit code None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the run must go on and report the request as failed
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_pass(requests, probe, host, tracer=None):
    probe.request, probe.setup_s, probe.solves = -1, 0.0, []
    walls, setups, readings, outputs = [], [], [], []
    gc.collect()
    with spans.traced(tracer) if tracer else contextlib.nullcontext():
        cpu0 = time.process_time()
        start = time.perf_counter()
        before = host.read()
        for idx, req in enumerate(requests):
            probe.request = idx
            if tracer:
                tracer.request = idx
            setup0 = probe.setup_s
            t0 = time.perf_counter()
            outputs.append(call_cli(req.argv))
            walls.append(time.perf_counter() - t0)
            setups.append(probe.setup_s - setup0)
            after = host.read()
            readings.append(0.5 * (before + after))
            before = after
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
    return Pass(wall, cpu, walls, setups, readings, outputs, probe.solves, tracer)


def run_passes(requests, seconds, trace):
    """Passes until the next one would overrun `seconds`.  A traced run
    alternates untraced and traced passes, so that the tracing overhead is
    measured under the same conditions."""
    probe, host = Probe(), gauge.Gauge()
    passes = []
    start = time.perf_counter()
    with probe.installed():
        while True:
            for tracer in ((None, spans.Tracer()) if trace else (None,)):
                p = run_pass(requests, probe, host, tracer)
                if passes:
                    # only the first pass's fields are kept for the check
                    p.matches_first = _same(passes[0], p)
                    p.solves = None
                passes.append(p)
            elapsed = time.perf_counter() - start
            step = elapsed / (len(passes) // (2 if trace else 1))
            enough = (len(passes) >= 2 * MIN_TRACED_PAIRS if trace
                      else len(passes) >= MIN_PASSES)
            if enough and elapsed + step > seconds:
                return passes


# ---------------------------------------------------------------- checks


def _grid(disc):
    return disc.nx, disc.nt, disc.h, disc.tau, disc.c


def _close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _printed_rows(req, stdout):
    """(n_lambda, simulator frob, matrix frob) per printed signal; None
    where the command does not print it."""
    lines = stdout.splitlines()
    if req.command == "solve-error":
        # "error: frob=<x> grid_l2=..."
        return [(None, None, float(lines[0].split()[1].partition("=")[2]))]
    if lines[0] != ",".join(cli.SWEEP_COLUMNS):
        raise ValueError("sweep CSV header missing")
    rows = [line.split(",") for line in lines[1:]]
    return [(float(r[0]), float(r[1]), float(r[4])) for r in rows]


def check_request(req, output, solves):
    """Failed signal count of one request, with the reasons."""
    code, stdout, stderr = output
    if code != 0:
        return req.signals, [f"exit code {code}: {stderr.strip()[-200:]}"]
    if len(solves) != req.signals:
        return req.signals, [f"{len(solves)} solves for {req.signals} signals"]
    try:
        rows = _printed_rows(req, stdout)
    except (IndexError, ValueError):
        return req.signals, ["output does not parse"]
    if len(rows) != req.signals:
        return req.signals, [f"{len(rows)} output rows for {req.signals} signals"]

    failed, reasons = 0, []
    for k, ((n_lambda, sim_frob, mtx_frob), solve) in enumerate(zip(rows, solves)):
        ok, measure, tol = oracle.check_solve(
            solve.scheme.as_tuple(), _grid(solve.disc), solve.signal.wavelength,
            solve.variant, solve.method, solve.values)
        why = [] if ok else [f"signal {k}: {measure:.3e} > {tol:.0e}"]
        if not _close(mtx_frob, float(np.linalg.norm(solve.values))):
            why.append(f"signal {k}: printed frob {mtx_frob!r} is not the field's")
        if n_lambda is not None and n_lambda != solve.signal.n_lambda:
            why.append(f"signal {k}: row n_lambda {n_lambda!r} != {solve.signal.n_lambda!r}")
        if solve.variant == "causal":
            agree, dev, tol = oracle.check_causal_row(sim_frob, mtx_frob)
            if not agree:
                why.append(f"signal {k}: simulator deviation {dev:.3e} > {tol:.0e}")
        if why:
            failed += 1
            reasons += why
    return failed, reasons


def _same(a, b):
    """Two passes gave byte-identical outputs and fields."""
    return (a.outputs == b.outputs and len(a.solves) == len(b.solves)
            and all(x.request == y.request and x.values.tobytes() == y.values.tobytes()
                    for x, y in zip(a.solves, b.solves)))


def check_passes(requests, passes):
    """Check the first pass against the oracle and every other pass against
    the first.  Returns (attempted, failed, correct, report lines)."""
    first = passes[0]
    per_request = []
    for idx, req in enumerate(requests):
        solves = [s for s in first.solves if s.request == idx]
        per_request.append(check_request(req, first.outputs[idx], solves))
    failed_per_pass = sum(f for f, _ in per_request)
    signals = sum(r.signals for r in requests)
    identical = all(p.matches_first for p in passes)
    attempted = signals * len(passes)
    failed = failed_per_pass * len(passes) if identical else attempted
    unexpected = [i for i, (f, _) in enumerate(per_request)
                  if f and not requests[i].known_defect]
    lines = []
    for idx, (f, reasons) in enumerate(per_request):
        if f:
            tag = "known defect" if requests[idx].known_defect else "UNEXPECTED"
            lines.append(f"failed {f}/{requests[idx].signals} [{tag}] "
                         f"{requests[idx].label()}: {'; '.join(reasons[:3])}")
    if not identical:
        lines.append("UNEXPECTED: passes disagree; every signal counts as failed")
    return attempted, failed, identical and not unexpected, lines


# ---------------------------------------------------------------- metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def scale(p):
    """Per-request factors from seconds to reference seconds: the host
    gauge's reference reading over its reading around the request."""
    return [gauge.REFERENCE / g for g in p.request_gauge]


def _ref_sum(p, values):
    return sum(v * f for v, f in zip(values, scale(p)))


def end_to_end(requests, passes, peak_rss_mb):
    """{metric: (median over untraced passes, unit, per-pass values)}."""
    signals = sum(r.signals for r in requests)
    untraced = [p for p in passes if not p.traced]
    walls = [_ref_sum(p, p.request_wall) for p in untraced]
    setups = [_ref_sum(p, p.request_setup) for p in untraced]
    rates = [signals / (w - s) for w, s in zip(walls, setups)]
    return {name: (statistics.median(values), unit, values) for name, unit, values in (
        ("wall_s", "s", walls), ("setup_s", "s", setups),
        ("signals_per_s", "1/s", rates), ("peak_rss_mb", "MB", [peak_rss_mb]))}


def _unit(name):
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_bytes", "bytes"),
                         ("bytes_written", "bytes"), ("_ratio", "ratio"),
                         ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(requests, passes, import_s):
    """Layer metrics of each traced pass, the median over traced passes."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    rows = []
    for p in traced:
        t = p.tracer
        self_times = t.self_times(scale(p))
        m = {metric: self_times.get(name, 0.0)
             for name, metric in spans.SELF_TIME_METRICS.items()}
        m.update({name: float(t.counts[name]) for name in spans.COUNT_METRICS})
        m["linalg.operator_bytes"] = float(t.operator_bytes)
        m["linalg.cod_rank_ratio"] = (sum(r for r, _ in t.cod_ranks)
                                      / sum(n for _, n in t.cod_ranks)
                                      if t.cod_ranks else 0.0)
        m["cli.bytes_written"] = float(p.bytes_written)
        wall = _ref_sum(p, p.request_wall)
        attributed = sum(self_times.values())
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - attributed
        m["trace.attributed_frac"] = attributed / wall
        rows.append(m)
    out = {k: (statistics.median(r[k] for r in rows), _unit(k)) for k in rows[0]}
    solve_ms = [1e3 * d for p in traced
                for d in p.tracer.durations("sylvester.solve", scale(p))]
    out["sylvester.solve_p50_ms"] = (_percentile(solve_ms, 50), "ms")
    out["sylvester.solve_p90_ms"] = (_percentile(solve_ms, 90), "ms")
    out["sylvester.solve_samples"] = (float(len(solve_ms)), "count")
    untraced_wall = statistics.median(_ref_sum(p, p.request_wall) for p in untraced)
    out["trace.overhead_s"] = (out["trace.wall_s"][0] - untraced_wall, "s")
    out["cli.import_s"] = (import_s, "s")
    return out


def fresh_import_s():
    """Median time to import advectbench.cli in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import advectbench.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment():
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "threads": threads}


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description="advectbench benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    requests = WORKLOADS[args.workload](random.Random(args.seed))
    env = environment()
    print(f"advectbench benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"closed loop, 1 client: {len(requests)} requests, "
          f"{sum(r.signals for r in requests)} signals per pass")

    for req in warmup_requests(requests):
        call_cli(req.argv)
    passes = run_passes(requests, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import_s = fresh_import_s() if args.trace else None
    attempted, failed, correct, report = check_passes(requests, passes)

    for line in report:
        print(line)
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} signal solves)")
    e2e = end_to_end(requests, passes, peak_rss_mb)
    for name, (value, unit, values) in e2e.items():
        q1, _, q3 = quartiles(values)
        print(f"{name:<16} {value:.6g} {unit}  (median of {len(values)} passes, "
              f"q1 {q1:.6g}, q3 {q3:.6g})")
    untraced = [p for p in passes if not p.traced]
    print(f"unscaled pass time {statistics.median(sum(p.request_wall) for p in untraced):.6g} s, "
          f"gauge reading {statistics.median(g for p in untraced for g in p.request_gauge):.6g} s "
          f"(reference {gauge.REFERENCE} s)")
    cpu = [p.cpu_s / p.wall_s for p in passes if not p.traced]
    print(f"cpu/wall {statistics.median(cpu):.3f} (median over untraced passes)")
    if args.trace:
        metrics = per_layer(requests, passes, import_s)
        for name, (value, unit) in metrics.items():
            print(f"{name:<28} {value:.6g} {unit}")
    else:
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    write_record(args, env, requests, passes, metrics, report)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def write_record(args, env, requests, passes, metrics, report):
    """Everything behind the result line, spans included, under bench/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": env, "requests": [r.argv for r in requests], "checks": report,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "request_wall": p.request_wall, "request_setup": p.request_setup,
                    "request_gauge": p.request_gauge,
                    "spans": p.tracer.spans if p.traced else None}
                   for p in passes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    print(f"wrote {path.relative_to(ROOT)}")
