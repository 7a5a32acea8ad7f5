"""Spans and counters recorded from outside the program.

Wrappers are installed around the public entry points of each module for
the duration of one pass, then removed.  A few private functions are
wrapped too, because they are the only way in: the LU kernels for
factorization and per-signal LU solves, and the CLI's output helpers.
A span is (name, start, end, parent, request); a layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from advectbench import advect, assembly, cli, linalg, sylvester

# Span names, one per layer boundary, mapped to the self-time metric.
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "cli.write": "cli.write_s",
    "sylvester.setup": "sylvester.setup_self_s",
    "sylvester.diagnose": "sylvester.diagnose_s",
    "sylvester.solve": "sylvester.solve_self_s",
    "assembly.m0": "assembly.m0_s",
    "assembly.apply": "assembly.apply_s",
    "assembly.operator": "assembly.operator_s",
    "linalg.factor": "linalg.factor_s",
    "linalg.schur": "linalg.schur_s",
    "linalg.block_solve": "linalg.block_solve_s",
    "linalg.cod_solve": "linalg.cod_solve_s",
    "linalg.lu_solve": "linalg.lu_solve_s",
    "advect.simulate": "advect.simulate_s",
    "advect.eval": "advect.eval_s",
}

COUNT_METRICS = ("linalg.factor_calls", "linalg.schur_calls",
                 "linalg.block_solve_calls", "linalg.cod_solve_calls",
                 "linalg.tridiag_calls", "assembly.m0_calls",
                 "assembly.apply_calls", "advect.simulate_calls")


class Tracer:
    """In-memory spans and counters of one pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, request]
        self.counts = Counter()
        self.operator_bytes = 0
        self.cod_ranks = []      # (rank, columns) of each COD factorization
        self.request = -1
        self._open = []          # indices of the open spans, innermost last
        self._quiet = 0          # > 0 inside a span that hides its callees

    def current(self):
        return self.spans[self._open[-1]][0] if self._open else None

    def call(self, name, fn, args, kwargs, quiet=False):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.request])
        self._open.append(idx)
        self._quiet += quiet
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._quiet -= quiet
            self._open.pop()
            span = self.spans[idx]
            span[1], span[2] = start, end

    def self_times(self, scale):
        """Self time summed per span name, each span's multiplied by
        scale[request]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, req), covered in zip(self.spans, child):
            totals[name] += (end - start - covered) * scale[req]
        return totals

    def durations(self, name, scale):
        return [(end - start) * scale[req]
                for n, start, end, _, req in self.spans if n == name]


def _wrap(tracer, fn, name, count=None, quiet=False, before=None, after=None):
    """fn recorded as a span called `name` (a string, or a function of the
    enclosing span's name); `count` is incremented per recorded call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer._quiet:
            return fn(*args, **kwargs)
        if count:
            tracer.counts[count] += 1
        if before:
            before(tracer, args)
        label = name(tracer.current()) if callable(name) else name
        if label is None:
            return fn(*args, **kwargs)
        result = tracer.call(label, fn, args, kwargs, quiet)
        if after:
            after(tracer, args, result)
        return result
    return wrapper


def _add_operator_bytes(tracer, args):
    tracer.operator_bytes += np.asarray(args[0]).nbytes


def _add_cod_rank(tracer, args, result):
    tracer.cod_ranks.append((result.rank, result.shape[1]))


def _kron_span(parent):
    # Inside a solve, kron_vec_operator only builds the 1x1..4x4 block
    # systems of the Bartels-Stewart back-substitution; elsewhere it builds
    # the dense vectorized operator.
    return "linalg.block_solve" if parent == "sylvester.solve" else "assembly.operator"


def _targets():
    """(owner, attribute, span name, options) for every traced entry point."""
    solver = sylvester.ErrorEquationSolver
    return [
        (cli, "main", "cli.main", {}),
        (cli, "write_sweep_csv", "cli.write", {}),
        (cli, "write_sweep_svg", "cli.write", {}),
        (cli, "write_iso_csv", "cli.write", {}),
        (cli, "_write_field_csv", "cli.write", {}),
        (cli, "_print_summary", "cli.write", {}),
        (cli, "_print_report", "cli.write", {}),
        (solver, "__init__", "sylvester.setup", {}),
        (solver, "solve", "sylvester.solve", {}),
        (sylvester, "diagnose", "sylvester.diagnose", {}),
        (assembly, "build_m0", "assembly.m0", {"count": "assembly.m0_calls"}),
        (assembly, "apply_operator", "assembly.apply",
         {"count": "assembly.apply_calls"}),
        (assembly, "global_operator", "assembly.operator", {}),
        (linalg, "kron_vec_operator", _kron_span, {}),
        # a block solve factors and solves a 1x1..4x4 system; its LU calls
        # belong to it, not to the operator factorization
        (linalg, "gauss_solve", "linalg.block_solve",
         {"count": "linalg.block_solve_calls", "quiet": True}),
        (linalg, "_lu_factor", "linalg.factor",
         {"count": "linalg.factor_calls", "before": _add_operator_bytes}),
        (linalg, "cod_factor", "linalg.factor",
         {"count": "linalg.factor_calls", "before": _add_operator_bytes,
          "after": _add_cod_rank}),
        (linalg, "schur_decompose", "linalg.schur",
         {"count": "linalg.schur_calls"}),
        (linalg, "_lu_solve", "linalg.lu_solve", {}),
        (linalg.CODFactorization, "solve_min_norm", "linalg.cod_solve",
         {"count": "linalg.cod_solve_calls"}),
        # counted only: its time is part of the simulator's
        (linalg, "tridiag_solve", lambda parent: None,
         {"count": "linalg.tridiag_calls"}),
        (advect, "time_step_simulate", "advect.simulate",
         {"count": "advect.simulate_calls"}),
        (advect, "sample_exact", "advect.eval", {}),
        (advect, "error_matrix", "advect.eval", {}),
        (advect, "error_summary", "advect.eval", {}),
    ]


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def traced(tracer):
    """Context manager that records every layer boundary into tracer."""
    return patched([(owner, attr, _wrap(tracer, owner.__dict__[attr], name, **opts))
                    for owner, attr, name, opts in _targets()])
