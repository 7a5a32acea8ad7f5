"""Acceptance gate: the nine headline criteria, each at its stated tolerance.

Every test prints one summary line so a verbose run reads as a checklist.
Oracles are independent of the implementation under test: numpy eigenvalue/
least-squares routines, closed-form spectra, the Kronecker-elimination path,
and the direct time-stepping simulator.
"""

import math
import time

import numpy as np
import pytest

from advectbench import advect, assembly, cli, linalg, sylvester
from advectbench.errors import SingularSystemError
from advectbench.schemes import (BUILTIN_SCHEMES, Discretization, SignalSpec,
                                 builtin_scheme, stencil_residual_at)


def disc(nx=20, nt=20, h=1.0, sigma=0.8, c=1.0):
    return Discretization.from_cfl(nx=nx, nt=nt, h=h, sigma=sigma, c=c)


def test_criterion_1_schur_suite():
    """500 random Schur decompositions: reconstruction, orthogonality,
    trace/determinant identities; under 10 seconds."""
    g = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_recon = worst_orth = 0.0
    for k in range(500):
        n = int(g.integers(2, 25))
        a = g.uniform(-1, 1, (n, n))
        f = linalg.schur_decompose(a)
        scale = max(1.0, np.linalg.norm(a))
        recon = np.linalg.norm(f.q @ f.t @ f.q.T - a) / scale
        orth = np.linalg.norm(f.q.T @ f.q - np.eye(n)) / math.sqrt(n)
        worst_recon, worst_orth = max(worst_recon, recon), max(worst_orth, orth)
        assert recon <= 1e-11
        assert orth <= 1e-12
        tr = sum(f.eigenvalues)
        assert abs(tr.real - np.trace(a)) <= 1e-9 * (1.0 + abs(np.trace(a)))
        assert abs(tr.imag) <= 1e-9
        if n <= 12:
            prod = complex(1.0)
            for z in f.eigenvalues:
                prod *= z
            det = np.linalg.det(a)
            assert abs(prod - det) <= 1e-7 * max(abs(det), 1e-30)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS schur suite: 500 matrices, worst recon "
          f"{worst_recon:.2e}, worst orth {worst_orth:.2e}, {elapsed:.1f}s")


def test_criterion_2_sylvester_oracle_equivalence():
    """100 unique-solvable instances: Bartels-Stewart vs Kronecker elimination
    within 1e-10 relative; construct-then-recover within 1e-11; under 5 s."""
    g = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_agree = worst_recover = 0.0
    for k in range(100):
        m, n = int(g.integers(2, 11)), int(g.integers(2, 11))
        a = g.uniform(-1, 1, (m, m)) + 5.0 * np.eye(m)
        b = g.uniform(-1, 1, (n, n))
        x_true = g.uniform(-1, 1, (m, n))
        p = sylvester.SylvesterProblem(a, b, a @ x_true + x_true @ b)
        x_bs = sylvester.solve_bartels_stewart(p)
        x_kr = sylvester.solve_kron_oracle(p)
        scale = max(1.0, np.linalg.norm(x_kr))
        agree = np.linalg.norm(x_bs - x_kr) / scale
        recover = np.linalg.norm(x_bs - x_true) / max(1.0, np.linalg.norm(x_true))
        worst_agree, worst_recover = max(worst_agree, agree), max(worst_recover, recover)
        assert agree <= 1e-10
        assert recover <= 1e-11
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 2] PASS sylvester oracles: 100 instances, worst "
          f"agreement {worst_agree:.2e}, worst recovery {worst_recover:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_3_min_norm_optimality():
    """20 rank-deficient consistent instances: the returned solution has the
    smallest norm among 100 null-space-perturbed alternatives each, and the
    KKT (normal-equations) residual is at most 1e-9 scale."""
    g = np.random.default_rng(11)
    for k in range(20):
        m, n, r = 8, 6, int(g.integers(1, 5))
        a = g.uniform(-1, 1, (m, r)) @ g.uniform(-1, 1, (r, n))
        x_any = g.uniform(-1, 1, n)
        b = a @ x_any  # consistent by construction
        fac = linalg.cod_factor(a)
        x = fac.solve_min_norm(b)
        scale = max(1.0, np.linalg.norm(a) ** 2 * np.linalg.norm(x)
                    + np.linalg.norm(a) * np.linalg.norm(b))
        assert np.linalg.norm(a.T @ (a @ x - b)) <= 1e-9 * scale
        z = fac.null_space()
        for j in range(100):
            pert = z @ g.uniform(-1, 1, z.shape[1])
            assert np.linalg.norm(x) <= np.linalg.norm(x + pert) + 1e-12
        # independent oracle: numpy's minimum-norm least squares
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(x - want) <= 1e-9 * max(1.0, np.linalg.norm(want))
    print("\n[criterion 3] PASS min-norm optimality: 20 instances x 100 "
          "perturbations, KKT residual <= 1e-9 scale")


def test_criterion_4_stencil_matrix_consistency():
    """All four catalogued schemes at nx = nt = 20: the matricial residual
    equals the raw stencil relation on the full field to 1e-12 scale, both
    variants."""
    d = disc()
    g = np.random.default_rng(13)
    u = g.uniform(-1, 1, (d.nx - 1, d.nt))
    signal = SignalSpec.from_cells_per_wavelength(9.0, d)
    known = advect.sample_nodes(d, signal)

    def field(l, m):
        # interior nodes from U, known nodes from the node array; nodes beyond
        # the time horizon are absent from the paper closure
        if m > d.nt:
            return 0.0
        if l in (0, d.nx) or m == 0:
            return known[l, m]
        return u[l - 1, m - 1]

    def cells(s, variant):
        """((row, col), first-principles residual) of every equation."""
        if variant == "paper":
            for n in range(1, d.nt + 1):
                for i in range(1, d.nx):
                    yield (i - 1, n - 1), stencil_residual_at(s, field, i, n)
            return
        first = 1 if s.is_three_level else 0
        if first:  # cold start pins level 1 to the known data
            for i in range(1, d.nx):
                yield (i - 1, 0), u[i - 1, 0] - known[i, 1]
        for n0 in range(first, d.nt):
            for i in range(1, d.nx):
                yield (i - 1, n0), stencil_residual_at(s, field, i, n0)

    worst = 0.0
    for name in BUILTIN_SCHEMES:
        s = builtin_scheme(name, d)
        scale = max(abs(v) for v in s.as_tuple()) * max(1.0, np.max(np.abs(u)))
        for variant in assembly.VARIANTS:
            prob = assembly.assemble(s, d, known, variant)
            res = assembly.residual(prob, u)
            covered = 0
            for (row, col), cell in cells(s, variant):
                dev = abs(res[row, col] - cell)
                worst = max(worst, dev / scale)
                assert dev <= 1e-12 * scale, (name, variant, row, col)
                covered += 1
            assert covered == res.size, (name, variant)
    print(f"\n[criterion 4] PASS stencil/matrix consistency: 4 schemes x 2 "
          f"variants at nx=nt=20, worst relative deviation {worst:.2e}")


def test_criterion_5_causal_equivalence():
    """Vectorized causal solve equals time stepping to 1e-11 relative for all
    four schemes at sigma in {0.5, 0.8}, n_lambda = 10."""
    worst = 0.0
    for sigma in (0.5, 0.8):
        d = disc(sigma=sigma)
        signal = SignalSpec.from_cells_per_wavelength(10.0, d)
        for name in BUILTIN_SCHEMES:
            s = builtin_scheme(name, d)
            e, _ = sylvester.solve_error_equation(s, d, signal,
                                                  variant="causal",
                                                  method="kron")
            u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
            want = u.values - advect.sample_exact(d, signal).values
            rel = (np.linalg.norm(e.values - want)
                   / max(1.0, np.linalg.norm(want)))
            worst = max(worst, rel)
            assert rel <= 1e-11, (name, sigma)
    print(f"\n[criterion 5] PASS causal equivalence: 4 schemes x 2 CFL "
          f"numbers, worst relative deviation {worst:.2e}")


def test_criterion_6_shift_exactness_at_sigma_1():
    """Lax and Lax-Wendroff at sigma = 1 reproduce the exact sinusoid with
    grid_l2 error at most 1e-11 at nx = nt = 20."""
    d = disc(sigma=1.0)
    signal = SignalSpec.from_cells_per_wavelength(10.0, d)
    errors = {}
    for name in ("lax", "lax-wendroff"):
        s = builtin_scheme(name, d)
        u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
        summary = advect.error_summary(
            advect.error_matrix(u, advect.sample_exact(d, signal)))
        errors[name] = summary.grid_l2
        assert summary.grid_l2 <= 1e-11, name
    print(f"\n[criterion 6] PASS shift-exactness at sigma=1: grid_l2 "
          f"lax={errors['lax']:.2e}, lax-wendroff={errors['lax-wendroff']:.2e}")


def test_criterion_7_first_order_convergence():
    """Lax at sigma = 0.5: doubling nx, nt on the fixed physical domain
    (wavelength held fixed) shrinks the grid_l2 error with ratio < 0.75."""
    def grid_error(nx, nt, h):
        d = Discretization.from_cfl(nx=nx, nt=nt, h=h, sigma=0.5, c=1.0)
        signal = SignalSpec.from_wavelength(10.0, d)
        s = builtin_scheme("lax", d)
        u = advect.time_step_simulate(s, d, advect.sample_nodes(d, signal))
        return advect.error_summary(
            advect.error_matrix(u, advect.sample_exact(d, signal))).grid_l2

    coarse = grid_error(20, 20, 1.0)
    fine = grid_error(40, 40, 0.5)
    ratio = fine / coarse
    assert ratio < 0.75
    print(f"\n[criterion 7] PASS convergence: grid_l2 {coarse:.4f} -> "
          f"{fine:.4f} under refinement, ratio {ratio:.3f} < 0.75")


def test_criterion_8_diagnostics_finding():
    """Lax with even nx is diagnosed non-unique (shared eigenvalue 0 with
    |lambda| < 1e-10 scale); well-separated problems are diagnosed unique and
    all three solvers agree there."""
    d = disc(nx=20, nt=20)
    s = builtin_scheme("lax", d)
    p = sylvester.SylvesterProblem(assembly.build_m1(s, d),
                                   assembly.build_m2(s, d),
                                   np.zeros((d.nx - 1, d.nt)))
    report = sylvester.diagnose(p)
    scale = max(1.0, linalg.frobenius_norm(p.a) + linalg.frobenius_norm(p.b))
    assert not report.unique
    shared_a = min(abs(z) for z in report.spectrum_a)
    shared_b = max(abs(z) for z in report.spectrum_neg_b)
    assert shared_a < 1e-10 * scale  # M1's Toeplitz spectrum hits 0
    assert shared_b < 1e-10 * scale  # M2 is nilpotent
    with pytest.raises(SingularSystemError):
        sylvester.solve_bartels_stewart(p)

    # well-separated case: leapfrog paper variant on the same grid
    signal = SignalSpec.from_cells_per_wavelength(9.8, d)
    lf = builtin_scheme("leapfrog", d)
    fields = {}
    for method in sylvester.METHODS:
        solver = sylvester.ErrorEquationSolver(lf, d, variant="paper",
                                               method=method)
        sep_scale = max(1.0, linalg.frobenius_norm(solver.m1)
                        + linalg.frobenius_norm(solver.m2))
        assert solver.report.unique
        assert solver.report.min_separation > 1e-6 * sep_scale
        fields[method] = solver.solve(signal)[0].values
    base = fields["kron"]
    for method in ("bartels-stewart", "min-norm"):
        rel = (np.linalg.norm(fields[method] - base)
               / max(1.0, np.linalg.norm(base)))
        assert rel <= 1e-9, method
    print(f"\n[criterion 8] PASS diagnostics: lax even-nx non-unique "
          f"(shared |lambda| {max(shared_a, shared_b):.2e}), leapfrog unique "
          f"with 3-solver agreement")


def test_criterion_9_sweep_reproduction(tmp_path):
    """Sweep over n_lambda in [4, 20] step 0.2 at nx = nt = 20: rows at the
    two studied wavelengths (9 and 9.8), simulation error strictly smaller at
    n_lambda = 20 than at 4, byte-deterministic CSV, under 30 seconds."""
    t0 = time.perf_counter()
    argv = ["sweep", "--scheme", "lax", "--nx", "20", "--nt", "20",
            "--sigma", "0.8"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert len(rows) == 81
    assert any(abs(v - 9.0) < 1e-9 for v in rows)
    assert any(abs(v - 9.8) < 1e-9 for v in rows)
    err_at_4 = float(rows[4.0][1])
    err_at_20 = float(rows[20.0][1])
    assert err_at_20 < err_at_4
    print(f"\n[criterion 9] PASS sweep: 81 rows (includes wavelengths 9 and "
          f"9.8), err_sim {err_at_4:.3f} -> {err_at_20:.3f} across the range, "
          f"byte-identical reruns, {elapsed:.1f}s")
