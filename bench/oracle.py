"""Independent reference checks for the error-equation outputs.

The operator and right-hand side are rebuilt here from the nine stencil
coefficients by index arithmetic into a scipy sparse matrix, without calling
the program's assembly, solvers or simulator.  With vec stacking the columns
of the (nx-1) x nt field, the error e solves K vec(e) = r, where K holds the
unknown-node stencil terms and r = -S u_exact applies the full stencil
(boundary and initial nodes included) to the exact sinusoid.

scipy is imported lazily so that it never counts towards the benchmark's
peak resident memory.
"""

from __future__ import annotations

import math

import numpy as np

# Fixed before any measurement.  Healthy solves on the workloads leave a
# relative residual below 1e-13, except the unstable causal Crank-Nicolson
# march at 30^2 (error ~1e9), which leaves up to 2e-8.  The defective
# Lax-Wendroff paper solves at 20^2 and above leave 5e-3 or more.
RESIDUAL_TOL = 1e-6
# Normwise least-squares optimality |K^T (K e - r)| / (|K|^2 |e| + |K| |r|).
LSTSQ_TOL = 1e-10
# Acceptance criterion 5: the causal matrix error equals the simulator error.
CAUSAL_TOL = 1e-11

# (coefficient index, space offset, time offset) in catalogue order
# alpha, beta, gamma, delta, epsilon, zeta, eta, theta, vartheta.
_OFFSETS = ((0, 0, 1), (1, 0, 0), (2, 0, -1), (3, 1, 0), (4, -1, 0),
            (5, 1, 1), (6, -1, -1), (7, -1, 1), (8, 1, -1))


def error_system(coeffs, nx, nt, h, tau, c, wavelength, variant):
    """Sparse K and dense r of the error equation K vec(e) = r."""
    from scipy import sparse

    rows = nx - 1
    three_level = coeffs[2] != 0.0 or coeffs[6] != 0.0 or coeffs[8] != 0.0
    if variant == "paper":
        first, last, shift = 1, nt, 0    # centres n = 1..nt at column n-1
    elif three_level:
        first, last, shift = 1, nt - 1, 1  # centres n = 1..nt-1 at column n
    else:
        first, last, shift = 0, nt - 1, 1  # centres n = 0..nt-1 at column n
    i, n = np.meshgrid(np.arange(1, nx), np.arange(first, last + 1), indexing="ij")
    i, n = i.ravel(), n.ravel()
    eq = (n - 1 + shift) * rows + (i - 1)

    # exact sinusoid on every grid node, boundaries and level 0 included
    xs = np.arange(nx + 1)[:, None] * h
    ts = np.arange(nt + 2)[None, :] * tau
    exact = np.cos(2.0 * math.pi / wavelength * (xs - c * ts))

    size = rows * nt
    r = np.zeros(size)
    k_rows, k_cols, k_vals = [], [], []
    for idx, di, dn in _OFFSETS:
        coef = coeffs[idx]
        if coef == 0.0:
            continue
        l, m = i + di, n + dn
        keep = m <= nt  # the paper closure drops terms beyond the horizon
        l, m, e_k = l[keep], m[keep], eq[keep]
        np.subtract.at(r, e_k, coef * exact[l, m])
        unknown = (l >= 1) & (l <= nx - 1) & (m >= 1)
        k_rows.append(e_k[unknown])
        k_cols.append((m[unknown] - 1) * rows + (l[unknown] - 1))
        k_vals.append(np.full(int(unknown.sum()), coef))
    if variant == "causal" and three_level:
        # cold start: level 1 is pinned to the exact value, so e = 0 there
        k_rows.append(np.arange(rows))
        k_cols.append(np.arange(rows))
        k_vals.append(np.ones(rows))
    k = sparse.csr_matrix(
        (np.concatenate(k_vals), (np.concatenate(k_rows), np.concatenate(k_cols))),
        shape=(size, size))
    return k, r


def check_solve(coeffs, grid, wavelength, variant, method, e):
    """Verdict on one error field: (passed, measure, tolerance).

    kron and bartels-stewart must meet the rhs-relative residual; min-norm
    must be least-squares optimal.  A field that is not finite fails.
    """
    nx, nt, h, tau, c = grid
    e = np.asarray(e, dtype=float)
    if not np.all(np.isfinite(e)):
        return False, math.inf, RESIDUAL_TOL
    k, r = error_system(coeffs, nx, nt, h, tau, c, wavelength, variant)
    x = e.reshape(-1, order="F")
    res = k @ x - r
    if method == "min-norm":
        k_norm = math.sqrt(float(np.sum(k.data ** 2)))
        scale = k_norm * k_norm * np.linalg.norm(x) + k_norm * np.linalg.norm(r)
        measure = float(np.linalg.norm(k.T @ res) / max(scale, 1e-300))
        return measure <= LSTSQ_TOL, measure, LSTSQ_TOL
    measure = float(np.linalg.norm(res) / max(np.linalg.norm(r), 1e-300))
    return measure <= RESIDUAL_TOL, measure, RESIDUAL_TOL


def check_causal_row(err_sim_frob, err_mtx_frob):
    """Criterion 5 on one sweep row: the matrix and simulator errors agree."""
    dev = abs(err_mtx_frob - err_sim_frob) / max(1.0, abs(err_sim_frob))
    return dev <= CAUSAL_TOL, dev, CAUSAL_TOL
