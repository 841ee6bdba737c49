"""Acceptance suite: every gate criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.

Criterion 4 is split: its horizon branch passes, while its kernel-exponent
branch asserts |lambda1 + (lambda* + 2 mu)| <= 1e-4 at beta = n + 2 - 1e-3,
delta = 2.  Convergence in the kernel exponent is first order with an O(1)
material-dependent constant (measured ~0.7 eps for mu = 1, lambda* = 2, and
confirmed independently by the quadrature oracle to 1e-11), so that bound
is unattainable at eps = 1e-3 for most of the material range; the branch is
kept as stated and fails honestly rather than being loosened.
"""

import math
import time

import numpy as np

import perispec.oracle as oracle
from perispec.cli import run_verification
from perispec.hypergeom import PfqParams, f_form_derivatives, \
    merge_linear_combination, pfq, pfq_minus_one
from perispec.multipliers import (Material, NonlocalParams,
                                  eigen_decomposition, eigenvalue_parallel,
                                  eigenvalue_transverse,
                                  eigenvalues_by_material, navier_eigenvalues,
                                  navier_multiplier, orthonormal_basis,
                                  scalar_multiplier, tensor_multiplier,
                                  tensor_multiplier_bond)
from perispec.spectrum import (FourierField, TorusSpec, apply_operator,
                               frequency_vector, solve_periodic)

FIGURE_LAMBDA_STARS = (-1.9, -1.0, 0.0, 1.0, 2.0)
TWO_PI = 2.0 * math.pi


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_dual_path_sweep():
    start = time.monotonic()
    result = run_verification(seed=42, count=100, tol=1e-6)
    elapsed = time.monotonic() - start
    worst = max(chk["deviation"]
                for entry in result["entries"]
                for chk in entry["checks"].values())
    ok = result["all_pass"] and elapsed <= 300.0
    report(1, ok,
           f"100 tuples, {result['failures']} failures, worst deviation "
           f"{worst:.3e}, {elapsed:.1f}s (budget 300s)")
    # stash the sweep for criterion 3
    test_criterion_1_dual_path_sweep.entries = result["entries"]


def test_criterion_2_closed_form_anchor():
    p = NonlocalParams(1, 1.0, 0.0)
    closed = scalar_multiplier(p, [math.pi])
    quad, _ = oracle.scalar_multiplier_quad(p, [math.pi])
    dev = max(abs(closed + 6.0), abs(quad + 6.0))
    report(2, dev <= 1e-10,
           f"m(pi) = {closed!r} (closed), {quad!r} (quadrature); "
           f"max |m + 6| = {dev:.3e} <= 1e-10")


def test_criterion_3_trace_identity():
    entries = getattr(test_criterion_1_dual_path_sweep, "entries", None)
    if entries is None:
        entries = run_verification(seed=42, count=100, tol=1e-6)["entries"]
    worst = 0.0
    for entry in entries:
        p = NonlocalParams(entry["n"], entry["delta"], entry["beta"])
        mat = Material(entry["mu"], entry["lambda_star"])
        nu = np.asarray(entry["nu"])
        if float(nu @ nu) == 0.0:
            continue
        tr = float(np.trace(tensor_multiplier_bond(p, mat, nu).matrix))
        expected = (p.n + 2) * mat.mu * scalar_multiplier(p, nu)
        worst = max(worst, abs(tr - expected) / abs(expected))
    report(3, worst <= 1e-9,
           f"trace M_b vs (n+2) mu m on the criterion-1 sweep, worst "
           f"relative deviation {worst:.3e} <= 1e-9 (by construction: m is "
           f"(n b1 + 2 b2)/(n+2) of M_b's series; criterion 1 checks both "
           f"against quadrature)")


def _navier_deviation_table(configs):
    rows = []
    for p in configs:
        for lam_star in FIGURE_LAMBDA_STARS:
            mat = Material(1.0, lam_star)
            nu = np.zeros(p.n)
            nu[0] = 1.0
            lam1_n, lam2_n = navier_eigenvalues(mat, 1.0)
            dev1 = abs(eigenvalue_parallel(p, mat, nu) - lam1_n)
            dev2 = (abs(eigenvalue_transverse(p, mat, nu) - lam2_n)
                    if p.n > 1 else 0.0)
            dev_m = float(np.max(np.abs(tensor_multiplier(p, mat, nu).matrix
                                        - navier_multiplier(mat, nu))))
            rows.append((p.n, p.delta, p.beta, lam_star, dev1, dev2, dev_m))
    return rows


def test_criterion_4_local_limit_horizon():
    configs = [NonlocalParams(n, 1e-3, b)
               for n in (1, 2, 3)
               for b in (n + 2 - 1e-3, n + 1.0, float(n), 0.0, -2.0)]
    rows = _navier_deviation_table(configs)
    worst = max(max(r[4], r[5], r[6]) for r in rows)
    report("4 (delta -> 0)", worst <= 1e-4,
           f"delta = 1e-3, |nu| = 1, {len(rows)} (beta, lambda*) cases, "
           f"worst deviation {worst:.3e} <= 1e-4")


def test_criterion_4_local_limit_kernel_exponent():
    configs = [NonlocalParams(n, 2.0, n + 2 - 1e-3) for n in (1, 2, 3)]
    rows = _navier_deviation_table(configs)
    for n, delta, beta, lam_star, dev1, dev2, dev_m in rows:
        print(f"    n={n} lambda*={lam_star:+.1f}: |lambda1 dev|={dev1:.3e} "
              f"|lambda2 dev|={dev2:.3e} |M dev|={dev_m:.3e}")
    worst = max(max(r[4], r[5], r[6]) for r in rows)
    report("4 (beta -> n+2)", worst <= 1e-4,
           f"beta = n+2-1e-3, delta = 2, |nu| = 1: worst deviation "
           f"{worst:.3e}; convergence in the kernel exponent is first "
           f"order, so 1e-4 is unattainable at eps = 1e-3 (see ledger)")


def test_criterion_5_eigen_residuals():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = NonlocalParams(n, rng.uniform(0.1, 4.0),
                           rng.uniform(-2.0, n + 2 - 0.05))
        mu = rng.uniform(0.5, 3.0)
        mat = Material(mu, rng.uniform(-2.0 * mu, 3.0))
        d = rng.standard_normal(n)
        nu = d / np.linalg.norm(d) * rng.uniform(0.05, 20.0)
        dec = eigen_decomposition(p, mat, nu)
        M = tensor_multiplier(p, mat, nu).matrix
        for j in range(n):
            lam = dec.lambda1 if j == 0 else dec.lambda2
            res = np.linalg.norm(M @ dec.basis[j] - lam * dec.basis[j])
            worst = max(worst, res / (1.0 + abs(lam)))
    report(5, worst <= 1e-9,
           f"100 random eigen decompositions, worst scaled residual "
           f"{worst:.3e} <= 1e-9")


def _random_pfq(rng):
    p = int(rng.integers(0, 3))
    a = tuple(rng.uniform(0.3, 4.0, size=p))
    b = tuple(rng.uniform(0.8, 5.0, size=p + rng.integers(1, 3)))
    return PfqParams(a, b)


def test_criterion_6_series_identities():
    rng = np.random.default_rng(1006)
    # subtracting one / merging a linear combination: algebraic identities
    worst_sub = worst_merge = 0.0
    for _ in range(50):
        params = _random_pfq(rng)
        z = rng.uniform(-10.0, 0.5)
        lhs = pfq(params, z).value - 1.0
        rhs = pfq_minus_one(params, z).value
        worst_sub = max(worst_sub, abs(lhs - rhs) / max(abs(rhs), 1e-3))
        c = rng.uniform(-3.0, 3.0)
        d = rng.uniform(0.2, 3.0)
        if abs((c + d) / d) < 0.1:
            c += 0.5
        direct = (c * pfq(PfqParams((1.0,) + params.a, (2.0,) + params.b), z).value
                  + d * pfq(params, z).value)
        merged = merge_linear_combination(c, d, params, z).value
        worst_merge = max(worst_merge, abs(direct - merged) / max(abs(merged), 1e-3))
    # derivative identities: analytic forms against finite differences
    worst_fd = 0.0
    for _ in range(50):
        params = _random_pfq(rng)
        z = rng.uniform(-50.0, 0.0)
        _, fp, fpp = f_form_derivatives(params, z)
        h = 0.08

        def f(x, params=params):
            return x * pfq(params, x, target_rel_tol=1e-15).value

        def stencils(h):
            vals = [f(z + i * h) for i in (-2, -1, 0, 1, 2)]
            d1 = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)
            d2 = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1]
                  - vals[0]) / (12 * h * h)
            return d1, d2, abs(vals[2])

        p1, q1, scale = stencils(h)
        p2, q2, _ = stencils(h / 2)
        fd_p, fd_q = (16 * p2 - p1) / 15.0, (16 * q2 - q1) / 15.0
        floor = 1e-9 * (1.0 + scale)
        worst_fd = max(worst_fd,
                       abs(fp - fd_p) / (abs(fd_p) + floor),
                       abs(fpp - fd_q) / (abs(fd_q) + floor))
    ok = worst_sub <= 1e-10 and worst_merge <= 1e-10 and worst_fd <= 1e-5
    report(6, ok,
           f"50 instances each: subtract-one {worst_sub:.3e} <= 1e-10, "
           f"linear-combination {worst_merge:.3e} <= 1e-10, derivatives vs "
           f"finite differences {worst_fd:.3e} <= 1e-5")


def _figure_panel(n, delta, beta, grid):
    # the array path; the property tests hold it equal to the scalar one
    nu = np.zeros((grid.size, n))
    nu[:, 0] = grid
    pairs = eigenvalues_by_material(
        NonlocalParams(n, delta, beta),
        [Material(1.0, ls) for ls in FIGURE_LAMBDA_STARS], nu)
    return np.array([lam1 for lam1, _ in pairs]), pairs[0][1]


def test_criterion_7_figure_regimes():
    n = 3
    grid = np.linspace(0.0, 15.0, 1000)
    panels = {
        "near-local": (1e-3, n + 2 - 1e-3),
        "linear": (2.0, n + 1.0),
        "logarithmic": (2.0, float(n)),
        "bounded": (2.0, n - 1.0),
    }
    data = {name: _figure_panel(n, d, b, grid) for name, (d, b) in panels.items()}

    # (a) every eigenvalue nonpositive
    peak = max(max(lam1.max(), lam2.max()) for lam1, lam2 in data.values())
    # (b) lambda1 strictly decreasing in lambda* wherever |nu| > 0
    monotone = all(np.all(np.diff(lam1[:, 1:], axis=0) < 0.0)
                   for lam1, _ in data.values())
    # (c) asymptotically linear panel: least-squares fit over [10, 15]
    sel = grid >= 10.0
    _, lam2_lin = data["linear"]
    A = np.vstack([grid[sel], np.ones(sel.sum())]).T
    coef, _, _, _ = np.linalg.lstsq(A, lam2_lin[sel], rcond=None)
    resid = lam2_lin[sel] - A @ coef
    r2 = 1.0 - np.sum(resid**2) / np.sum((lam2_lin[sel] - lam2_lin[sel].mean())**2)
    # (d) bounded panel: no growth between [5, 10] and [10, 15]
    _, lam2_bnd = data["bounded"]
    mid = (grid >= 5.0) & (grid <= 10.0)
    growth = np.max(np.abs(lam2_bnd[sel])) / np.max(np.abs(lam2_bnd[mid]))
    # (e) logarithmic panel: lambda2 / log|nu| nearly constant on [10, 15]
    _, lam2_log = data["logarithmic"]
    ratio = lam2_log[sel] / np.log(grid[sel])
    log_var = (ratio.max() - ratio.min()) / abs(ratio.mean())
    # (f) bounded panel: lambda1 curves collapse for large |nu|
    p_bnd = NonlocalParams(n, 2.0, n - 1.0)

    def spread(nn):
        vals = [eigenvalue_parallel(p_bnd, Material(1.0, ls),
                                    np.array([nn, 0.0, 0.0]))
                for ls in FIGURE_LAMBDA_STARS]
        return max(vals) - min(vals)

    collapse = spread(100.0) / spread(10.0)

    checks = {
        "(a) nonpositive": peak <= 1e-12,
        "(b) monotone in lambda*": monotone,
        "(c) linear regime R^2": r2 >= 0.999,
        "(d) bounded regime growth": growth <= 1.05,
        "(e) log regime variation": log_var < 0.2,
        "(f) curve collapse": collapse < 0.25,
    }
    detail = (f"peak {peak:.1e}; R^2 {r2:.6f}; growth {growth:.4f}; "
              f"log variation {log_var:.4f}; collapse {collapse:.5f}")
    report(7, all(checks.values()),
           detail + "".join(f"; {k}: {'ok' if v else 'BAD'}"
                            for k, v in checks.items() if not v))


def test_criterion_8_torus_residual():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for n in (2, 3):
        p = NonlocalParams(n, 0.5, float(n))
        mat = Material(1.0, 0.6)
        torus = TorusSpec((TWO_PI,) * n)
        modes = [(1,) + (0,) * (n - 1), (1,) * n, (2,) + (1,) * (n - 1),
                 (0,) * (n - 1) + (2,), (2, -1) + (0,) * (n - 2)]
        for k in modes:
            nu_k = frequency_vector(k, torus)
            basis = orthonormal_basis(nu_k)
            lam1 = eigenvalue_parallel(p, mat, nu_k)
            lam2 = eigenvalue_transverse(p, mat, nu_k)
            for amplitude, lam in ((nu_k, lam1), (basis[1], lam2)):
                for _ in range(5):
                    x = rng.uniform(0.0, TWO_PI, size=n)
                    applied, _ = oracle.apply_to_plane_wave(
                        p, mat, nu_k, amplitude, x)
                    expected = lam * np.exp(1j * float(nu_k @ x)) * amplitude
                    rel = (np.max(np.abs(applied - expected))
                           / np.max(np.abs(expected)))
                    worst = max(worst, rel)
    report(8, worst <= 1e-5,
           f"direct operator application on eigenfields (n = 2, 3; "
           f"k_max = 2; 5 points each), worst relative residual "
           f"{worst:.3e} <= 1e-5")


def test_criterion_9_spectral_round_trip():
    rng = np.random.default_rng(1009)
    n, k_cut = 2, 4
    p = NonlocalParams(n, 0.5, 2.0)
    mat = Material(1.3, 0.7)
    torus = TorusSpec((TWO_PI, 1.5))
    half = {}
    for k1 in range(0, k_cut + 1):
        for k2 in range(-k_cut, k_cut + 1):
            if k1 == 0 and k2 <= 0:
                continue
            half[(k1, k2)] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rhs = FourierField.from_half_spectrum(n, half)
    u = solve_periodic(rhs, p, mat, torus)
    back = apply_operator(u, p, mat, torus)
    worst = max(float(np.max(np.abs(back.coeffs[k] - c)))
                for k, c in rhs.coeffs.items())
    sym = back.conjugate_asymmetry()
    ok = worst <= 1e-10 and sym <= 1e-13
    report(9, ok,
           f"apply(solve(rhs)) on an 80-mode zero-mean field: worst "
           f"coefficient deviation {worst:.3e} <= 1e-10, conjugate "
           f"asymmetry {sym:.3e}")
